// scalability: a miniature of the paper's Figure 10 — happens-before
// computation time versus thread count on the star topology, where
// tree clocks stay flat while vector clocks grow linearly with the
// number of threads.
//
//	go run ./examples/scalability
package main

import (
	"fmt"
	"log"
	"time"

	"treeclock"
)

const eventsPerTrace = 200_000

// run times the pure HB computation (no race analysis) over the trace.
func run(tr *treeclock.Trace, useTree bool) time.Duration {
	engine := "hb-vc"
	if useTree {
		engine = "hb-tree"
	}
	start := time.Now()
	if _, err := treeclock.RunStreamSource(engine, treeclock.NewTraceReplayer(tr), treeclock.StreamNoAnalysis()); err != nil {
		log.Fatalf("%s: %v", engine, err)
	}
	return time.Since(start)
}

func main() {
	fmt.Printf("star topology, %d sync events per trace (paper Fig. 10c)\n\n", eventsPerTrace)
	fmt.Println("threads  vector clock  tree clock  speedup")
	for _, k := range []int{10, 40, 80, 160, 240, 320} {
		tr := treeclock.GenerateStar(k, eventsPerTrace, int64(k))
		// Warm up once, then time.
		run(tr, true)
		tc := run(tr, true)
		vc := run(tr, false)
		fmt.Printf("%7d  %12v  %10v  %6.2fx\n",
			k, vc.Round(time.Millisecond), tc.Round(time.Millisecond),
			float64(vc)/float64(tc))
	}
	fmt.Println("\nvector clocks scale with k; tree clocks touch only the entries that change.")
}
