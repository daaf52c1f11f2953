// racedetect: generate a realistic racy workload (readers mostly
// bypassing the writer's lock), run happens-before and schedulable-
// happens-before race detection with both clock data structures, and
// compare what they find and how fast.
//
//	go run ./examples/racedetect
package main

import (
	"fmt"
	"log"
	"time"

	"treeclock"
)

func main() {
	// One writer thread updating a shared table under a lock; fifteen
	// reader threads reading it without synchronization.
	tr := treeclock.GenerateReadersWriters(16, 400_000, 42, true)
	stats := treeclock.ComputeTraceStats(tr)
	fmt.Printf("workload: %s — %d events, %d threads (%.1f%% sync)\n\n",
		stats.Name, stats.Events, stats.Threads, stats.SyncPct)

	// HB with tree clocks; SHB with tree clocks (sound to report
	// beyond the first race); the vector-clock baselines, for timing
	// comparison.
	hb, hbTime := analyze("hb-tree", tr)
	shb, shbTime := analyze("shb-tree", tr)
	hbVec, hbVecTime := analyze("hb-vc", tr)
	shbVec, shbVecTime := analyze("shb-vc", tr)

	fmt.Println("algorithm   clock  time        races")
	fmt.Printf("HB          tree   %-10v  %d\n", hbTime.Round(time.Millisecond), hb.Summary.Total)
	fmt.Printf("HB          vector %-10v  %d\n", hbVecTime.Round(time.Millisecond), hbVec.Summary.Total)
	fmt.Printf("SHB         tree   %-10v  %d\n", shbTime.Round(time.Millisecond), shb.Summary.Total)
	fmt.Printf("SHB         vector %-10v  %d\n", shbVecTime.Round(time.Millisecond), shbVec.Summary.Total)

	fmt.Println("\nsample races (SHB):")
	for i, race := range shb.Samples {
		if i == 5 {
			break
		}
		fmt.Println(" ", race)
	}
	if hb.Summary.Total != shbVec.Summary.Total && hb.Summary.Total != shb.Summary.Total {
		fmt.Println("\nnote: SHB and HB race sets differ by design — SHB adds last-write edges")
	}
}

// analyze runs the named registry engine over the trace and times it.
func analyze(engine string, tr *treeclock.Trace) (*treeclock.StreamResult, time.Duration) {
	start := time.Now()
	res, err := treeclock.RunStreamSource(engine, treeclock.NewTraceReplayer(tr))
	if err != nil {
		log.Fatalf("%s: %v", engine, err)
	}
	return res, time.Since(start)
}
