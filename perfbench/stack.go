package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"treeclock"
	"treeclock/internal/ckpt"
	"treeclock/internal/core"
	"treeclock/internal/engine"
	"treeclock/internal/hb"
	"treeclock/internal/maz"
	"treeclock/internal/shb"
	"treeclock/internal/trace"
	"treeclock/internal/vc"
	"treeclock/internal/vt"
	"treeclock/internal/wcp"
)

// Layer stacking: the same events pass through ever more of the
// system, and a layer's self time is the difference between adjacent
// stacks.
//
//	replay      trace.Replayer batches, the in-memory event delivery
//	decode      the workload's scanner over its bytes
//	dispatch    engine.Runtime over nopClock and nopSemantics
//	runtime/C   engine.Runtime over clock C and nopSemantics
//	sem/E       engine E with StreamNoAnalysis, from a Replayer
//	full/E      engine E with analysis on, from a Replayer

// nopClock is a vt.Clock that holds no state and does no work.
type nopClock struct{}

var theNopClock = &nopClock{}

func nopFactory(int) *nopClock { return theNopClock }

func (*nopClock) Init(vt.TID)                      {}
func (*nopClock) Get(vt.TID) vt.Time               { return 0 }
func (*nopClock) Inc(vt.TID, vt.Time)              {}
func (*nopClock) Grow(int)                         {}
func (*nopClock) ReleaseSlot(vt.TID)               {}
func (*nopClock) Join(*nopClock)                   {}
func (*nopClock) MonotoneCopy(*nopClock)           {}
func (*nopClock) CopyCheckMonotone(*nopClock) bool { return true }
func (*nopClock) Vector(dst vt.Vector) vt.Vector   { return dst }
func (*nopClock) VectorView() []vt.Time            { return nil }
func (*nopClock) Rev() uint64                      { return 0 }
func (*nopClock) Save(*ckpt.Enc)                   {}
func (*nopClock) Load(*ckpt.Dec)                   {}

// nopSemantics ignores reads and writes.
type nopSemantics[C vt.Clock[C]] struct{}

func (nopSemantics[C]) Read(*engine.Runtime[C], vt.TID, int32, C)  {}
func (nopSemantics[C]) Write(*engine.Runtime[C], vt.TID, int32, C) {}

// newRuntime builds the runtime of a registry order over clocks from
// f, as the streaming session does for a sequential run with default
// options.
func newRuntime[C vt.Clock[C]](order string, f vt.Factory[C], analysis bool) *engine.Runtime[C] {
	var rt *engine.Runtime[C]
	switch order {
	case "hb":
		rt = engine.New[C](hb.NewSemantics[C](), f)
	case "shb":
		rt = engine.New[C](shb.NewSemantics[C](), f)
	case "maz":
		rt = engine.New[C](maz.NewSemantics[C](), f)
	case "wcp":
		rt = engine.New[C](wcp.NewSemantics[C](), f)
	default:
		panic("perfbench: unknown order " + order)
	}
	if analysis {
		if order == "maz" || order == "wcp" {
			rt.EnableAnalysis()
		} else {
			rt.EnableRaceDetection()
		}
	}
	return rt
}

// stackPass is one named stack level.
type stackPass struct {
	name string
	run  func() error
}

// stackPasses lists every stack level over the workload.
func stackPasses(w *workload, in input, tr *trace.Trace, check *resultChecker) []stackPass {
	buf := make([]trace.Event, trace.DefaultBatchSize)
	drain := func(src trace.BatchSource) error {
		var n int
		for {
			m, ok := src.NextBatch(buf)
			n += m
			if !ok {
				break
			}
		}
		if err := src.Err(); err != nil {
			return err
		}
		if n != in.events {
			return fmt.Errorf("delivered %d events, want %d", n, in.events)
		}
		return nil
	}
	passes := []stackPass{
		{"replay", func() error { return drain(trace.NewReplayer(tr)) }},
		{"decode", func() error { return drain(w.scanner(bytes.NewReader(in.data))) }},
		{"dispatch", func() error {
			return engine.New[*nopClock](nopSemantics[*nopClock]{}, nopFactory).ProcessSource(trace.NewReplayer(tr))
		}},
		{"runtime/tree", func() error {
			return engine.New[*core.TreeClock](nopSemantics[*core.TreeClock]{}, core.Factory(nil)).ProcessSource(trace.NewReplayer(tr))
		}},
		{"runtime/vc", func() error {
			return engine.New[*vc.VectorClock](nopSemantics[*vc.VectorClock]{}, vc.Factory(nil)).ProcessSource(trace.NewReplayer(tr))
		}},
	}
	for _, name := range treeclock.Engines() {
		passes = append(passes,
			stackPass{"sem/" + name, func() error {
				_, err := treeclock.RunStreamSource(name, trace.NewReplayer(tr), treeclock.StreamNoAnalysis())
				return err
			}},
			stackPass{"full/" + name, func() error {
				res, err := treeclock.RunStreamSource(name, trace.NewReplayer(tr))
				if err != nil {
					return err
				}
				return check.check(name, res)
			}})
	}
	return passes
}

// runStacks times every stack level in rounds until the deadline, at
// least twice, and returns each level's median time in ns.
func runStacks(passes []stackPass, deadline time.Time, t *tally) map[string]float64 {
	times := make(map[string][]float64, len(passes))
	for round := 0; round < 2 || time.Now().Before(deadline); round++ {
		for _, p := range passes {
			runtime.GC()
			began := time.Now()
			err := p.run()
			elapsed := time.Since(began)
			if t.record("stack "+p.name, err) {
				times[p.name] = append(times[p.name], float64(elapsed))
			}
		}
	}
	out := make(map[string]float64, len(times))
	for name, ts := range times {
		out[name] = median(ts)
	}
	return out
}
