package core

import (
	"testing"

	"treeclock/internal/gen"
	"treeclock/internal/trace"
	"treeclock/internal/vc"
	"treeclock/internal/vt"
)

// BenchmarkKernelHB replays the clock operations of an HB pass over
// the single-lock-k64 workload (paper Fig. 10a: 64 threads, one lock,
// acquire/release pairs only) through the tree clock and the vector
// clock kernels, with nothing around them: every event increments its
// thread's clock, an acquire joins the lock clock into it and a release
// monotone-copies it into the lock clock. One op is one replay of the
// whole sequence on fresh clocks. The tree/vc ns/op ratio cancels the
// machine class, which makes it a CI gate for the tree-clock kernel.
func BenchmarkKernelHB(b *testing.B) {
	const threads = 64
	evs := gen.SingleLock(threads, 200_000, 2).Events
	b.Run("tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cs := make([]*TreeClock, threads)
			for t := range cs {
				cs[t] = New(threads, nil)
				cs[t].Init(vt.TID(t))
			}
			lock := New(threads, nil)
			for _, ev := range evs {
				ct := cs[ev.T]
				ct.Inc(ev.T, 1)
				if ev.Kind == trace.Acquire {
					ct.Join(lock)
				} else {
					lock.MonotoneCopy(ct)
				}
			}
		}
	})
	b.Run("vc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cs := make([]*vc.VectorClock, threads)
			for t := range cs {
				cs[t] = vc.New(threads, nil)
				cs[t].Init(vt.TID(t))
			}
			lock := vc.New(threads, nil)
			for _, ev := range evs {
				ct := cs[ev.T]
				ct.Inc(ev.T, 1)
				if ev.Kind == trace.Acquire {
					ct.Join(lock)
				} else {
					lock.MonotoneCopy(ct)
				}
			}
		}
	})
}
