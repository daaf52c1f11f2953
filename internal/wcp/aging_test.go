package wcp

// Rule-(a) summary aging (SetSummaryCap): the aging sweep only drops
// acquire summaries whose snapshots are dominated by the lock's latest
// published release clock, so a capped run must be observationally
// identical to an uncapped one — the differential and oracle-pinned
// tests below hold it to that, the way the compaction tests hold
// rule-(b) history compaction to its no-op guarantee.

import (
	"testing"

	"treeclock/internal/analysis"
	"treeclock/internal/gen"
	"treeclock/internal/oracle"
	"treeclock/internal/vc"
	"treeclock/internal/vt"
)

// TestWCPSummaryAgingMatchesRetained runs the differential corpus with
// an aggressive summary cap against the unbounded default: summaries,
// samples and final weak-order timestamps must be identical, and the
// cap must actually have evicted somewhere in the corpus (otherwise
// the test proves nothing).
func TestWCPSummaryAgingMatchesRetained(t *testing.T) {
	var evicted uint64
	for _, tr := range randomTraces() {
		run := func(cap int) (*testEngine[*vc.VectorClock], *analysis.Accumulator) {
			e := newSized[*vc.VectorClock](tr.Meta, vc.Factory(nil))
			e.Sem().SetSummaryCap(cap)
			acc := e.EnableAnalysis()
			e.Process(tr.Events)
			return e, acc
		}
		eA, aA := run(2) // aggressive: sweep at nearly every release
		eR, aR := run(0)
		if aA.Summary() != aR.Summary() {
			t.Errorf("%s: aged %+v, retained %+v", tr.Meta.Name, aA.Summary(), aR.Summary())
		}
		for i := range aA.Samples {
			if i < len(aR.Samples) && aA.Samples[i] != aR.Samples[i] {
				t.Errorf("%s: sample %d diverges: %v vs %v", tr.Meta.Name, i, aA.Samples[i], aR.Samples[i])
			}
		}
		k := tr.Meta.Threads
		for th := 0; th < k; th++ {
			got := eA.Timestamp(vt.TID(th), vt.NewVector(k))
			want := eR.Timestamp(vt.TID(th), vt.NewVector(k))
			if !got.Equal(want) {
				t.Fatalf("%s: thread %d: aged %v, retained %v", tr.Meta.Name, th, got, want)
			}
		}
		msA, msR := eA.Sem().MemStats(), eR.Sem().MemStats()
		if msR.SummaryEvictions != 0 {
			t.Errorf("%s: uncapped run evicted %d summaries", tr.Meta.Name, msR.SummaryEvictions)
		}
		// No additive live+evicted identity holds here (unlike history
		// compaction): a triple whose summary was evicted re-enters the
		// table on its next access, so an aggressive cap can evict the
		// same triple many times over.
		evicted += msA.SummaryEvictions
	}
	if evicted == 0 {
		t.Error("summary cap of 2 evicted nothing across the whole corpus")
	}
}

// TestWCPSummaryAgingLateThreadSoundness is the PR-4-style pinned
// scenario for aging: thread t0's first critical section leaves a
// rule-(a) summary for x0 that the sweep evicts (its snapshot is
// dominated by l0's published release clock once later sections churn
// past the cap); a late thread then runs a conflicting section on the
// same lock and variable. The oracle pins that the evicted summary's
// ordering still arrives — through the dominating published clock the
// late thread joins at acquire — at every single event.
func TestWCPSummaryAgingLateThreadSoundness(t *testing.T) {
	tr := parse(t, `
t0 acq l0
t0 w x0
t0 rel l0
t1 acq l0
t1 w x1
t1 rel l0
t1 acq l0
t1 w x2
t1 rel l0
t2 acq l0
t2 w x0
t2 rel l0
`)
	res := oracle.Timestamps(tr, oracle.WCP)
	e := newSized[*vc.VectorClock](tr.Meta, vc.Factory(nil))
	e.Sem().SetSummaryCap(1)
	stepCompare(t, tr, e, res, "aging late-thread")
	if ms := e.Sem().MemStats(); ms.SummaryEvictions == 0 {
		t.Errorf("no summary evicted before the late thread arrived: %+v", ms)
	}
}

// TestWCPSummaryAgingChurnPlateau drives the summary-churn workload
// (the guarded variable rotates through a large space, so uncapped
// rule-(a) state grows toward threads x vars) under a small cap: live
// summaries must plateau at the cap plus the sweep's hysteresis slack
// while results stay identical to the uncapped run's.
func TestWCPSummaryAgingChurnPlateau(t *testing.T) {
	n := 400_000
	if testing.Short() {
		n = 80_000
	}
	const cap = 64
	run := func(cap int) (*testEngine[*vc.VectorClock], *analysis.Accumulator) {
		e := newStreaming[*vc.VectorClock](vc.Factory(nil))
		e.Sem().SetSummaryCap(cap)
		acc := e.EnableAnalysis()
		if err := e.ProcessSource(gen.Take(gen.ChurningVars(8, 256, 10, 33), n)); err != nil {
			t.Fatal(err)
		}
		return e, acc
	}
	eC, aC := run(cap)
	eU, aU := run(0)
	if aC.Summary() != aU.Summary() {
		t.Errorf("capped summary %+v, uncapped %+v", aC.Summary(), aU.Summary())
	}
	msC, msU := eC.Sem().MemStats(), eU.Sem().MemStats()
	// The sweep triggers above the cap and defers the next sweep by
	// cap/8; live state between sweeps stays under cap plus one
	// hysteresis step plus whatever held locks pin.
	if bound := cap + cap/8 + 1 + soakThreads; msC.SummaryVectors > bound {
		t.Errorf("capped run retains %d summary vectors, want <= %d", msC.SummaryVectors, bound)
	}
	if msC.SummaryEvictions == 0 {
		t.Error("capped churn run evicted nothing")
	}
	if msU.SummaryVectors <= 4*cap {
		t.Errorf("uncapped churn run retained only %d summary vectors — workload no longer stresses the cap", msU.SummaryVectors)
	}
	if msC.RetainedBytes >= msU.RetainedBytes {
		t.Errorf("capped run retains %d bytes, uncapped %d — aging reclaimed nothing", msC.RetainedBytes, msU.RetainedBytes)
	}
}
