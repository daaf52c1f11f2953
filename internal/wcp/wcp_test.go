package wcp

import (
	"testing"

	"treeclock/internal/analysis"
	"treeclock/internal/core"
	"treeclock/internal/engine"
	"treeclock/internal/gen"
	"treeclock/internal/oracle"
	"treeclock/internal/trace"
	"treeclock/internal/vc"
	"treeclock/internal/vt"
)

func parse(t *testing.T, s string) *trace.Trace {
	t.Helper()
	tr, err := trace.ParseTextString(s)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	return tr
}

// randomTraces is the differential corpus: lock-heavy mixtures small
// enough for the oracle's fixpoint, plus the lock-rich scenario
// generators and fork/join shapes.
func randomTraces() []*trace.Trace {
	var out []*trace.Trace
	for seed := int64(1); seed <= 5; seed++ {
		out = append(out,
			gen.Mixed(gen.Config{Name: "rnd-a", Threads: 3, Locks: 2, Vars: 5, Events: 300, Seed: seed, SyncFrac: 0.5}),
			gen.Mixed(gen.Config{Name: "rnd-b", Threads: 6, Locks: 3, Vars: 8, Events: 500, Seed: seed * 7, SyncFrac: 0.35}),
			gen.Mixed(gen.Config{Name: "rnd-c", Threads: 10, Locks: 5, Vars: 12, Events: 700, Seed: seed * 13, SyncFrac: 0.2}),
		)
	}
	out = append(out,
		gen.SingleLock(5, 400, 3),
		gen.Star(8, 500, 4),
		gen.Pairwise(6, 400, 5),
		gen.ForkJoinTree(5, 30, 6),
		gen.NestedLocks(6, 3, 800, 7),
		gen.GuardedPairs(6, 8, 800, 8),
		gen.PredictivePairs(6, 600, 9),
	)
	return out
}

// stepCompare runs the engine event by event and compares each event's
// WCP ∪ thread-order timestamp with the oracle's.
func stepCompare[C vt.Clock[C]](t *testing.T, tr *trace.Trace, e *testEngine[C], res *oracle.Result, label string) {
	t.Helper()
	k := tr.Meta.Threads
	lt := tr.LocalTimes()
	dst := vt.NewVector(k)
	for i, ev := range tr.Events {
		e.Step(ev)
		got := e.Sem().Timestamp(ev.T, lt[i], dst)
		if !got.Equal(res.Post[i]) {
			t.Fatalf("%s: %s event %d (%v): timestamp %v, oracle %v",
				label, tr.Meta.Name, i, ev, got, res.Post[i])
		}
	}
}

func TestWCPMatchesOracleBothClocks(t *testing.T) {
	for _, tr := range randomTraces() {
		res := oracle.Timestamps(tr, oracle.WCP)
		eTC := newSized[*core.TreeClock](tr.Meta, core.Factory(nil))
		stepCompare(t, tr, eTC, res, "tree clock")
		eVC := newSized[*vc.VectorClock](tr.Meta, vc.Factory(nil))
		stepCompare(t, tr, eVC, res, "vector clock")
	}
}

// eventIndex maps (thread, local time) pairs back to event indices.
func eventIndex(tr *trace.Trace) map[vt.Epoch]int {
	m := make(map[vt.Epoch]int, tr.Len())
	lt := tr.LocalTimes()
	for i, e := range tr.Events {
		m[vt.Epoch{T: e.T, Clk: lt[i]}] = i
	}
	return m
}

// TestWCPRacesAgainstOracle checks the epoch detector against the
// fixpoint ground truth: every reported sample pair is a real WCP
// race, and every variable with a WCP race is reported.
func TestWCPRacesAgainstOracle(t *testing.T) {
	for _, tr := range randomTraces() {
		res := oracle.Timestamps(tr, oracle.WCP)
		e := newSized[*core.TreeClock](tr.Meta, core.Factory(nil))
		acc := e.EnableAnalysis()
		e.Process(tr.Events)

		idx := eventIndex(tr)
		for _, p := range acc.Samples {
			i, ok1 := idx[p.Prior]
			j, ok2 := idx[p.Access]
			if !ok1 || !ok2 {
				t.Fatalf("%s: race %v names unknown events", tr.Meta.Name, p)
			}
			if !trace.Conflicting(tr.Events[i], tr.Events[j]) {
				t.Errorf("%s: race %v on non-conflicting events", tr.Meta.Name, p)
			}
			if !res.Concurrent(i, j) {
				t.Errorf("%s: reported race %v is WCP-ordered", tr.Meta.Name, p)
			}
		}
		oracleVars := res.RacyVars(tr)
		detVars := acc.RacyVars()
		for x := range oracleVars {
			if !detVars[x] {
				t.Errorf("%s: variable x%d has a WCP race the detector missed", tr.Meta.Name, x)
			}
		}
		for x := range detVars {
			if !oracleVars[x] {
				t.Errorf("%s: detector flagged race-free variable x%d", tr.Meta.Name, x)
			}
		}
	}
}

// TestWCPAgreesAcrossClocks verifies identical summaries and samples
// with tree clocks and vector clocks (the weak-clock machinery is
// shared; the HB backbone must agree too).
func TestWCPAgreesAcrossClocks(t *testing.T) {
	for _, tr := range randomTraces() {
		eTC := newSized[*core.TreeClock](tr.Meta, core.Factory(nil))
		aTC := eTC.EnableAnalysis()
		eTC.Process(tr.Events)
		eVC := newSized[*vc.VectorClock](tr.Meta, vc.Factory(nil))
		aVC := eVC.EnableAnalysis()
		eVC.Process(tr.Events)
		if aTC.Summary() != aVC.Summary() {
			t.Errorf("%s: summaries disagree: tree %+v, vc %+v", tr.Meta.Name, aTC.Summary(), aVC.Summary())
		}
		for i := range aTC.Samples {
			if i < len(aVC.Samples) && aTC.Samples[i] != aVC.Samples[i] {
				t.Errorf("%s: sample %d disagrees: %v vs %v", tr.Meta.Name, i, aTC.Samples[i], aVC.Samples[i])
			}
		}
	}
}

// TestWCPDetectsPredictiveRace pins the headline behavior on the
// canonical example: HB misses the race, WCP reports it.
func TestWCPDetectsPredictiveRace(t *testing.T) {
	tr := parse(t, `
t0 w x0
t0 acq l0
t0 w x1
t0 rel l0
t1 acq l0
t1 w x2
t1 rel l0
t1 w x0
`)
	e := newSized[*core.TreeClock](tr.Meta, core.Factory(nil))
	acc := e.EnableAnalysis()
	e.Process(tr.Events)
	if acc.Total != 1 {
		t.Fatalf("races = %d, want 1 (the predictive x0 race)", acc.Total)
	}
	p := acc.Samples[0]
	if p.Var != 0 || p.Prior != (vt.Epoch{T: 0, Clk: 1}) || p.Access != (vt.Epoch{T: 1, Clk: 4}) {
		t.Errorf("sample = %v, want w-w race on x0 between t0@1 and t1@4", p)
	}
}

// TestWCPGuardedConflictNotRacy: rule (a) keeps properly guarded
// conflicting accesses ordered.
func TestWCPGuardedConflictNotRacy(t *testing.T) {
	tr := parse(t, `
t0 acq l0
t0 w x0
t0 rel l0
t1 acq l0
t1 w x0
t1 r x0
t1 rel l0
`)
	e := newSized[*vc.VectorClock](tr.Meta, vc.Factory(nil))
	acc := e.EnableAnalysis()
	e.Process(tr.Events)
	if acc.Total != 0 {
		t.Errorf("guarded conflicting accesses reported racy: %v", acc.Samples)
	}
}

// TestWCPStreamingMatchesPreSized: the dynamically growing runtime
// (no metadata) computes the same report as one whose clocks are all
// allocated at the trace's full thread capacity.
func TestWCPStreamingMatchesPreSized(t *testing.T) {
	for _, tr := range randomTraces() {
		sized := newSized[*core.TreeClock](tr.Meta, core.Factory(nil))
		aS := sized.EnableAnalysis()
		sized.Process(tr.Events)
		dyn := newStreaming[*core.TreeClock](core.Factory(nil))
		aD := dyn.EnableAnalysis()
		dyn.Process(tr.Events)
		if aS.Summary() != aD.Summary() {
			t.Errorf("%s: streaming %+v, pre-sized %+v", tr.Meta.Name, aD.Summary(), aS.Summary())
		}
		k := tr.Meta.Threads
		for th := 0; th < dyn.Threads(); th++ {
			got := dyn.Timestamp(vt.TID(th), vt.NewVector(k))
			want := sized.Timestamp(vt.TID(th), vt.NewVector(k))
			if !got.Equal(want) {
				t.Fatalf("%s: thread %d WCP timestamp %v, want %v", tr.Meta.Name, th, got, want)
			}
		}
	}
}

// TestWCPMalformedLockPaths pins deterministic behavior on the shapes
// TestRuntimeLockPaths pins for the runtime: WCP analysis of a
// malformed stream is well defined (if meaningless) and identical
// across clock variants.
func TestWCPMalformedLockPaths(t *testing.T) {
	traces := []struct {
		name   string
		events []trace.Event
	}{
		{"release-without-acquire", []trace.Event{
			{T: 0, Obj: 0, Kind: trace.Write},
			{T: 0, Obj: 0, Kind: trace.Release},
			{T: 1, Obj: 0, Kind: trace.Acquire},
			{T: 1, Obj: 0, Kind: trace.Write},
		}},
		{"acquire-never-released", []trace.Event{
			{T: 0, Obj: 0, Kind: trace.Acquire},
			{T: 0, Obj: 0, Kind: trace.Write},
			{T: 1, Obj: 1, Kind: trace.Acquire},
			{T: 1, Obj: 0, Kind: trace.Write},
		}},
		{"double-acquire", []trace.Event{
			{T: 0, Obj: 0, Kind: trace.Acquire},
			{T: 0, Obj: 0, Kind: trace.Acquire},
			{T: 0, Obj: 0, Kind: trace.Write},
			{T: 0, Obj: 0, Kind: trace.Release},
			{T: 1, Obj: 0, Kind: trace.Acquire},
			{T: 1, Obj: 0, Kind: trace.Write},
			{T: 1, Obj: 0, Kind: trace.Release},
		}},
	}
	for _, tc := range traces {
		eTC := newStreaming[*core.TreeClock](core.Factory(nil))
		aTC := eTC.EnableAnalysis()
		eTC.Process(tc.events)
		eVC := newStreaming[*vc.VectorClock](vc.Factory(nil))
		aVC := eVC.EnableAnalysis()
		eVC.Process(tc.events)
		if aTC.Summary() != aVC.Summary() {
			t.Errorf("%s: tree %+v, vc %+v", tc.name, aTC.Summary(), aVC.Summary())
		}
		switch tc.name {
		case "release-without-acquire":
			// The unmatched release publishes no WCP knowledge and
			// closes no section, so the writes stay unordered: a race.
			if aTC.Total != 1 {
				t.Errorf("%s: races = %d, want 1", tc.name, aTC.Total)
			}
		case "double-acquire":
			// The duplicate acquire keeps the original section; the
			// guarded writes conflict, so rule (a) orders them.
			if aTC.Total != 0 {
				t.Errorf("%s: races = %d, want 0", tc.name, aTC.Total)
			}
		case "acquire-never-released":
			// No release, no summaries: the writes race.
			if aTC.Total != 1 {
				t.Errorf("%s: races = %d, want 1", tc.name, aTC.Total)
			}
		}
	}
}

// TestWCPRuleBFIFOAcrossThreeThreads drives the history cursors
// through the isolating rule-(b) chain from the oracle tests and
// checks the engine agrees with the oracle on every event.
func TestWCPRuleBFIFOAcrossThreeThreads(t *testing.T) {
	tr := parse(t, `
t0 acq l0
t0 acq l2
t0 w x0
t0 rel l2
t0 rel l0
t2 acq l2
t2 r x0
t2 rel l2
t2 acq l3
t2 rel l3
t1 acq l0
t1 acq l3
t1 rel l3
t1 w x2
t1 rel l0
t1 w x1
`)
	res := oracle.Timestamps(tr, oracle.WCP)
	e := newSized[*vc.VectorClock](tr.Meta, vc.Factory(nil))
	stepCompare(t, tr, e, res, "rule-b chain")
	// The rule-(b) consequence must be visible in the weak clock of the
	// thread that releases l0 second (the text's t1, interned as thread
	// 2 by order of first appearance): the first l0 release — t0's
	// fifth event — is WCP-before its final write.
	if got := e.Sem().WeakClock(2).Get(0); got < 5 {
		t.Errorf("weak clock entry for t0 = %d, want ≥ 5 (rule b)", got)
	}
}

// TestWCPTimestampShortDst is the regression test for the Timestamp
// truncation bug: a destination shorter than the weak clock (or too
// short for the thread's own entry) must be grown, not silently
// truncated.
func TestWCPTimestampShortDst(t *testing.T) {
	tr := parse(t, `
t0 w x0
t0 acq l0
t0 w x1
t0 rel l0
t1 acq l0
t1 w x2
t1 rel l0
t2 acq l0
t2 w x1
t2 rel l0
`)
	e := newSized[*vc.VectorClock](tr.Meta, vc.Factory(nil))
	e.Process(tr.Events)
	k := tr.Meta.Threads
	for th := 0; th < k; th++ {
		want := e.Timestamp(vt.TID(th), vt.NewVector(k))
		for _, short := range []int{0, 1, th} {
			got := e.Timestamp(vt.TID(th), vt.NewVector(short))
			if len(got) < int(vt.TID(th))+1 {
				t.Fatalf("thread %d: dst of len %d returned len %d, own entry lost", th, short, len(got))
			}
			for u := 0; u < k; u++ {
				if got.Get(vt.TID(u)) != want.Get(vt.TID(u)) {
					t.Fatalf("thread %d: dst of len %d: got %v, want %v", th, short, got, want)
				}
			}
		}
		// A dirty oversized destination must be fully overwritten.
		dirty := vt.NewVector(k + 3)
		for i := range dirty {
			dirty[i] = 999
		}
		got := e.Timestamp(vt.TID(th), dirty)
		for u := range got {
			if u < k {
				if got[u] != want[u] {
					t.Fatalf("thread %d: dirty dst entry %d = %d, want %d", th, u, got[u], want[u])
				}
			} else if got[u] != 0 {
				t.Fatalf("thread %d: dirty dst tail entry %d = %d, want 0", th, u, got[u])
			}
		}
	}
}

// TestWCPCompactionLateThreadSoundness pins the compaction-gating
// subtlety spelled out in the package doc: thread t1 first touches l0
// only after t0 has closed (and re-closed) sections on it, yet reaches
// the rule-(b) trigger condition for t0's first l0 section through a
// nested-lock rule-(a) summary whose snapshot predates that section's
// release. A compaction scheme that counts the owner's own cursor
// ("every acquiring thread has passed the entry" — t0 passes its own
// entries for free) would have dropped the entry before t1 ever
// scanned it and lost the ordering; the foreign-absorption gate keeps
// it. The engine must match the oracle event by event.
func TestWCPCompactionLateThreadSoundness(t *testing.T) {
	tr := parse(t, `
t0 acq l0
t0 acq l1
t0 w x0
t0 rel l1
t0 rel l0
t0 acq l0
t0 rel l0
t1 acq l1
t1 w x0
t1 rel l1
t1 acq l0
t1 rel l0
`)
	res := oracle.Timestamps(tr, oracle.WCP)
	e := newSized[*vc.VectorClock](tr.Meta, vc.Factory(nil))
	stepCompare(t, tr, e, res, "late-thread")
	// The rule-(b) consequence: t1's final weak clock knows t0's first
	// l0 release (t0@5) via the absorbed snapshot, not just the
	// summary's t0@4.
	if got := e.Sem().WeakClock(1).Get(0); got != 5 {
		t.Errorf("weak clock entry for t0 = %d, want 5 (absorbed first l0 section)", got)
	}
	// And the absorption makes the entry droppable: compaction must
	// have reclaimed it at that same release.
	if ms := e.Sem().MemStats(); ms.DroppedEntries == 0 {
		t.Errorf("no history entries compacted: %+v", ms)
	}
}

// TestWCPCompactionMatchesRetained streams the differential corpus
// with compaction on and off: summaries, samples and final weak-order
// timestamps must be identical — compaction only drops entries whose
// absorption would be a no-op.
func TestWCPCompactionMatchesRetained(t *testing.T) {
	for _, tr := range randomTraces() {
		run := func(compact bool) (*testEngine[*vc.VectorClock], *analysis.Accumulator) {
			e := newSized[*vc.VectorClock](tr.Meta, vc.Factory(nil))
			e.Sem().SetCompaction(compact)
			acc := e.EnableAnalysis()
			e.Process(tr.Events)
			return e, acc
		}
		eC, aC := run(true)
		eR, aR := run(false)
		if aC.Summary() != aR.Summary() {
			t.Errorf("%s: compacted %+v, retained %+v", tr.Meta.Name, aC.Summary(), aR.Summary())
		}
		for i := range aC.Samples {
			if i < len(aR.Samples) && aC.Samples[i] != aR.Samples[i] {
				t.Errorf("%s: sample %d diverges: %v vs %v", tr.Meta.Name, i, aC.Samples[i], aR.Samples[i])
			}
		}
		k := tr.Meta.Threads
		for th := 0; th < k; th++ {
			got := eC.Timestamp(vt.TID(th), vt.NewVector(k))
			want := eR.Timestamp(vt.TID(th), vt.NewVector(k))
			if !got.Equal(want) {
				t.Fatalf("%s: thread %d: compacted %v, retained %v", tr.Meta.Name, th, got, want)
			}
		}
		msC, msR := eC.Sem().MemStats(), eR.Sem().MemStats()
		if msR.DroppedEntries != 0 {
			t.Errorf("%s: retained run compacted %d entries", tr.Meta.Name, msR.DroppedEntries)
		}
		if msC.HistEntries+int(msC.DroppedEntries) != msR.HistEntries {
			t.Errorf("%s: live+dropped (%d+%d) != retained total %d",
				tr.Meta.Name, msC.HistEntries, msC.DroppedEntries, msR.HistEntries)
		}
	}
}

// TestWCPMemStatsAccounting sanity-checks the MemReporter numbers on a
// draining workload.
func TestWCPMemStatsAccounting(t *testing.T) {
	e := newStreaming[*vc.VectorClock](vc.Factory(nil))
	if err := e.ProcessSource(gen.Take(gen.HotLock(6, 7), 60000)); err != nil {
		t.Fatalf("soak stream: %v", err)
	}
	ms := e.Sem().MemStats()
	if ms.DroppedEntries == 0 {
		t.Fatalf("hot-lock run compacted nothing: %+v", ms)
	}
	if ms.HistEntries > ms.PeakLockHist {
		t.Errorf("live entries %d exceed the recorded peak %d", ms.HistEntries, ms.PeakLockHist)
	}
	if ms.RetainedBytes == 0 {
		t.Errorf("retained bytes reported as zero despite live state: %+v", ms)
	}
	if ms.FreeVectors == 0 {
		t.Errorf("free list empty after compaction: %+v", ms)
	}
	var live int
	var dropped uint64
	for _, st := range e.Sem().LockHistStats() {
		live += st.Live
		dropped += st.Dropped
		if st.Peak < st.Live {
			t.Errorf("lock %d: peak %d below live %d", st.Lock, st.Peak, st.Live)
		}
	}
	if live != ms.HistEntries || dropped != ms.DroppedEntries {
		t.Errorf("per-lock totals (%d live, %d dropped) disagree with MemStats (%d, %d)",
			live, dropped, ms.HistEntries, ms.DroppedEntries)
	}
}

// TestEngineInterfacesDetected confirms the runtime sees the hooks.
func TestEngineInterfacesDetected(t *testing.T) {
	var s any = NewSemantics[*vc.VectorClock]()
	if _, ok := s.(engine.LockSemantics[*vc.VectorClock]); !ok {
		t.Error("WCP semantics must implement LockSemantics")
	}
	if _, ok := s.(engine.ThreadSemantics[*vc.VectorClock]); !ok {
		t.Error("WCP semantics must implement ThreadSemantics")
	}
}
