package shb

import (
	"testing"

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

// newEngine binds the SHB semantics to the shared runtime, with every
// clock allocated at the trace's full thread capacity, as for a
// materialized trace.
func newEngine[C vt.Clock[C]](meta trace.Meta, f vt.Factory[C]) *engine.Runtime[C] {
	return engine.New[C](NewSemantics[C](), func(n int) C { return f(max(n, meta.Threads)) })
}

func randomTraces() []*trace.Trace {
	var out []*trace.Trace
	for seed := int64(1); seed <= 6; seed++ {
		out = append(out,
			gen.Mixed(gen.Config{Name: "rnd-grouped", Threads: 12, Locks: 8, Vars: 24, Events: 800, Seed: 99, SyncFrac: 0.3, LockAffinity: 2, Groups: 3, VarRun: 4}),
			gen.Mixed(gen.Config{Name: "rnd-a", Threads: 3, Locks: 2, Vars: 5, Events: 300, Seed: seed, SyncFrac: 0.4, ReadFrac: 0.5}),
			gen.Mixed(gen.Config{Name: "rnd-b", Threads: 6, Locks: 3, Vars: 8, Events: 500, Seed: seed * 11, SyncFrac: 0.2, ReadFrac: 0.7}),
			gen.Mixed(gen.Config{Name: "rnd-c", Threads: 9, Locks: 4, Vars: 10, Events: 700, Seed: seed * 17, SyncFrac: 0.1}),
		)
	}
	out = append(out,
		gen.ProducerConsumer(3, 4, 600, 7),
		gen.ReadersWriters(8, 600, 8, true),
		gen.ForkJoinTree(5, 30, 9),
	)
	return out
}

func stepCompare[C vt.Clock[C]](t *testing.T, tr *trace.Trace, e *engine.Runtime[C], res *oracle.Result, label string) {
	t.Helper()
	dst := vt.NewVector(tr.Meta.Threads)
	for i, ev := range tr.Events {
		e.Step(ev)
		got := e.Timestamp(ev.T, dst)
		if !got.Equal(res.Post[i]) {
			t.Fatalf("%s: %s event %d (%v): timestamp %v, oracle %v", label, tr.Meta.Name, i, ev, got, res.Post[i])
		}
	}
}

func TestSHBMatchesOracleBothClocks(t *testing.T) {
	for _, tr := range randomTraces() {
		res := oracle.Timestamps(tr, oracle.SHB)
		stepCompare(t, tr, newEngine(tr.Meta, core.Factory(nil)), res, "tree clock")
		stepCompare(t, tr, newEngine(tr.Meta, vc.Factory(nil)), res, "vector clock")
	}
}

func TestSHBHandComputed(t *testing.T) {
	// The last-write edge orders t0's write before t1's read even
	// without any lock.
	tr := parse(t, "t0 w x0\nt1 r x0\nt1 w x1\nt0 r x1\n")
	e := newEngine(tr.Meta, core.Factory(nil))
	e.Process(tr.Events)
	if got := e.Timestamp(0, vt.NewVector(2)); !got.Equal(vt.Vector{2, 2}) {
		t.Errorf("t0 timestamp = %v, want [2, 2]", got)
	}
	if got := e.Timestamp(1, vt.NewVector(2)); !got.Equal(vt.Vector{1, 2}) {
		t.Errorf("t1 timestamp = %v, want [1, 2]", got)
	}
}

func TestVTWorkIdenticalAcrossClocks(t *testing.T) {
	for _, tr := range randomTraces() {
		var stTC, stVC vt.WorkStats
		newEngine(tr.Meta, core.Factory(&stTC)).Process(tr.Events)
		newEngine(tr.Meta, vc.Factory(&stVC)).Process(tr.Events)
		if stTC.Changed != stVC.Changed {
			t.Errorf("%s: VTWork disagrees: tree %d vs vector %d", tr.Meta.Name, stTC.Changed, stVC.Changed)
		}
		if stTC.ForcedRootAttach != 0 {
			t.Errorf("%s: ForcedRootAttach = %d", tr.Meta.Name, stTC.ForcedRootAttach)
		}
	}
}

// TestDeepCopiesEqualWWRaces: §5.1's key point — the non-monotone
// (deep copy) fallback of CopyCheckMonotone happens exactly when the
// write being recorded races the write it overwrites, so the fallback
// count equals the detector's write-write race count.
func TestDeepCopiesEqualWWRaces(t *testing.T) {
	for _, tr := range randomTraces() {
		var st vt.WorkStats
		e := newEngine(tr.Meta, core.Factory(&st))
		det := e.EnableRaceDetection()
		e.Process(tr.Events)
		if st.DeepCopies != det.Acc.ByKind[0] { // WriteWrite
			t.Errorf("%s: %d deep copies but %d w-w races",
				tr.Meta.Name, st.DeepCopies, det.Acc.ByKind[0])
		}
	}
}

// shbPreRaces computes the detector's ground truth: conflicting pairs
// where the earlier event's timestamp is not ⊑ the later event's
// pre-edge timestamp (the SHB race condition, checked before the
// event's own lw join).
func shbPreRaces(tr *trace.Trace, res *oracle.Result) map[int32]bool {
	racy := make(map[int32]bool)
	for i, a := range tr.Events {
		if !a.Kind.IsAccess() {
			continue
		}
		for j := i + 1; j < tr.Len(); j++ {
			b := tr.Events[j]
			if trace.Conflicting(a, b) && !res.Post[i].LessEq(res.Pre[j]) {
				racy[a.Obj] = true
			}
		}
	}
	return racy
}

func TestSHBRaceDetectionAgainstOracle(t *testing.T) {
	for _, tr := range randomTraces() {
		res := oracle.Timestamps(tr, oracle.SHB)
		e := newEngine(tr.Meta, core.Factory(nil))
		det := e.EnableRaceDetection()
		e.Process(tr.Events)

		// Soundness: each sample pair is a real pre-edge race.
		lt := tr.LocalTimes()
		idx := make(map[vt.Epoch]int, tr.Len())
		for i, ev := range tr.Events {
			idx[vt.Epoch{T: ev.T, Clk: lt[i]}] = i
		}
		for _, p := range det.Acc.Samples {
			i, ok1 := idx[p.Prior]
			j, ok2 := idx[p.Access]
			if !ok1 || !ok2 {
				t.Fatalf("%s: race %v names unknown events", tr.Meta.Name, p)
			}
			if !trace.Conflicting(tr.Events[i], tr.Events[j]) {
				t.Errorf("%s: race %v on non-conflicting events", tr.Meta.Name, p)
			}
			if res.Post[i].LessEq(res.Pre[j]) {
				t.Errorf("%s: reported race %v is SHB-ordered before its own edge", tr.Meta.Name, p)
			}
		}
		// Per-variable completeness and soundness of the racy set.
		want := shbPreRaces(tr, res)
		got := det.Acc.RacyVars()
		for x := range want {
			if !got[x] {
				t.Errorf("%s: variable x%d has an SHB race the detector missed", tr.Meta.Name, x)
			}
		}
		for x := range got {
			if !want[x] {
				t.Errorf("%s: detector flagged race-free variable x%d", tr.Meta.Name, x)
			}
		}
	}
}

func TestSHBRaceDetectionAgreesAcrossClocks(t *testing.T) {
	for _, tr := range randomTraces() {
		eTC := newEngine(tr.Meta, core.Factory(nil))
		dTC := eTC.EnableRaceDetection()
		eTC.Process(tr.Events)
		eVC := newEngine(tr.Meta, vc.Factory(nil))
		dVC := eVC.EnableRaceDetection()
		eVC.Process(tr.Events)
		if dTC.Acc.Summary() != dVC.Acc.Summary() {
			t.Errorf("%s: detector disagrees: TC %+v vs VC %+v",
				tr.Meta.Name, dTC.Acc.Summary(), dVC.Acc.Summary())
		}
	}
}

// TestSHBFindsMoreThanFirstHBRace reproduces the motivation of the SHB
// paper: after a first race, HB misses later races that SHB predicts
// soundly. Here t1's unsynchronized write races t0's first write; the
// later read by t0 races t1's write too, and SHB still sees it.
func TestSHBDetectsRacesAfterFirst(t *testing.T) {
	tr := parse(t, "t0 w x0\nt1 w x0\nt0 r x0\n")
	e := newEngine(tr.Meta, core.Factory(nil))
	det := e.EnableRaceDetection()
	e.Process(tr.Events)
	sum := det.Acc.Summary()
	if sum.WriteWrite != 1 || sum.WriteRead != 1 {
		t.Errorf("summary = %+v, want one w-w and one w-r race", sum)
	}
}

func TestWellSyncedNoRaces(t *testing.T) {
	tr := gen.ProducerConsumer(2, 2, 400, 11)
	e := newEngine(tr.Meta, core.Factory(nil))
	det := e.EnableRaceDetection()
	e.Process(tr.Events)
	if det.Acc.Total != 0 {
		t.Errorf("lock-protected trace produced %d races: %v", det.Acc.Total, det.Acc.Samples)
	}
	if e.Events() != uint64(tr.Len()) {
		t.Errorf("Events() = %d, want %d", e.Events(), tr.Len())
	}
	if e.Detector() != det {
		t.Error("Detector() accessor broken")
	}
	if e.ThreadClock(0).Get(0) == 0 {
		t.Error("ThreadClock accessor broken")
	}
}
