package main

import (
	"slices"
	"testing"

	"treeclock"
	"treeclock/internal/core"
	"treeclock/internal/vc"
	"treeclock/internal/vt"
)

// TestReplayFidelity: on every workload, for every order and both
// clocks, replaying a recorded clock-operation log reproduces the
// recorded run's final thread vector times and WorkStats exactly, and
// the uncounted replay the kernel timings come from ends at the same
// vector times. Without
// this the kernel numbers could measure different work from the engine.
func TestReplayFidelity(t *testing.T) {
	for _, w := range workloads {
		w, in := smallInput(t, w, 20000, 2)
		tr, err := w.decode(in.data, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, order := range []string{"hb", "shb", "maz", "wcp"} {
			treeRec := checkRecording(t, w.name+"/"+order+"-tree", order, core.Factory, replayTree, tr)
			vcRec := checkRecording(t, w.name+"/"+order+"-vc", order, vc.Factory, replayVC, tr)
			// The two engines of an order make the same clock calls, so
			// their kernel replays compare the same work.
			if !slices.Equal(treeRec.log.ops, vcRec.log.ops) {
				t.Errorf("%s/%s: tree and vc engines logged different clock operations", w.name, order)
			}
		}
	}
}

func checkRecording[C vt.Clock[C]](t *testing.T, name, order string, f func(*vt.WorkStats) vt.Factory[C], replay func([]uint64, uint32, *vt.WorkStats) []C, tr *treeclock.Trace) *recording {
	t.Helper()
	rec, err := record(order, f, tr)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if rec.stats.Entries == 0 || rec.stats.Joins+rec.stats.Copies == 0 {
		t.Fatalf("%s: recorded run counted no work: %v", name, &rec.stats)
	}
	if _, err := checkReplay(rec, replay); err != nil {
		t.Errorf("%s: counted replay: %v", name, err)
	}
	got := finalVectors(rec.log.ops, replay(rec.log.ops, rec.log.clocks, nil), len(rec.final))
	for i := range got {
		if !slices.Equal(got[i], rec.final[i]) {
			t.Errorf("%s: timed replay: thread %d ends at %v, recorded %v", name, i, got[i], rec.final[i])
		}
	}
	return rec
}

// TestEntryShapeHoldsAcrossSeeds pins the shape the kernel metrics are
// read against, at two seeds: on single-lock-k64 and star-k32 the tree
// clock touches fewer entries than the vector clock for every order,
// and on star-k32 several times fewer.
func TestEntryShapeHoldsAcrossSeeds(t *testing.T) {
	for _, seed := range []int64{2, 7} {
		for _, i := range []int{0, 2} {
			w, in := smallInput(t, workloads[i], 40000, seed)
			tr, err := w.decode(in.data, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, order := range []string{"hb", "shb", "maz", "wcp"} {
				treeRec, err := record(order, core.Factory, tr)
				if err != nil {
					t.Fatal(err)
				}
				vcRec, err := record(order, vc.Factory, tr)
				if err != nil {
					t.Fatal(err)
				}
				te, ve := treeRec.stats.Entries, vcRec.stats.Entries
				if te >= ve || (w.name == "star-k32" && 4*te >= ve) {
					t.Errorf("%s seed %d %s: tree touches %d entries, vc %d", w.name, seed, order, te, ve)
				}
			}
		}
	}
}
