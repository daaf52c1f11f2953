package wcp

// The bounded-memory soak: millions of events of the endless hot-lock
// workload — the adversarial shape for the per-lock critical-section
// history, one entry per section with nothing else growing — streamed
// through both WCP clock variants, asserting that the retained history
// stays O(threads) rather than O(events). Before history compaction
// existed, PeakLockHist here equalled the number of sections (events/5
// and climbing); the companion test pins that pre-fix behavior via the
// SetCompaction(false) knob so the bound is demonstrably compaction's
// doing.

import (
	"testing"

	"treeclock/internal/core"
	"treeclock/internal/engine"
	"treeclock/internal/gen"
	"treeclock/internal/vc"
	"treeclock/internal/vt"
)

const soakThreads = 8

// soakBound is the O(threads) ceiling the compacted history must stay
// under: the scheduler's same-thread bursts leave at most a handful of
// consecutive own entries unabsorbed, far below 4 entries per thread.
const soakBound = 4 * soakThreads

// soakRun streams n hot-lock events through a fresh WCP engine and
// returns its retained-state accounting plus the race total.
func soakRun[C vt.Clock[C]](t *testing.T, f vt.Factory[C], n int, compact bool) (engine.MemStats, uint64) {
	t.Helper()
	e := newStreaming[C](f)
	e.Sem().SetCompaction(compact)
	acc := e.EnableAnalysis()
	if err := e.ProcessSource(gen.Take(gen.HotLock(soakThreads, 20260730), n)); err != nil {
		t.Fatalf("soak stream: %v", err)
	}
	if got := e.Events(); got != uint64(n) {
		t.Fatalf("processed %d events, want %d", got, n)
	}
	return e.Sem().MemStats(), acc.Total
}

// TestWCPSoakBoundedHistory is the acceptance soak: ≥5M events (capped
// in -short mode), retained history bounded by O(threads) on both
// clock variants, with identical accounting — the weak-order machinery
// is shared, so the HB backbone must not leak into it.
func TestWCPSoakBoundedHistory(t *testing.T) {
	n := 5_000_000
	if testing.Short() {
		n = 200_000
	}
	tree, racesTree := soakRun[*core.TreeClock](t, core.Factory(nil), n, true)
	vcs, racesVC := soakRun[*vc.VectorClock](t, vc.Factory(nil), n, true)
	for _, c := range []struct {
		label string
		ms    engine.MemStats
	}{{"wcp-tree", tree}, {"wcp-vc", vcs}} {
		if c.ms.PeakLockHist > soakBound {
			t.Errorf("%s: peak history length %d exceeds O(threads) bound %d over %d events",
				c.label, c.ms.PeakLockHist, soakBound, n)
		}
		if c.ms.HistEntries > soakBound {
			t.Errorf("%s: %d history entries retained at end, bound %d", c.label, c.ms.HistEntries, soakBound)
		}
		if c.ms.DroppedEntries == 0 {
			t.Errorf("%s: compaction never ran", c.label)
		}
		// Total retained state (histories, summaries, cursors, free
		// list) stays in the tens of kilobytes regardless of n.
		if c.ms.RetainedBytes > 1<<20 {
			t.Errorf("%s: %d bytes retained over %d events — not O(live state)",
				c.label, c.ms.RetainedBytes, n)
		}
	}
	if tree != vcs {
		t.Errorf("retained-state accounting diverges across clocks:\ntree: %+v\nvc:   %+v", tree, vcs)
	}
	// The workload is fully guarded: rule (a) orders every conflicting
	// pair, so a reported race would be an analysis bug.
	if racesTree != 0 || racesVC != 0 {
		t.Errorf("guarded hot-lock workload reported races: tree %d, vc %d", racesTree, racesVC)
	}
}

// TestWCPSoakUnboundedWithoutCompaction pins what the soak above
// guards against: with compaction disabled the history grows with the
// trace, not the thread count — the pre-fix behavior, kept reachable
// through the knob so the bound is attributable.
func TestWCPSoakUnboundedWithoutCompaction(t *testing.T) {
	n := 120_000
	if testing.Short() {
		n = 40_000
	}
	ms, _ := soakRun[*vc.VectorClock](t, vc.Factory(nil), n, false)
	if ms.DroppedEntries != 0 {
		t.Fatalf("compaction ran despite being disabled: %+v", ms)
	}
	// One entry per critical section (a section spans ~5 events), so
	// the peak is within a small factor of n — far beyond the bound.
	if ms.PeakLockHist <= 4*soakBound {
		t.Fatalf("peak history %d with compaction off — expected O(events) growth (n=%d); "+
			"the soak bound would no longer catch a compaction regression", ms.PeakLockHist, n)
	}
}
