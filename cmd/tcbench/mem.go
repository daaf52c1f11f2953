package main

// The mem experiment measures retained engine state on unbounded
// streaming workloads — the complement of the ingest experiment's
// throughput numbers. Each endless generator (hot-lock, rotating-
// locks, churning-vars) is capped at -mem-events and streamed through
// every registry engine; engines implementing the MemReporter
// extension (the WCP pair) report live/peak history entries, compacted
// entries and retained snapshot bytes, which the report normalizes to
// retained-bytes/event — the number that was Θ(threads·8) per sync
// event before rule-(b) history compaction and is ~0 after. The WCP
// engines additionally run in "retain" mode (compaction disabled,
// direct engine construction) with a post-GC heap delta, so the
// before/after comparison in the ROADMAP stays reproducible. With
// -mem-json the rows are written machine-readable (BENCH_mem.json).

import (
	"fmt"
	"os"
	"runtime"

	"treeclock"
	"treeclock/internal/core"
	"treeclock/internal/engine"
	"treeclock/internal/gen"
	"treeclock/internal/trace"
	"treeclock/internal/vc"
	"treeclock/internal/vt"
	"treeclock/internal/wcp"
)

// memWorkload names one endless generator configuration.
type memWorkload struct {
	name string
	mk   func() trace.EventSource
}

func memWorkloads() []memWorkload {
	return []memWorkload{
		{"hot-lock-k16", func() trace.EventSource { return gen.HotLock(16, 31) }},
		{"rotating-locks-k16-l64", func() trace.EventSource { return gen.RotatingLocks(16, 64, 200, 32) }},
		{"churning-vars-k16-v256", func() trace.EventSource { return gen.ChurningVars(16, 256, 100, 33) }},
	}
}

// memResult is one workload × engine × mode measurement.
type memResult struct {
	Workload string `json:"workload"`
	Engine   string `json:"engine"`
	// Mode is "compact" (the default engine, via the streaming API) or
	// "retain" (WCP with compaction disabled, the pre-fix behavior).
	Mode        string `json:"mode"`
	Events      uint64 `json:"events"`
	HasReporter bool   `json:"has_mem_reporter"`
	// Reporter numbers (zero when HasReporter is false).
	HistLive              int     `json:"hist_live"`
	HistPeakPerLock       int     `json:"hist_peak_per_lock"`
	HistDropped           uint64  `json:"hist_dropped"`
	SummaryVectors        int     `json:"summary_vectors"`
	RetainedBytes         uint64  `json:"retained_bytes"`
	RetainedBytesPerEvent float64 `json:"retained_bytes_per_event"`
	// HeapRetainedBytes is the post-GC heap growth with the engine
	// still referenced — only measured on the direct-construction WCP
	// rows (0 elsewhere). An upper bound: allocator slack counts.
	HeapRetainedBytes uint64 `json:"heap_retained_bytes,omitempty"`
	// Churn-section numbers (zero outside it): clock slots under
	// thread churn, summary evictions under variable churn, interner
	// occupancy under identifier-name churn.
	ThreadSlots      int    `json:"thread_slots,omitempty"`
	FreeSlots        int    `json:"free_slots,omitempty"`
	RetiredSlots     uint64 `json:"retired_slots,omitempty"`
	ReusedSlots      uint64 `json:"reused_slots,omitempty"`
	SummaryEvictions uint64 `json:"summary_evictions,omitempty"`
	InternedNames    int    `json:"interned_names,omitempty"`
	InternEvictions  uint64 `json:"intern_evictions,omitempty"`
}

// memReport is the -mem-json payload.
type memReport struct {
	Experiment string      `json:"experiment"`
	GoVersion  string      `json:"go_version"`
	Events     int         `json:"events_per_workload"`
	Results    []memResult `json:"results"`
}

// memExperiment runs the sweep and optionally writes the JSON report.
func memExperiment(events int, jsonPath string) {
	report := memReport{Experiment: "mem", GoVersion: runtime.Version(), Events: events}
	for _, w := range memWorkloads() {
		fmt.Printf("Retained state over %q, %d streamed events:\n", w.name, events)
		for _, name := range treeclock.Engines() {
			res, err := treeclock.RunStreamSource(name, gen.Take(w.mk(), events))
			if err != nil {
				fmt.Fprintf(os.Stderr, "tcbench: %s: %v\n", name, err)
				os.Exit(1)
			}
			row := memResult{Workload: w.name, Engine: name, Mode: "compact", Events: res.Events}
			if res.Mem != nil {
				row.HasReporter = true
				fillMem(&row, *res.Mem)
			}
			report.Results = append(report.Results, row)
			printMemRow(row)
		}
		// The WCP pair again with compaction disabled: the pre-fix
		// retention, with a real heap measurement for both modes.
		for _, mode := range []struct {
			name    string
			compact bool
		}{{"compact", true}, {"retain", false}} {
			rowT := runWCPDirect[*core.TreeClock](w, "wcp-tree", core.Factory(nil), events, mode.compact)
			rowV := runWCPDirect[*vc.VectorClock](w, "wcp-vc", vc.Factory(nil), events, mode.compact)
			rowT.Mode, rowV.Mode = mode.name, mode.name
			if mode.compact {
				// The streaming rows above already carry the compact
				// reporter numbers; these add only the heap figure.
				rowT.Engine += "+heap"
				rowV.Engine += "+heap"
			}
			report.Results = append(report.Results, rowT, rowV)
			printMemRow(rowT)
			printMemRow(rowV)
		}
		fmt.Println()
	}
	memChurnSection(events, &report)
	if jsonPath != "" {
		writeJSONReport(jsonPath, &report, len(report.Results))
	}
}

// memChurnSection measures the three residual-state caps on their
// adversarial workloads: slot reclamation under thread churn, rule-(a)
// summary aging under variable churn, and the intern cap under
// identifier-name churn. Each cap runs at the full event count; the
// unreclaimed fork-churn baseline is clipped (its O(k) clock
// operations over an ever-growing k make long runs quadratic), so
// compare its slots-per-event growth rate, not its absolute count.
func memChurnSection(events int, report *memReport) {
	fmt.Printf("Residual-state caps under churn, %d streamed events:\n", events)
	stream := func(workload, engine, mode string, src trace.EventSource, opts ...treeclock.StreamOption) memResult {
		res, err := treeclock.RunStreamSource(engine, src, opts...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tcbench: %s/%s: %v\n", engine, mode, err)
			os.Exit(1)
		}
		return churnRow(workload, engine, mode, res)
	}

	// Thread churn: external ids grow without bound; reclamation must
	// hold clock capacity at the live ring.
	growEv := events
	if growEv > 20_000 {
		growEv = 20_000
	}
	rows := []memResult{
		stream("fork-churn-r8", "hb-tree", "grow", gen.Take(gen.ForkChurn(8, 31), growEv)),
		stream("fork-churn-r8", "hb-tree", "reclaim", gen.Take(gen.ForkChurn(8, 31), events), treeclock.WithSlotReclaim()),
		// Variable churn: rule-(a) summaries grow toward threads x vars
		// uncapped; the aging sweep holds them near the cap.
		stream("churning-vars-k8-v256", "wcp-tree", "unaged", gen.Take(gen.ChurningVars(8, 256, 10, 33), events)),
		stream("churning-vars-k8-v256", "wcp-tree", "aged", gen.Take(gen.ChurningVars(8, 256, 10, 33), events), treeclock.WithSummaryCap(256)),
	}

	// Identifier-name churn (text input: the interner is the leak).
	sections := events / 4
	capped, err := treeclock.RunStream("hb-tree", gen.NameChurnText(8, 16, sections, 11), treeclock.WithInternCap(1024))
	if err != nil {
		fmt.Fprintf(os.Stderr, "tcbench: intern-cap: %v\n", err)
		os.Exit(1)
	}
	rows = append(rows, churnRow("name-churn-t8", "hb-tree", "intern-cap", capped))

	for _, row := range rows {
		report.Results = append(report.Results, row)
		printChurnRow(row)
	}
	fmt.Println()
}

// churnRow builds a churn-section row from a stream result. A run
// without any cap reports no MemStats — its slot count is the external
// thread space itself (slots map to threads one-to-one).
func churnRow(workload, engine, mode string, res *treeclock.StreamResult) memResult {
	row := memResult{Workload: workload, Engine: engine, Mode: mode, Events: res.Events}
	if res.Mem == nil {
		row.ThreadSlots = res.Meta.Threads
		return row
	}
	row.HasReporter = true
	fillMem(&row, *res.Mem)
	row.ThreadSlots = res.Mem.ThreadSlots
	row.FreeSlots = res.Mem.FreeSlots
	row.RetiredSlots = res.Mem.RetiredSlots
	row.ReusedSlots = res.Mem.ReusedSlots
	row.SummaryEvictions = res.Mem.SummaryEvictions
	row.InternedNames = res.Mem.InternedNames
	row.InternEvictions = res.Mem.InternEvictions
	if row.ThreadSlots == 0 {
		row.ThreadSlots = res.Meta.Threads
	}
	return row
}

// printChurnRow renders one churn measurement line.
func printChurnRow(r memResult) {
	line := fmt.Sprintf("  %-22s %-10s %-10s %9d ev   slots %6d (%d free, %d retired, %d reused)",
		r.Workload, r.Engine, r.Mode, r.Events, r.ThreadSlots, r.FreeSlots, r.RetiredSlots, r.ReusedSlots)
	if r.SummaryVectors > 0 || r.SummaryEvictions > 0 {
		line += fmt.Sprintf("   %d summaries (%d evicted)", r.SummaryVectors, r.SummaryEvictions)
	}
	if r.InternedNames > 0 || r.InternEvictions > 0 {
		line += fmt.Sprintf("   %d names live (%d evicted)", r.InternedNames, r.InternEvictions)
	}
	fmt.Println(line)
}

// fillMem copies reporter numbers into a row and derives the per-event
// rate.
func fillMem(row *memResult, ms engine.MemStats) {
	row.HistLive = ms.HistEntries
	row.HistPeakPerLock = ms.PeakLockHist
	row.HistDropped = ms.DroppedEntries
	row.SummaryVectors = ms.SummaryVectors
	row.RetainedBytes = ms.RetainedBytes
	if row.Events > 0 {
		row.RetainedBytesPerEvent = float64(ms.RetainedBytes) / float64(row.Events)
	}
}

// runWCPDirect streams the workload through a directly constructed WCP
// engine (so the engine survives for a heap measurement) with the
// given compaction setting.
func runWCPDirect[C vt.Clock[C]](w memWorkload, label string, f vt.Factory[C], events int, compact bool) memResult {
	before := heapInUse()
	sem := wcp.NewSemantics[C]()
	sem.SetCompaction(compact)
	e := engine.New[C](sem, f)
	e.EnableAnalysis()
	if err := e.ProcessSource(gen.Take(w.mk(), events)); err != nil {
		fmt.Fprintf(os.Stderr, "tcbench: %s: %v\n", label, err)
		os.Exit(1)
	}
	after := heapInUse() // e still referenced: retained state survives the GC
	row := memResult{Workload: w.name, Engine: label, Events: e.Events(), HasReporter: true}
	fillMem(&row, sem.MemStats())
	if after > before {
		row.HeapRetainedBytes = after - before
	}
	runtime.KeepAlive(e)
	return row
}

// heapInUse reports the live heap after a forced collection.
func heapInUse() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// printMemRow renders one measurement line.
func printMemRow(r memResult) {
	line := fmt.Sprintf("  %-14s %-7s", r.Engine, r.Mode)
	if !r.HasReporter {
		fmt.Println(line + "   (state bounded by live identifier spaces; no reporter)")
		return
	}
	line += fmt.Sprintf("   hist %6d live / %8d peak / %9d dropped   %9d B retained (%.4f B/event)   %d summaries",
		r.HistLive, r.HistPeakPerLock, r.HistDropped, r.RetainedBytes, r.RetainedBytesPerEvent, r.SummaryVectors)
	if r.HeapRetainedBytes > 0 {
		line += fmt.Sprintf("   heap +%d B", r.HeapRetainedBytes)
	}
	fmt.Println(line)
}
