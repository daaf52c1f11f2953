package bench

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"treeclock/internal/core"
	"treeclock/internal/gen"
	"treeclock/internal/stats"
	"treeclock/internal/trace"
)

// Options parameterizes the experiment reports.
type Options struct {
	// Scale multiplies the suite's event counts (1.0 ≈ a few hundred
	// thousand events per large trace; the paper's traces are ~1000×
	// larger).
	Scale float64
	// Repeats averages each timing over this many runs (paper: 3).
	Repeats int
	// Fig10Events is the events per scalability trace (paper: 10M).
	Fig10Events int
	// Fig10Threads is the thread sweep (paper: 10..360).
	Fig10Threads []int
}

// Defaults returns laptop-friendly options.
func Defaults() Options {
	return Options{
		Scale:        1.0,
		Repeats:      3,
		Fig10Events:  400_000,
		Fig10Threads: []int{10, 60, 110, 160, 210, 260, 310, 360},
	}
}

// Harness caches generated workloads across experiments.
type Harness struct {
	Opts  Options
	suite []*trace.Trace
}

// NewHarness builds a harness with the given options.
func NewHarness(opts Options) *Harness {
	if opts.Scale <= 0 {
		opts.Scale = 1.0
	}
	if opts.Repeats < 1 {
		opts.Repeats = 1
	}
	if opts.Fig10Events <= 0 {
		opts.Fig10Events = 400_000
	}
	if len(opts.Fig10Threads) == 0 {
		opts.Fig10Threads = Defaults().Fig10Threads
	}
	return &Harness{Opts: opts}
}

// Suite returns the (cached) benchmark suite traces.
func (h *Harness) Suite() []*trace.Trace {
	if h.suite == nil {
		h.suite = gen.Suite(h.Opts.Scale)
	}
	return h.suite
}

// Table1 prints aggregate statistics over the suite, mirroring the
// paper's Table 1 (trace statistics).
func (h *Harness) Table1(w io.Writer) {
	var threads, locks, vars, events, syncPct, rwPct []float64
	for _, tr := range h.Suite() {
		s := trace.ComputeStats(tr)
		threads = append(threads, float64(s.Threads))
		locks = append(locks, float64(s.Locks))
		vars = append(vars, float64(s.Vars))
		events = append(events, float64(s.Events))
		syncPct = append(syncPct, s.SyncPct)
		rwPct = append(rwPct, s.RWPct)
	}
	fmt.Fprintln(w, "Table 1: Trace Statistics (synthetic suite standing in for the paper's logged traces)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\tMin\tMax\tMean")
	row := func(name string, xs []float64, intLike bool) {
		if intLike {
			fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%.0f\n", name, stats.Min(xs), stats.Max(xs), stats.Mean(xs))
		} else {
			fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%.1f\n", name, stats.Min(xs), stats.Max(xs), stats.Mean(xs))
		}
	}
	row("Threads", threads, true)
	row("Locks", locks, true)
	row("Variables", vars, true)
	row("Events", events, true)
	row("Sync. Events (%)", syncPct, false)
	row("R/W Events (%)", rwPct, false)
	tw.Flush()
}

// Table3 prints the per-benchmark trace information (paper Table 3).
func (h *Harness) Table3(w io.Writer) {
	fmt.Fprintln(w, "Table 3: Information on Benchmark Traces (N events, T threads, M locations, L locks)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Benchmark\tN\tT\tM\tL")
	for _, tr := range h.Suite() {
		s := trace.ComputeStats(tr)
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\n", s.Name, s.Events, s.Threads, s.Vars, s.Locks)
	}
	tw.Flush()
}

// poPair measures one trace under one PO with both clocks.
func (h *Harness) poPair(tr *trace.Trace, po PO, analysis bool) (tc, vc Result) {
	tc = must(RunMean(tr, Config{PO: po, Clock: TC, Analysis: analysis}, h.Opts.Repeats))
	vc = must(RunMean(tr, Config{PO: po, Clock: VC, Analysis: analysis}, h.Opts.Repeats))
	return tc, vc
}

// Table2 prints the average speedup of tree clocks over vector clocks
// for each partial order, with and without the analysis component
// (paper Table 2; paper values: MAZ 2.02, SHB 2.66, HB 2.97 for PO and
// 1.49, 1.80, 1.11 with analysis).
func (h *Harness) Table2(w io.Writer) {
	speedup := map[PO][]float64{}
	speedupA := map[PO][]float64{}
	for _, tr := range h.Suite() {
		for _, po := range POs {
			tc, vcr := h.poPair(tr, po, false)
			speedup[po] = append(speedup[po], vcr.Seconds()/tc.Seconds())
			tcA, vcA := h.poPair(tr, po, true)
			speedupA[po] = append(speedupA[po], vcA.Seconds()/tcA.Seconds())
		}
	}
	fmt.Fprintln(w, "Table 2: Average speedup for computing the partial order due to tree clocks")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\tMAZ\tSHB\tHB")
	fmt.Fprintf(tw, "PO\t%.2f\t%.2f\t%.2f\n",
		stats.Mean(speedup[MAZ]), stats.Mean(speedup[SHB]), stats.Mean(speedup[HB]))
	fmt.Fprintf(tw, "PO + Analysis\t%.2f\t%.2f\t%.2f\n",
		stats.Mean(speedupA[MAZ]), stats.Mean(speedupA[SHB]), stats.Mean(speedupA[HB]))
	tw.Flush()
	fmt.Fprintln(w, "(paper: PO 2.02 / 2.66 / 2.97; PO+Analysis 1.49 / 1.80 / 1.11)")
}

// Figure6 prints the per-trace processing times for tree clocks and
// vector clocks — the data behind the paper's six scatter plots
// (MAZ/SHB/HB, with and without the analysis component).
func (h *Harness) Figure6(w io.Writer) {
	for _, analysis := range []bool{false, true} {
		for _, po := range POs {
			label := po.String()
			if analysis {
				label += "+Analysis"
			}
			fmt.Fprintf(w, "Figure 6 (%s): per-trace times\n", label)
			tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
			fmt.Fprintln(tw, "Benchmark\tVC (s)\tTC (s)\tVC/TC")
			for _, tr := range h.Suite() {
				tc, vcr := h.poPair(tr, po, analysis)
				fmt.Fprintf(tw, "%s\t%.4f\t%.4f\t%.2f\n",
					tr.Meta.Name, vcr.Seconds(), tc.Seconds(), vcr.Seconds()/tc.Seconds())
			}
			tw.Flush()
			fmt.Fprintln(w)
		}
	}
}

// Figure7 prints the HB+analysis speedup as a function of the share of
// synchronization events. Alongside the suite it sweeps a controlled
// 16-thread workload whose sync ratio varies, making the paper's trend
// (higher sync share → higher end-to-end speedup) directly visible.
func (h *Harness) Figure7(w io.Writer) {
	type point struct {
		name    string
		syncPct float64
		speedup float64
	}
	var pts []point
	for _, tr := range h.Suite() {
		s := trace.ComputeStats(tr)
		tc, vcr := h.poPair(tr, HB, true)
		if vcr.Elapsed.Milliseconds() < 5 {
			continue // too small to time meaningfully (paper uses ≥100ms)
		}
		pts = append(pts, point{tr.Meta.Name, s.SyncPct, vcr.Seconds() / tc.Seconds()})
	}
	for _, frac := range []float64{0.02, 0.05, 0.1, 0.2, 0.3, 0.45, 0.6} {
		tr := gen.Mixed(gen.Config{
			Name: fmt.Sprintf("sweep-sync%.0f", frac*100), Threads: 16, Locks: 8,
			Vars: 1024, Events: int(200_000 * h.Opts.Scale), Seed: 777, SyncFrac: frac,
		})
		s := trace.ComputeStats(tr)
		tc, vcr := h.poPair(tr, HB, true)
		pts = append(pts, point{tr.Meta.Name, s.SyncPct, vcr.Seconds() / tc.Seconds()})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].syncPct < pts[j].syncPct })
	fmt.Fprintln(w, "Figure 7: HB+Analysis speedup vs. share of synchronization events")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Benchmark\tSync (%)\tVC/TC")
	for _, p := range pts {
		fmt.Fprintf(tw, "%s\t%.1f\t%.2f\n", p.name, p.syncPct, p.speedup)
	}
	tw.Flush()
}

// Figure8 prints, per trace, TCWork/VTWork and VCWork/VTWork for the
// HB computation. Theorem 1 bounds the first ratio by 3; the second
// grows with thread count (paper: up to ~100).
func (h *Harness) Figure8(w io.Writer) {
	fmt.Fprintln(w, "Figure 8: work ratios for HB (VTWork = entries changed; Theorem 1: TCWork ≤ 3·VTWork)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Benchmark\tVTWork\tTCWork/VTWork\tVCWork/VTWork")
	maxTC := 0.0
	for _, tr := range h.Suite() {
		tc := must(Run(tr, Config{PO: HB, Clock: TC, Work: true}))
		vcr := must(Run(tr, Config{PO: HB, Clock: VC, Work: true}))
		vtw := float64(tc.Work.Changed)
		tcRatio := float64(tc.Work.Entries) / vtw
		vcRatio := float64(vcr.Work.Entries) / vtw
		if tcRatio > maxTC {
			maxTC = tcRatio
		}
		fmt.Fprintf(tw, "%s\t%d\t%.2f\t%.2f\n", tr.Meta.Name, tc.Work.Changed, tcRatio, vcRatio)
	}
	tw.Flush()
	fmt.Fprintf(w, "max TCWork/VTWork = %.2f (bound: 3 + o(1) per-op root probes)\n", maxTC)
}

// Figure9 prints histograms of VCWork/TCWork per partial order (paper
// Figure 9): how much redundant work vector clocks perform.
func (h *Harness) Figure9(w io.Writer) {
	bounds := []float64{1, 5, 10, 20, 30, 40, 50, 60, 70, 80}
	for _, po := range POs {
		var ratios []float64
		for _, tr := range h.Suite() {
			tc := must(Run(tr, Config{PO: po, Clock: TC, Work: true}))
			vcr := must(Run(tr, Config{PO: po, Clock: VC, Work: true}))
			ratios = append(ratios, float64(vcr.Work.Entries)/float64(tc.Work.Entries))
		}
		hist := stats.NewHistogram(bounds, ratios)
		maxCount := 0
		for _, c := range hist.Counts {
			if c > maxCount {
				maxCount = c
			}
		}
		fmt.Fprintf(w, "Figure 9 (%s): histogram of VCWork/TCWork across the suite\n", po)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		for i, c := range hist.Counts {
			fmt.Fprintf(tw, "%s\t%d\t%s\n", hist.BucketLabel(i), c, stats.Bar(c, maxCount, 40))
		}
		tw.Flush()
		fmt.Fprintf(w, "mean ratio %.1f, max %.1f\n\n", stats.Mean(ratios), stats.Max(ratios))
	}
}

// Figure10 prints the controlled scalability study (paper Figure 10):
// HB computation time versus thread count for the four communication
// patterns, with both clocks.
func (h *Harness) Figure10(w io.Writer) {
	for _, sc := range gen.Scenarios {
		fmt.Fprintf(w, "Figure 10 (%s): HB time vs. threads, %d events\n", sc.Name, h.Opts.Fig10Events)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "Threads\tVC (s)\tTC (s)\tVC/TC")
		for _, k := range h.Opts.Fig10Threads {
			tr := sc.Fn(k, h.Opts.Fig10Events, int64(k))
			tc := must(RunMean(tr, Config{PO: HB, Clock: TC}, h.Opts.Repeats))
			vcr := must(RunMean(tr, Config{PO: HB, Clock: VC}, h.Opts.Repeats))
			fmt.Fprintf(tw, "%d\t%.4f\t%.4f\t%.2f\n", k, vcr.Seconds(), tc.Seconds(), vcr.Seconds()/tc.Seconds())
		}
		tw.Flush()
		fmt.Fprintln(w)
	}
}

// Ablation quantifies the contribution of each tree-clock idea on the
// star and mixed workloads: the full algorithm, joins without the
// indirect-monotonicity break, and copies done deeply (no monotone
// copy). This study is an extension beyond the paper.
func (h *Harness) Ablation(w io.Writer) {
	workloads := []*trace.Trace{
		gen.Star(64, h.Opts.Fig10Events, 1),
		gen.SingleLock(64, h.Opts.Fig10Events, 2),
		gen.Mixed(gen.Config{Name: "mixed-k32", Threads: 32, Locks: 16, Vars: 2048,
			Events: h.Opts.Fig10Events, Seed: 3, SyncFrac: 0.3}),
	}
	modes := []struct {
		name string
		cfg  Config
	}{
		{"TC (full)", Config{PO: HB, Clock: TC}},
		{"TC no-indirect-break", Config{PO: HB, Clock: TC, Mode: core.ModeNoIndirectBreak}},
		{"TC deep-copy", Config{PO: HB, Clock: TC, Mode: core.ModeDeepCopy}},
		{"VC", Config{PO: HB, Clock: VC}},
	}
	fmt.Fprintln(w, "Ablation: contribution of each tree-clock mechanism (HB)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Workload\tVariant\tTime (s)\tEntries touched")
	for _, tr := range workloads {
		for _, m := range modes {
			cfg := m.cfg
			cfg.Work = true
			r := must(Run(tr, cfg))
			timedR := must(RunMean(tr, m.cfg, h.Opts.Repeats))
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%d\n", tr.Meta.Name, m.name, timedR.Seconds(), r.Work.Entries)
		}
	}
	tw.Flush()
}
