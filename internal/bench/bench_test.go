package bench

import (
	"bytes"
	"strings"
	"testing"

	"treeclock/internal/gen"
	"treeclock/internal/trace"
)

// tinyOpts keeps harness tests fast: small suite scale, one repeat,
// small scalability sweeps.
func tinyOpts() Options {
	return Options{
		Scale:        0.03,
		Repeats:      1,
		Fig10Events:  4000,
		Fig10Threads: []int{4, 8},
	}
}

func mustRun(t *testing.T, tr *trace.Trace, cfg Config) Result {
	t.Helper()
	r, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunAllCombinations(t *testing.T) {
	tr := gen.Mixed(gen.Config{Name: "combo", Threads: 6, Locks: 3, Vars: 32, Events: 3000, Seed: 1, SyncFrac: 0.3})
	for _, po := range POs {
		for _, ck := range []Clock{TC, VC} {
			for _, an := range []bool{false, true} {
				r := mustRun(t, tr, Config{PO: po, Clock: ck, Analysis: an, Work: true})
				if r.Events != tr.Len() {
					t.Errorf("%v/%v: events = %d, want %d", po, ck, r.Events, tr.Len())
				}
				if r.Work.Changed == 0 {
					t.Errorf("%v/%v: no work recorded", po, ck)
				}
				if r.Elapsed <= 0 {
					t.Errorf("%v/%v: non-positive elapsed time", po, ck)
				}
			}
		}
	}
}

func TestRunVTWorkAgreesAcrossClocks(t *testing.T) {
	tr := gen.Mixed(gen.Config{Name: "w", Threads: 8, Locks: 4, Vars: 64, Events: 5000, Seed: 2, SyncFrac: 0.25})
	for _, po := range POs {
		tc := mustRun(t, tr, Config{PO: po, Clock: TC, Work: true})
		vc := mustRun(t, tr, Config{PO: po, Clock: VC, Work: true})
		if tc.Work.Changed != vc.Work.Changed {
			t.Errorf("%v: VTWork differs: %d vs %d", po, tc.Work.Changed, vc.Work.Changed)
		}
		if tc.Work.Entries >= vc.Work.Entries {
			t.Errorf("%v: tree clock touched %d entries, vector clock %d — no saving",
				po, tc.Work.Entries, vc.Work.Entries)
		}
	}
}

func TestRunAnalysisPairsAgreeAcrossClocks(t *testing.T) {
	tr := gen.ReadersWriters(8, 4000, 3, true)
	for _, po := range POs {
		tc := mustRun(t, tr, Config{PO: po, Clock: TC, Analysis: true})
		vc := mustRun(t, tr, Config{PO: po, Clock: VC, Analysis: true})
		if tc.Pairs != vc.Pairs {
			t.Errorf("%v: pair counts differ: %d vs %d", po, tc.Pairs, vc.Pairs)
		}
		if tc.Pairs == 0 {
			t.Errorf("%v: racy workload produced no pairs", po)
		}
	}
}

func TestRunMeanAverages(t *testing.T) {
	tr := gen.SingleLock(4, 2000, 4)
	r, err := RunMean(tr, Config{PO: HB, Clock: TC}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Elapsed <= 0 {
		t.Error("mean elapsed must be positive")
	}
}

// TestRunErrorsOnBadPO pins that an order or clock outside the
// registry fails the run with an error rather than a panic.
func TestRunErrorsOnBadPO(t *testing.T) {
	tr := gen.SingleLock(2, 100, 1)
	if _, err := Run(tr, Config{PO: PO("nope"), Clock: TC}); err == nil {
		t.Error("bad PO accepted")
	}
	if _, err := RunMean(tr, Config{PO: HB, Clock: Clock("sundial")}, 2); err == nil {
		t.Error("bad clock accepted")
	}
	if _, err := SamplePairs(tr, PO("nope"), VC); err == nil {
		t.Error("bad PO accepted by SamplePairs")
	}
}

func TestStringers(t *testing.T) {
	if HB.String() != "HB" || SHB.String() != "SHB" || MAZ.String() != "MAZ" || PO("nope").String() != "PO?" {
		t.Error("PO names wrong")
	}
	if TC.String() != "TC" || VC.String() != "VC" {
		t.Error("Clock names wrong")
	}
}

func TestTable1Report(t *testing.T) {
	h := NewHarness(tinyOpts())
	var buf bytes.Buffer
	h.Table1(&buf)
	out := buf.String()
	for _, want := range []string{"Table 1", "Threads", "Locks", "Sync. Events"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable2Report(t *testing.T) {
	h := NewHarness(tinyOpts())
	var buf bytes.Buffer
	h.Table2(&buf)
	out := buf.String()
	for _, want := range []string{"Table 2", "MAZ", "SHB", "HB", "PO + Analysis"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table2 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable3Report(t *testing.T) {
	h := NewHarness(tinyOpts())
	var buf bytes.Buffer
	h.Table3(&buf)
	out := buf.String()
	if !strings.Contains(out, "account") || !strings.Contains(out, "tradebeans-like") {
		t.Errorf("Table3 missing suite rows:\n%s", out)
	}
}

func TestFigureReports(t *testing.T) {
	if testing.Short() {
		t.Skip("figure reports are slow")
	}
	h := NewHarness(tinyOpts())
	var buf bytes.Buffer
	h.Figure8(&buf)
	if !strings.Contains(buf.String(), "TCWork/VTWork") {
		t.Errorf("Figure8 output:\n%s", buf.String())
	}
	buf.Reset()
	h.Figure9(&buf)
	if !strings.Contains(buf.String(), "VCWork/TCWork") {
		t.Errorf("Figure9 output:\n%s", buf.String())
	}
	buf.Reset()
	h.Figure10(&buf)
	out := buf.String()
	for _, sc := range []string{"single-lock", "fifty-locks-skewed", "star", "pairwise"} {
		if !strings.Contains(out, sc) {
			t.Errorf("Figure10 missing scenario %q", sc)
		}
	}
	buf.Reset()
	h.Ablation(&buf)
	if !strings.Contains(buf.String(), "no-indirect-break") {
		t.Errorf("Ablation output:\n%s", buf.String())
	}
}

func TestFigure6And7Reports(t *testing.T) {
	if testing.Short() {
		t.Skip("figure reports are slow")
	}
	opts := tinyOpts()
	opts.Scale = 0.02
	h := NewHarness(opts)
	var buf bytes.Buffer
	h.Figure6(&buf)
	if !strings.Contains(buf.String(), "MAZ+Analysis") {
		t.Errorf("Figure6 output missing analysis panels:\n%.400s", buf.String())
	}
	buf.Reset()
	h.Figure7(&buf)
	if !strings.Contains(buf.String(), "Sync (%)") {
		t.Errorf("Figure7 output:\n%.400s", buf.String())
	}
}

func TestHarnessDefaults(t *testing.T) {
	h := NewHarness(Options{})
	if h.Opts.Scale != 1.0 || h.Opts.Repeats != 1 || h.Opts.Fig10Events == 0 || len(h.Opts.Fig10Threads) == 0 {
		t.Errorf("defaults not applied: %+v", h.Opts)
	}
	d := Defaults()
	if d.Repeats != 3 {
		t.Errorf("Defaults() = %+v", d)
	}
}
