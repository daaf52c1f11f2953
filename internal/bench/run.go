// Package bench is the experiment harness: it runs the HB, SHB and MAZ
// registry engines over generated workloads with both clock data
// structures, measures wall-clock time and data-structure work, and
// formats the paper's Tables 1–3 and Figures 6–10 (plus an ablation
// study) as text reports.
package bench

import (
	"fmt"
	"time"

	"treeclock/internal/analysis"
	"treeclock/internal/core"
	"treeclock/internal/registry"
	"treeclock/internal/trace"
	"treeclock/internal/vt"
)

// PO selects the partial order to compute. Its value is the order's
// registry key, so a registry entry's Order converts to it directly.
type PO string

const (
	// MAZ is the Mazurkiewicz partial order.
	MAZ PO = "maz"
	// SHB is schedulable-happens-before.
	SHB PO = "shb"
	// HB is happens-before.
	HB PO = "hb"
	// WCP is the weakly-causally-precedes weak order (predictive race
	// detection). It is not part of POs — the paper's tables cover
	// MAZ/SHB/HB — but the stream and ingest experiments exercise it
	// through the engine registry.
	WCP PO = "wcp"
)

// POs lists the partial orders in the paper's reporting order.
var POs = []PO{MAZ, SHB, HB}

func (p PO) String() string {
	switch p {
	case HB:
		return "HB"
	case SHB:
		return "SHB"
	case MAZ:
		return "MAZ"
	case WCP:
		return "WCP"
	default:
		return "PO?"
	}
}

// Clock selects the data structure. Its value is the clock's registry
// key, so a registry entry's Clock converts to it directly.
type Clock string

const (
	// TC is the tree clock (the paper's contribution).
	TC Clock = "tree"
	// VC is the flat vector clock baseline.
	VC Clock = "vc"
)

func (c Clock) String() string {
	if c == TC {
		return "TC"
	}
	return "VC"
}

// TreeMode forwards core ablation modes through the harness.
type TreeMode = core.Mode

// Result is one measured engine run.
type Result struct {
	Trace    string
	PO       PO
	Clock    Clock
	Analysis bool
	Events   int
	Threads  int
	Elapsed  time.Duration
	Work     vt.WorkStats // populated only when work counting was on
	Pairs    uint64       // detected races / reversible pairs
}

// Seconds returns the elapsed time in seconds.
func (r Result) Seconds() float64 { return r.Elapsed.Seconds() }

// Config controls a single run.
type Config struct {
	PO       PO
	Clock    Clock
	Analysis bool     // also run the race / reversible-pair analysis
	Work     bool     // count data-structure work (adds overhead)
	Mode     TreeMode // tree-clock ablation mode (TC only)
}

// Run builds the registry engine for cfg.PO over cfg.Clock, streams the
// trace through it and reports the measurement; only the pass over the
// trace is timed. It fails when the registry has no such engine.
func Run(tr *trace.Trace, cfg Config) (Result, error) {
	var st *vt.WorkStats
	if cfg.Work {
		st = &vt.WorkStats{}
	}
	e, err := build(cfg.PO, cfg.Clock, registry.Spec{Mode: cfg.Mode, Stats: st, Analysis: cfg.Analysis})
	if err != nil {
		return Result{}, err
	}
	src := trace.NewReplayer(tr)
	start := time.Now()
	err = e.ProcessSource(src)
	elapsed := time.Since(start)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Trace:    tr.Meta.Name,
		PO:       cfg.PO,
		Clock:    cfg.Clock,
		Analysis: cfg.Analysis,
		Events:   tr.Len(),
		Threads:  tr.Meta.Threads,
		Elapsed:  elapsed,
	}
	if acc := e.Acc(); acc != nil {
		res.Pairs = acc.Total
	}
	if st != nil {
		res.Work = *st
	}
	return res, nil
}

// build looks up the registry entry of one (order, clock) cell.
func build(po PO, ck Clock, spec registry.Spec) (registry.Engine, error) {
	info, ok := registry.Lookup(string(po) + "-" + string(ck))
	if !ok {
		return nil, fmt.Errorf("bench: no registry engine for order %q over clock %q", string(po), string(ck))
	}
	return registry.Build(info, spec)
}

// SamplePairs runs the analysis and returns the retained sample pairs
// (bounded; counting in Run covers the totals).
func SamplePairs(tr *trace.Trace, po PO, ck Clock) ([]analysis.Pair, error) {
	e, err := build(po, ck, registry.Spec{Analysis: true})
	if err != nil {
		return nil, err
	}
	if err := e.ProcessSource(trace.NewReplayer(tr)); err != nil {
		return nil, err
	}
	return e.Acc().Samples, nil
}

// RunMean repeats the run and returns the result with the mean elapsed
// time (the paper averages 3 measurements).
func RunMean(tr *trace.Trace, cfg Config, repeats int) (Result, error) {
	if repeats < 1 {
		repeats = 1
	}
	res, err := Run(tr, cfg)
	if err != nil {
		return Result{}, err
	}
	total := res.Elapsed
	for i := 1; i < repeats; i++ {
		r, err := Run(tr, cfg)
		if err != nil {
			return Result{}, err
		}
		total += r.Elapsed
	}
	res.Elapsed = total / time.Duration(repeats)
	return res, nil
}

// must unwraps a run of the experiments, which only ever name orders
// and clocks the registry has.
func must(r Result, err error) Result {
	if err != nil {
		panic(err)
	}
	return r
}
