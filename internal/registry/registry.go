// Package registry is the one place engines are built. Every engine is
// the shared runtime of internal/engine bound to one partial order's
// Semantics plugin over one clock data structure (the paper's method:
// the algorithm stays fixed, only the clock changes). The table names
// each (order, clock) cell and Build instantiates one. Sessions (the
// streaming API) and internal/bench (the paper's tables and figures)
// both build through Build, so the product path and the paper harness
// run the same engines.
//
// Adding a clock is one column: its rows in the table and its factory
// in Build. Adding a partial order is one row: its rows in the table
// and its semantics in build.
package registry

import (
	"fmt"
	"slices"

	"treeclock/internal/analysis"
	"treeclock/internal/ckpt"
	"treeclock/internal/core"
	"treeclock/internal/engine"
	"treeclock/internal/hb"
	"treeclock/internal/maz"
	"treeclock/internal/shb"
	"treeclock/internal/trace"
	"treeclock/internal/vc"
	"treeclock/internal/vt"
	"treeclock/internal/wcp"
)

// Info describes one registry entry.
type Info struct {
	// Name is the registry key, "<order>-<clock>": e.g. "hb-tree".
	Name string
	// Order is the partial order: "hb", "shb", "maz" or "wcp".
	Order string
	// Clock is the data structure: "tree" or "vc".
	Clock string
	// Doc is a one-line description.
	Doc string
}

// table lists every engine, sorted by name.
var table = []Info{
	{"hb-tree", "hb", "tree", "happens-before with tree clocks (Algorithm 3)"},
	{"hb-vc", "hb", "vc", "happens-before with vector clocks (Algorithm 1)"},
	{"maz-tree", "maz", "tree", "Mazurkiewicz order with tree clocks (Algorithm 5)"},
	{"maz-vc", "maz", "vc", "Mazurkiewicz order with vector clocks"},
	{"shb-tree", "shb", "tree", "schedulable-happens-before with tree clocks (Algorithm 4)"},
	{"shb-vc", "shb", "vc", "schedulable-happens-before with vector clocks"},
	{"wcp-tree", "wcp", "tree", "weakly-causally-precedes with tree clocks (predictive races)"},
	{"wcp-vc", "wcp", "vc", "weakly-causally-precedes with vector clocks"},
}

// Infos returns the registry entries, sorted by name.
func Infos() []Info { return slices.Clone(table) }

// Lookup returns the entry registered under name.
func Lookup(name string) (Info, bool) {
	for _, info := range table {
		if info.Name == name {
			return info, true
		}
	}
	return Info{}, false
}

// Spec is the per-build configuration of one engine.
type Spec struct {
	// Mode is the tree-clock ablation mode; vector clocks ignore it.
	Mode core.Mode
	// Stats, when non-nil, accumulates the clocks' work counters.
	Stats *vt.WorkStats
	// Analysis attaches race / reversible-pair detection.
	Analysis bool
	// Owns, when non-nil, shards the per-variable analysis to the
	// variables it accepts: for the detector-backed orders (HB, SHB)
	// the whole detector — checks and access-history state — is gated,
	// for the self-checking orders (MAZ, WCP) the accumulator drops
	// foreign reports; either way the retained samples carry trace
	// positions so shards merge back into trace order.
	Owns func(int32) bool
	// SlotReclaim retires fully-joined thread slots for reuse. Orders
	// with thread hooks (WCP) reject it.
	SlotReclaim bool
	// SummaryCap bounds WCP's rule-(a) summaries (0 = unbounded).
	SummaryCap int
	// FlatWeak selects WCP's flat-vector weak-clock transport instead
	// of the sparse default.
	FlatWeak bool
}

// Engine is the non-generic view of a built engine. ProcessBatchAt and
// Acc serve the sharded path: parallel workers are fed positioned
// batches and their accumulators merged afterwards.
type Engine interface {
	ProcessSource(trace.EventSource) error
	ProcessBatchAt(base uint64, events []trace.Event)
	Events() uint64
	Meta() trace.Meta
	Mem() (engine.MemStats, bool)
	Acc() *analysis.Accumulator
	Finish() (analysis.Summary, []analysis.Pair, []vt.Vector)
	Checkpointable() bool
	Checkpoint(c *ckpt.Codec) error
}

// Build instantiates the engine of one registry entry. It fails when
// the entry's order cannot honor the spec (slot reclamation on WCP) or
// when info names an order or clock the registry does not know.
func Build(info Info, spec Spec) (Engine, error) {
	switch info.Clock {
	case "tree":
		return build(info.Order, core.FactoryMode(spec.Stats, spec.Mode), spec)
	case "vc":
		return build(info.Order, vc.Factory(spec.Stats), spec)
	}
	return nil, fmt.Errorf("registry: unknown clock %q", info.Clock)
}

// build binds the order's semantics to the runtime over clock type C.
func build[C vt.Clock[C]](order string, f vt.Factory[C], spec Spec) (Engine, error) {
	a := &adapter[C]{}
	switch order {
	case "hb":
		a.rt = engine.New[C](hb.NewSemantics[C](), f)
	case "shb":
		a.rt = engine.New[C](shb.NewSemantics[C](), f)
	case "maz":
		a.rt = engine.New[C](maz.NewSemantics[C](), f)
	case "wcp":
		if spec.FlatWeak {
			a.rt, a.timestamp = newWCP[C](wcp.NewSemanticsFlat[C](), f, spec.SummaryCap)
		} else {
			a.rt, a.timestamp = newWCP[C](wcp.NewSemantics[C](), f, spec.SummaryCap)
		}
	default:
		return nil, fmt.Errorf("registry: unknown partial order %q", order)
	}
	if spec.SlotReclaim {
		if err := a.rt.EnableSlotReclaim(); err != nil {
			return nil, err
		}
	}
	if spec.Analysis {
		switch order {
		case "maz", "wcp":
			// These orders run their own pair checks and only need an
			// accumulator to report into.
			a.acc = a.rt.EnableAnalysis()
			if spec.Owns != nil {
				a.acc.SetShard(spec.Owns)
			}
		default:
			det := a.rt.EnableRaceDetection()
			if spec.Owns != nil {
				det.SetShard(spec.Owns)
			}
			a.acc = det.Acc
		}
		if spec.Owns != nil {
			a.acc.TrackPositions()
		}
	}
	return a, nil
}

// wcpSemantics is what build needs from either weak-clock transport.
type wcpSemantics[C vt.Clock[C]] interface {
	engine.Semantics[C]
	SetSummaryCap(n int)
	Timestamp(t vt.TID, lt vt.Time, dst vt.Vector) vt.Vector
}

// newWCP binds WCP semantics to a runtime. WCP timestamps are the weak
// clocks (plus thread order), not the runtime's HB scaffolding, so the
// returned override reads them off the semantics; the thread's local
// time comes from its HB clock (own entries agree across all orders).
func newWCP[C vt.Clock[C]](sem wcpSemantics[C], f vt.Factory[C], summaryCap int) (*engine.Runtime[C], func(vt.TID, vt.Vector) vt.Vector) {
	sem.SetSummaryCap(summaryCap)
	rt := engine.New[C](sem, f)
	return rt, func(t vt.TID, dst vt.Vector) vt.Vector {
		return sem.Timestamp(t, rt.ThreadClock(t).Get(t), dst)
	}
}

// adapter is Engine over clock type C.
type adapter[C vt.Clock[C]] struct {
	rt  *engine.Runtime[C]
	acc *analysis.Accumulator
	// timestamp overrides the runtime's thread-clock snapshot for
	// orders whose timestamps live outside the runtime's clocks (WCP's
	// weak clocks); nil means the runtime's clocks ARE the order.
	timestamp func(t vt.TID, dst vt.Vector) vt.Vector
}

func (a *adapter[C]) ProcessSource(src trace.EventSource) error {
	return a.rt.ProcessSource(src)
}
func (a *adapter[C]) ProcessBatchAt(base uint64, events []trace.Event) {
	a.rt.ProcessBatchAt(base, events)
}
func (a *adapter[C]) Events() uint64                 { return a.rt.Events() }
func (a *adapter[C]) Meta() trace.Meta               { return a.rt.Meta() }
func (a *adapter[C]) Mem() (engine.MemStats, bool)   { return a.rt.MemStats() }
func (a *adapter[C]) Acc() *analysis.Accumulator     { return a.acc }
func (a *adapter[C]) Checkpointable() bool           { return a.rt.Checkpointable() }
func (a *adapter[C]) Checkpoint(c *ckpt.Codec) error { return a.rt.Checkpoint(c) }

// Finish returns the analysis outcome and every thread's final vector
// time under the entry's order.
func (a *adapter[C]) Finish() (analysis.Summary, []analysis.Pair, []vt.Vector) {
	k := a.rt.Threads()
	ts := make([]vt.Vector, k)
	for t := 0; t < k; t++ {
		if a.timestamp != nil {
			ts[t] = a.timestamp(vt.TID(t), vt.NewVector(k))
		} else {
			ts[t] = a.rt.Timestamp(vt.TID(t), vt.NewVector(k))
		}
	}
	if a.acc == nil {
		return analysis.Summary{}, nil, ts
	}
	return a.acc.Summary(), a.acc.Samples, ts
}
