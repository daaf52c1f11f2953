// Package hb computes Lamport's happens-before partial order over a
// trace in a single streaming pass (the paper's Algorithms 1 and 3).
// The engine is generic over the clock data structure: instantiated
// with *core.TreeClock it is Algorithm 3, with *vc.VectorClock it is
// Algorithm 1 — identical algorithm code, so measured differences are
// attributable to the data structure alone.
//
// All sync scaffolding (thread and lock clocks, the event dispatch,
// identifier growth) lives in the shared runtime of internal/engine;
// this package contributes only the HB read/write semantics: accesses
// carry no ordering of their own, so the hooks merely feed the optional
// race detector.
package hb

import (
	"treeclock/internal/engine"
	"treeclock/internal/vt"
)

// Semantics is the HB plugin for the shared engine runtime. Under
// happens-before, reads and writes induce no edges; with race detection
// enabled they are checked against the variable's access history.
type Semantics[C vt.Clock[C]] struct{}

// NewSemantics returns the (stateless) HB semantics.
func NewSemantics[C vt.Clock[C]]() Semantics[C] { return Semantics[C]{} }

// Read implements engine.Semantics.
func (Semantics[C]) Read(rt *engine.Runtime[C], t vt.TID, x int32, ct C) {
	if d := rt.Detector(); d != nil {
		d.Read(x, t, ct)
	}
}

// Write implements engine.Semantics.
func (Semantics[C]) Write(rt *engine.Runtime[C], t vt.TID, x int32, ct C) {
	if d := rt.Detector(); d != nil {
		d.Write(x, t, ct)
	}
}
