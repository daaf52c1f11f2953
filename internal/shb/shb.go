// Package shb computes the schedulable-happens-before partial order
// (§5.1, Algorithm 4): HB plus an ordering from each read's last write
// to the read. Like the HB engine it is generic over the clock data
// structure.
//
// All sync scaffolding lives in the shared runtime of internal/engine;
// this package contributes only the SHB read/write semantics and the
// per-variable last-write state they need.
package shb

import (
	"treeclock/internal/engine"
	"treeclock/internal/vt"
)

// Semantics is the SHB plugin for the shared engine runtime.
//
// Per variable x it keeps the clock LW_x holding the timestamp of the
// last write to x. Reads join LW_x; writes copy C_t into LW_x with
// CopyCheckMonotone — the copy is monotone unless the previous write
// races this one, so with tree clocks the deep-copy fallback is bounded
// by the number of write-write races (§5.1). Last-write clocks are
// allocated lazily (many variables are read-only or never touched) and
// the variable space grows on first sight of an identifier.
type Semantics[C vt.Clock[C]] struct {
	lw    []C
	lwSet []bool // lw[x] allocated (first write seen)
}

// NewSemantics returns fresh SHB semantics (one per engine run).
func NewSemantics[C vt.Clock[C]]() *Semantics[C] { return &Semantics[C]{} }

// grow extends the per-variable state to cover x (amortized doubling).
func (s *Semantics[C]) grow(x int32) {
	s.lw = vt.GrowSlice(s.lw, int(x)+1)
	s.lwSet = vt.GrowSlice(s.lwSet, int(x)+1)
}

// Read implements engine.Semantics: the race check precedes the lw
// join — afterwards the pair would always be ordered.
func (s *Semantics[C]) Read(rt *engine.Runtime[C], t vt.TID, x int32, ct C) {
	if d := rt.Detector(); d != nil {
		d.Read(x, t, ct)
	}
	if int(x) < len(s.lw) && s.lwSet[x] {
		ct.Join(s.lw[x])
	}
}

// Write implements engine.Semantics.
func (s *Semantics[C]) Write(rt *engine.Runtime[C], t vt.TID, x int32, ct C) {
	if d := rt.Detector(); d != nil {
		d.Write(x, t, ct)
	}
	s.grow(x)
	if !s.lwSet[x] {
		s.lw[x] = rt.NewClock()
		s.lwSet[x] = true
	}
	s.lw[x].CopyCheckMonotone(ct)
}
