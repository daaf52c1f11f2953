package maz

import (
	"treeclock/internal/ckpt"
	"treeclock/internal/engine"
	"treeclock/internal/vt"
)

// Checkpoint implements engine.CheckpointSemantics: the full Algorithm
// 5 per-variable state — last-write clock and thread, per-thread read
// clocks, and the pending-reader set LRDs. A load recreates clocks
// through the runtime's factory and validates LRDs entries against the
// allocated read-clock set, since a write indexes the read clocks
// through them.
func (s *Semantics[C]) Checkpoint(rt *engine.Runtime[C], c *ckpt.Codec) error {
	c.Begin("maz")
	ckpt.Slice(c, &s.vars, 1)
	for i := 0; i < len(s.vars) && c.Err() == nil; i++ {
		vs := &s.vars[i]
		c.Bool(&vs.lwSet)
		if vs.lwSet {
			vt.CheckpointTID(c, &vs.lwT)
			if c.Loading() && c.Err() == nil {
				vs.lw = rt.NewClock()
			}
			c.Clock(vs.lw)
		}
		ckpt.Slice(c, &vs.rd, 1)
		if c.Loading() && vs.rd != nil {
			vs.rdSet, vs.inLRD = make([]bool, len(vs.rd)), make([]bool, len(vs.rd))
		}
		for t := 0; t < len(vs.rd) && c.Err() == nil; t++ {
			c.Bool(&vs.rdSet[t])
			if vs.rdSet[t] {
				if c.Loading() {
					vs.rd[t] = rt.NewClock()
				}
				c.Clock(vs.rd[t])
			}
		}
		for t := range vs.inLRD {
			c.Bool(&vs.inLRD[t])
		}
		ckpt.Slice(c, &vs.lrds, 1)
		for j := 0; j < len(vs.lrds) && c.Err() == nil; j++ {
			vt.CheckpointTID(c, &vs.lrds[j])
			t := vs.lrds[j]
			c.Check(c.Err() != nil || (int(t) < len(vs.rd) && vs.rdSet[t]), "pending reader has no read clock")
		}
	}
	c.End()
	return c.Err()
}
