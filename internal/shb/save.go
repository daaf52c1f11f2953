package shb

import (
	"treeclock/internal/ckpt"
	"treeclock/internal/engine"
)

// Checkpoint implements engine.CheckpointSemantics: the per-variable
// last-write clocks, lazily allocated exactly as during the run. A
// load recreates each clock through the runtime's factory (sharing its
// work-stats binding) and loads it in place.
func (s *Semantics[C]) Checkpoint(rt *engine.Runtime[C], c *ckpt.Codec) error {
	c.Begin("shb")
	ckpt.Slice(c, &s.lw, 1)
	if c.Loading() {
		s.lwSet = make([]bool, len(s.lw))
	}
	for x := 0; x < len(s.lw) && c.Err() == nil; x++ {
		c.Bool(&s.lwSet[x])
		if s.lwSet[x] {
			if c.Loading() {
				s.lw[x] = rt.NewClock()
			}
			c.Clock(s.lw[x])
		}
	}
	c.End()
	return c.Err()
}
