package hb

import (
	"treeclock/internal/ckpt"
	"treeclock/internal/engine"
)

// Checkpoint implements engine.CheckpointSemantics. HB keeps no plugin
// state of its own — the clocks and the detector live in the runtime —
// so the section exists only to keep the checkpoint's section sequence
// aligned and misdirected streams detectable.
func (Semantics[C]) Checkpoint(rt *engine.Runtime[C], c *ckpt.Codec) error {
	c.Begin("hb")
	c.End()
	return c.Err()
}
