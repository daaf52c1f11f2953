package vc

import "treeclock/internal/ckpt"

// Save implements vt.Clock.
func (c *VectorClock) Save(e *ckpt.Enc) { c.Checkpoint(e.Codec()) }

// Load implements vt.Clock.
func (c *VectorClock) Load(d *ckpt.Dec) { c.Checkpoint(d.Codec()) }

// Checkpoint visits the vector and the foreign-entry revision counter
// (consumed by the weak-order quiet-release fast path, so it must
// survive a restore). A load replaces the clock's contents.
func (c *VectorClock) Checkpoint(cc *ckpt.Codec) {
	ckpt.Slice(cc, &c.v, 1)
	for i := range c.v {
		cc.Int32((*int32)(&c.v[i]))
	}
	cc.U64(&c.rev)
}
