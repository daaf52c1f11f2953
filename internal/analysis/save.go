package analysis

// Checkpoint serialization for the detector and accumulator (see
// internal/ckpt). Everything observable — counts, racy-variable sets,
// retained samples and their trace positions — round-trips exactly, so
// a resumed run's reports are byte-identical to the uninterrupted
// run's. Shard predicates (SetShard) are closures over runtime
// configuration and are not serialized; callers re-bind them when
// reconstructing the engine. Maps are encoded in sorted order so the
// same state always produces the same bytes.

import (
	"treeclock/internal/ckpt"
	"treeclock/internal/vt"
)

// Checkpoint visits the accumulator, leaving the shard predicate
// untouched.
func (a *Accumulator) Checkpoint(c *ckpt.Codec) {
	c.U64(&a.Total)
	for i := range a.ByKind {
		c.U64(&a.ByKind[i])
	}
	ckpt.Map(c, &a.racyVar, 1, func(c *ckpt.Codec, x *int32, racy *bool) {
		c.Int32(x)
		*racy = true
	})
	if !ckpt.Slice(c, &a.Samples, 6) ||
		!c.Check(len(a.Samples) <= maxSamples, "sample count %d exceeds cap %d", len(a.Samples), maxSamples) {
		return
	}
	for i := range a.Samples {
		p := &a.Samples[i]
		c.U8((*uint8)(&p.Kind))
		c.Check(p.Kind < numPairKinds, "bad pair kind")
		c.Int32(&p.Var)
		vt.CheckpointEpoch(c, &p.Prior)
		vt.CheckpointEpoch(c, &p.Access)
	}
	c.Bool(&a.trackPos)
	if !ckpt.Slice(c, &a.samplePos, 8) ||
		!c.Check(len(a.samplePos) <= maxSamples, "sample position count %d exceeds cap %d", len(a.samplePos), maxSamples) {
		return
	}
	for i := range a.samplePos {
		c.U64(&a.samplePos[i])
	}
	c.U64(&a.pos)
}

// Checkpoint visits the detector — per-variable access histories plus
// its accumulator — leaving the shard predicate untouched.
func (dt *Detector[C]) Checkpoint(c *ckpt.Codec) {
	c.Int(&dt.k)
	if !ckpt.Slice(c, &dt.vars, 5) ||
		!c.Check(dt.k >= 0 && dt.k <= vt.MaxID, "detector thread high-water %d out of range", dt.k) {
		return
	}
	for i := range dt.vars {
		vs := &dt.vars[i]
		vt.CheckpointAccess(c, &vs.w, &vs.r, &vs.shared)
	}
	dt.Acc.Checkpoint(c)
}
