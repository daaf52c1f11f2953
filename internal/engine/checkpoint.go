package engine

// Checkpoint/restore for the shared runtime (see internal/ckpt for the
// wire format). The runtime visits everything it owns — the per-thread
// and per-lock clocks, the event and identifier counters, the slot
// table and the attached detector/accumulator — and then hands the
// codec to the semantics plugin, which visits its own sections. Shard
// predicates (analysis.SetShard) are runtime configuration, not
// analysis state: the caller re-binds them when it reconstructs the
// engine, before loading.
//
// A restored runtime is crash-equivalent: its reports, timestamps and
// retained-state accounting are byte-identical to the uninterrupted
// run's from the checkpointed event onward (pinned by the root-level
// crash-equivalence harness). On any load error the runtime is left
// partially overwritten and must be discarded.

import (
	"fmt"

	"treeclock/internal/ckpt"
	"treeclock/internal/vt"
)

// CheckpointSemantics is the checkpoint/restore extension of Semantics:
// plugins that support crash-safe analysis visit their full state as
// internal/ckpt sections. The runtime detects the extension once at
// construction, like LockSemantics and MemReporter; Runtime.Checkpoint
// fails cleanly for plugins without it.
type CheckpointSemantics[C vt.Clock[C]] interface {
	Semantics[C]
	// Checkpoint visits the plugin's complete state through c. rt is
	// the runtime the plugin is bound to (identifier spaces, clocks). A
	// load must run on a freshly constructed plugin bound to rt, returns
	// errors wrapping ckpt.ErrCorrupt for malformed input, never panics,
	// and on error leaves the plugin to be discarded.
	Checkpoint(rt *Runtime[C], c *ckpt.Codec) error
}

// Checkpointable reports whether the bound semantics plugin supports
// checkpoint/restore.
func (r *Runtime[C]) Checkpointable() bool { return r.ckptSem != nil }

// Checkpoint visits the runtime's complete analysis state — clocks,
// counters, detector/accumulator, plugin state. A load requires a
// freshly constructed runtime with the same semantics, clock type and
// analysis configuration (EnableRaceDetection / EnableAnalysis /
// EnableSlotReclaim) as the run that produced the checkpoint; a
// mismatch is reported as corruption. On a load error the runtime must
// be discarded.
func (r *Runtime[C]) Checkpoint(c *ckpt.Codec) error {
	if r.ckptSem == nil {
		return fmt.Errorf("engine: semantics %T does not support checkpointing", r.sem)
	}
	c.Begin("engine")
	// Reserved: the slot of an engine name no run ever set. Saved empty;
	// a load reads and discards it.
	var reserved string
	c.String(&reserved)
	c.Count(&r.vars)
	c.U64(&r.events)
	ckpt.Slice(c, &r.threads, 1)
	// Clocks are created one at a time and the loop stops at the first
	// error, so a corrupt count cannot make a load allocate more than
	// one clock past the payload it actually holds.
	for i := 0; i < len(r.threads) && c.Err() == nil; i++ {
		if c.Loading() {
			r.threads[i] = r.factory(len(r.threads))
		}
		c.Clock(r.threads[i])
	}
	ckpt.Slice(c, &r.locks, 1)
	if c.Loading() {
		r.lockSet = make([]bool, len(r.locks))
	}
	for l := 0; l < len(r.locks) && c.Err() == nil; l++ {
		c.Bool(&r.lockSet[l])
		if r.lockSet[l] {
			if c.Loading() {
				r.locks[l] = r.factory(len(r.threads))
			}
			c.Clock(r.locks[l])
		}
	}
	hasSlots := r.slots != nil
	c.Bool(&hasSlots)
	if !c.Check(hasSlots == (r.slots != nil), "slot-reclamation configuration mismatch (checkpoint %v, engine %v)", hasSlots, r.slots != nil) {
		return c.Err()
	}
	if hasSlots {
		r.slots.checkpoint(c)
	}
	c.End()
	c.Begin("analysis")
	hasDet, hasAcc := r.det != nil, r.acc != nil
	c.Bool(&hasDet)
	c.Bool(&hasAcc)
	if !c.Check(hasDet == (r.det != nil) && hasAcc == (r.acc != nil),
		"analysis configuration mismatch (checkpoint det=%v acc=%v, engine det=%v acc=%v)",
		hasDet, hasAcc, r.det != nil, r.acc != nil) {
		return c.Err()
	}
	if r.det != nil {
		r.det.Checkpoint(c) // includes its accumulator
	} else if r.acc != nil {
		r.acc.Checkpoint(c)
	}
	c.End()
	if err := c.Err(); err != nil {
		return err
	}
	return r.ckptSem.Checkpoint(r, c)
}

// checkpoint visits the slot table. Loaded free slots must ascend
// below the high-water mark, and every external thread must map below
// it (ckpt.Map requires the external ids themselves to ascend).
func (s *slotTable) checkpoint(c *ckpt.Codec) {
	next := uint64(s.next)
	c.Uvarint(&next)
	if !c.Check(next <= uint64(vt.MaxID), "slot high-water mark %d out of range", next) {
		return
	}
	s.next = vt.TID(next)
	c.U64(&s.retired)
	c.U64(&s.reused)
	if !ckpt.Slice(c, &s.free, 1) {
		return
	}
	for i := range s.free {
		f := uint64(s.free[i])
		c.Uvarint(&f)
		if !c.Check(f < next && (i == 0 || vt.TID(f) > s.free[i-1]), "free slot list entry not ascending below the high-water mark") {
			return
		}
		s.free[i] = vt.TID(f)
	}
	ckpt.Map(c, &s.extern, 2, func(c *ckpt.Codec, u, slot *vt.TID) {
		uu, ss := uint64(*u), uint64(*slot)
		c.Uvarint(&uu)
		c.Uvarint(&ss)
		c.Check(uu <= uint64(vt.MaxID) && ss < next, "external thread map entry invalid")
		*u, *slot = vt.TID(uu), vt.TID(ss)
	})
}
