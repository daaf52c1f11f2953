package core

import (
	"treeclock/internal/ckpt"
	"treeclock/internal/vt"
)

// Save implements vt.Clock.
func (c *TreeClock) Save(e *ckpt.Enc) { c.Checkpoint(e.Codec()) }

// Load implements vt.Clock.
func (c *TreeClock) Load(d *ckpt.Dec) { c.Checkpoint(d.Codec()) }

// Checkpoint visits the clock: the two arrays of the paper's layout
// plus the scalars that steer future operations — root, mode, node
// count and the foreign-entry revision counter (which the weak-order
// quiet-release fast path reads, so it must survive a restore). A load
// replaces the clock's contents (Init must not have attached anything
// the caller wants to keep).
//
// The encoding is checkpoint format v2: per thread aclk, par, head, nxt
// and prv, with prv derived from pprev. The root's nxt and prv carry no
// meaning: a root promoted by MonotoneCopy keeps the sibling links it
// had when it was unlinked, and they are written as they stand so the
// bytes stay those of the two-pass kernel that defined the format.
//
// Link fields are range-checked on load — parents in [notIn, k), the
// sibling and child links in [none, k) — so structural garbage that
// survives the checksum yields a wrong clock, never a panic. Each
// pprev is rebuilt from the loaded prv: the previous sibling's nxt
// slot, else the parent's head slot, else (roots and absent threads)
// the dummy.
func (c *TreeClock) Checkpoint(cc *ckpt.Codec) {
	root, mode := int32(c.root), uint8(c.mode)
	cc.Int32In(&c.k, 0, 1<<26+1, "tree clock capacity")
	cc.Int32In(&root, int32(none), c.k, "tree clock root")
	cc.U8(&mode)
	cc.Int32In(&c.nodes, 0, c.k+1, "tree clock node count")
	cc.U64(&c.rev)
	if !cc.Check(Mode(mode) <= ModeDeepCopy, "tree clock mode unknown") {
		return
	}
	c.root, c.mode = vt.TID(root), Mode(mode)
	if cc.Loading() {
		c.clk = make([]vt.Time, c.k)
		c.sh = make([]int32, (c.k+1)*stride)
	}
	for i := range c.clk[:c.k] {
		cc.Int32((*int32)(&c.clk[i]))
	}
	for t := vt.TID(0); t < vt.TID(c.k); t++ {
		r := c.sh[rec(t):][:stride]
		prv := int32(c.prvOf(t))
		cc.Int32(&r[fAclk])
		cc.Int32In(&r[fPar], int32(notIn), c.k, "tree link")
		cc.Int32In(&r[fHead], int32(none), c.k, "tree link")
		cc.Int32In(&r[fNxt], int32(none), c.k, "tree link")
		cc.Int32In(&prv, int32(none), c.k, "tree link")
		if cc.Loading() {
			if par := r[fPar]; prv != int32(none) {
				r[fPprev] = rec(vt.TID(prv)) + fNxt
			} else if par >= 0 {
				r[fPprev] = rec(vt.TID(par)) + fHead
			}
		}
	}
}
