package core

import (
	"treeclock/internal/ckpt"
	"treeclock/internal/vt"
)

// Save implements vt.Clock: the two arrays of the paper's layout plus
// the scalars that steer future operations — root, mode, node count
// and the foreign-entry revision counter (which the weak-order
// quiet-release fast path reads, so it must survive a restore).
//
// The encoding is checkpoint format v2: per thread aclk, par, head, nxt
// and prv, with prv derived from pprev. The root's nxt and prv carry no
// meaning: a root promoted by MonotoneCopy keeps the sibling links it
// had when it was unlinked, and they are written as they stand so the
// bytes stay those of the two-pass kernel that defined the format.
func (c *TreeClock) Save(e *ckpt.Enc) {
	e.Int32(c.k)
	e.Int32(int32(c.root))
	e.U8(uint8(c.mode))
	e.Int32(c.nodes)
	e.U64(c.rev)
	for i := 0; i < int(c.k); i++ {
		e.Svarint(int64(c.clk[i]))
	}
	for t := vt.TID(0); t < vt.TID(c.k); t++ {
		e.Svarint(int64(c.aclkOf(t)))
		e.Int32(int32(c.parOf(t)))
		e.Int32(int32(c.headOf(t)))
		e.Int32(int32(c.nxtOf(t)))
		e.Int32(int32(c.prvOf(t)))
	}
}

// loadLink decodes one tree link, rejecting anything outside
// [lo, k) so a restored tree can never index out of bounds: lo is
// notIn for parents and none for the sibling and child links.
func loadLink(d *ckpt.Dec, k int32, lo vt.TID) vt.TID {
	t := d.Int32()
	if t < int32(lo) || t >= k {
		d.Corruptf("tree link %d outside [%d, %d)", t, lo, k)
		return lo
	}
	return vt.TID(t)
}

// Load implements vt.Clock, replacing the clock's contents (Init must
// not have attached anything the caller wants to keep). Link fields
// are range-checked; structural garbage that survives the checksum
// yields a wrong clock, never a panic. Each pprev is rebuilt from the
// saved prv: the previous sibling's nxt slot, else the parent's head
// slot, else (roots and absent threads) the dummy.
func (c *TreeClock) Load(d *ckpt.Dec) {
	k := d.Int32()
	root := d.Int32()
	mode := Mode(d.U8())
	nodes := d.Int32()
	rev := d.U64()
	if d.Err() != nil {
		return
	}
	if k < 0 || int64(k) > 1<<26 {
		d.Corruptf("tree clock capacity %d out of range", k)
		return
	}
	if root < int32(none) || root >= k {
		d.Corruptf("tree clock root %d outside [-1, %d)", root, k)
		return
	}
	if nodes < 0 || nodes > k {
		d.Corruptf("tree clock node count %d outside [0, %d]", nodes, k)
		return
	}
	if mode > ModeDeepCopy {
		d.Corruptf("tree clock mode %d unknown", mode)
		return
	}
	clk := make([]vt.Time, k)
	for i := range clk {
		clk[i] = vt.Time(d.Svarint())
	}
	sh := make([]int32, (k+1)*stride)
	for t := vt.TID(0); t < vt.TID(k); t++ {
		r := sh[rec(t):][:stride]
		r[fAclk] = int32(d.Svarint())
		par := loadLink(d, k, notIn)
		r[fHead] = int32(loadLink(d, k, none))
		r[fNxt] = int32(loadLink(d, k, none))
		prv := loadLink(d, k, none)
		r[fPar] = int32(par)
		if prv != none {
			r[fPprev] = rec(prv) + fNxt
		} else if par >= 0 {
			r[fPprev] = rec(par) + fHead
		}
	}
	if d.Err() != nil {
		return
	}
	c.k, c.root, c.mode, c.nodes, c.rev = k, vt.TID(root), mode, nodes, rev
	c.clk, c.sh = clk, sh
}
