package core

import "treeclock/internal/vt"

// This file implements the paper's Algorithm 2: Join, MonotoneCopy and
// CopyCheckMonotone. The pseudocode gathers the progressed nodes of the
// source, detaches them from the receiver and re-attaches them in
// source order (getUpdatedNodes*, detachNodes, attachNodes). Here the
// three steps are one iterative pre-order walk of the source that
// relinks each progressed node into the receiver as soon as it finds
// it: unlinked from its old child list, inserted after a cursor under
// its source parent, and given its new clk, aclk and parent. The
// cursor starts at the parent's head slot and advances past each
// insertion, so the relinked children lead the list in source
// (descending-aclk) order, ahead of the children the receiver kept —
// the list Algorithm 2's reverse-order pushChild builds. The walk reads
// only the source's links, so relinking as it goes cannot disturb it.
// It compares, relinks and counts exactly the nodes Algorithm 2 does;
// the reference-equivalence test pins shapes and WorkStats to the
// two-pass formulation.

// Join updates the clock to the pointwise maximum with o (c ← c ⊔ o).
//
// The traversal of o visits only nodes that may carry new information:
// it descends into a child only when that thread has progressed relative
// to c (direct monotonicity) and stops scanning a sibling list once an
// attachment time is already known to c (indirect monotonicity), so the
// cost is proportional to the entries being updated rather than Θ(k).
func (c *TreeClock) Join(o *TreeClock) {
	if o == c || o.root == none {
		return
	}
	zr := o.root
	if c.stats != nil {
		c.stats.Joins++
		c.stats.Entries++ // root progress test
	}
	if o.clk[zr] <= c.Get(zr) {
		// o's root has not progressed; by direct monotonicity
		// nothing in o is new (Algorithm 2, line 18).
		return
	}
	// Past the no-progress exit some foreign entry changes (zr ≠ this
	// clock's thread — see the panic below).
	c.rev++
	if c.root == none {
		// Joining into the zero vector time is a plain copy.
		c.deepCopyFrom(o)
		return
	}
	c.Grow(int(o.k))
	if zr == c.root {
		// Another clock claims a later local time for this clock's
		// own thread: knowledge of a thread always originates from
		// that thread's clock, so this cannot happen in a correct
		// protocol. Fail loudly rather than corrupt the tree.
		panic("core: Join source knows the receiver's own thread's future")
	}
	// The updated subtree goes under the root, at the front of its
	// child list: its attachment time is the current root time, the
	// largest so far, preserving the descending-aclk order.
	if c.parOf(zr) == notIn {
		c.nodes++
	}
	c.move(zr, c.root, rec(c.root)+fHead, c.clk[c.root])
	c.walk(o, none)
	if c.stats != nil {
		c.stats.Entries++
		c.stats.Changed++
	}
	if c.parOf(c.root) != none {
		// The walk found the receiver's own thread progressed deeper
		// in o: the same protocol violation as above.
		panic("core: Join source knows the receiver's own thread's future")
	}
}

// MonotoneCopy overwrites the clock with o, assuming this ⊑ o (Lemma 2
// guarantees the precondition at lock-release events). The traversal
// prunes exactly like Join; additionally the old root is repositioned so
// the new tree is rooted at o's thread.
func (c *TreeClock) MonotoneCopy(o *TreeClock) {
	if o == c || o.root == none {
		return
	}
	c.rev++
	if c.root == none || c.mode == ModeDeepCopy {
		c.deepCopyFrom(o)
		return
	}
	c.Grow(int(o.k))
	if c.stats != nil {
		c.stats.Copies++
	}
	oldRoot, zr := c.root, o.root
	z := none // the old root, while it still has to move
	if zr != oldRoot {
		// The old root is linked nowhere; point its links at the dummy
		// so the walk can unlink it like any other node. The new root
		// is unlinked from its list but keeps its own, now meaningless,
		// sibling links (see Save).
		z = oldRoot
		b := rec(oldRoot)
		c.sh[b+fNxt], c.sh[b+fPprev] = int32(none), 0
		c.unlink(rec(zr))
		if c.parOf(zr) == notIn {
			c.nodes++
		}
		c.sh[rec(zr)+fPar] = int32(none)
		c.root = zr
	}
	if c.stats != nil {
		c.stats.Entries++
		if c.clk[zr] != o.clk[zr] {
			c.stats.Changed++
		}
	}
	if c.walk(o, z) {
		// Defensive: the walk never visited the old root, which would
		// leave it dangling. Under the paper's protocols this cannot
		// happen (the old root is always reachable before any sibling
		// break — see Lemma 5); re-attach it conservatively under the
		// new root. An inflated attachment time only makes future
		// traversals prune less, never incorrectly.
		c.move(z, zr, rec(zr)+fHead, c.clk[zr])
		if c.stats != nil {
			c.stats.ForcedRootAttach++
		}
	}
}

// CopyCheckMonotone overwrites the clock with o without assuming
// monotonicity. The O(1) root test (direct monotonicity) decides
// whether the sublinear MonotoneCopy applies; otherwise it falls back to
// a full deep copy. The boolean result is false exactly when the copy
// was not monotone, which in the SHB algorithm signals a write-write
// race, bounding the number of deep copies by the number of such races.
func (c *TreeClock) CopyCheckMonotone(o *TreeClock) bool {
	if c.root == none || (o.root != none && c.clk[c.root] <= o.Get(c.root)) {
		c.MonotoneCopy(o)
		return true
	}
	if c.stats != nil {
		c.stats.DeepCopies++
	}
	c.deepCopyFrom(o)
	return false
}

// walk relinks into c every node of o that has progressed relative to
// c, in one pre-order traversal of o, and gives o's root its new time.
// The caller has already placed o's root. For MonotoneCopy, z names the
// old root, which moves to its place in o even when it has not
// progressed (Algorithm 2, line 67) and is not descended into then;
// Join passes none. The result reports whether z was left unvisited.
//
// The walk needs no stack. A node the walk descends into keeps its old
// receiver time until its child list is done — the time the
// indirect-monotonicity break compares against — and only then takes
// its new one; the walk then climbs to the node's parent in o and
// resumes after it.
func (c *TreeClock) walk(o *TreeClock, z vt.TID) bool {
	noBreak := c.mode == ModeNoIndirectBreak
	cclk, csh := c.clk, c.sh
	oclk, osh := o.clk, o.sh
	var examined, moved, same uint64

	zr := o.root
	u := zr
	v := vt.TID(osh[rec(u)+fHead])
	cur, uclk := rec(u)+fHead, cclk[u]
	for {
		if v == none {
			// u's child list is done: u takes its new time, and the
			// scan resumes in u's parent right after u. The parent is
			// read from c, where the descent wrote it, so even a
			// corrupt restored source cannot send the climb astray.
			cclk[u] = oclk[u]
			if u == zr {
				break
			}
			b := rec(u)
			v, cur = vt.TID(osh[b+fNxt]), b+fNxt
			u = vt.TID(csh[b+fPar])
			uclk = cclk[u]
			continue
		}
		examined++
		b := rec(v) // the same record index in both clocks
		vclk, vold := oclk[v], cclk[v]
		if vold < vclk || v == z {
			// v has progressed (or is the old root): unlink it from c
			// and insert it after the cursor under u. These are move's
			// stores, written out because the call (move is too big to
			// inline) costs about 15% of the kernel's time.
			n, p := csh[b+fNxt], csh[b+fPprev]
			csh[p] = n
			csh[rec(vt.TID(n))+fPprev] = p
			h := csh[cur]
			csh[b+fNxt] = h
			csh[rec(vt.TID(h))+fPprev] = b + fNxt
			csh[b+fPprev] = cur
			csh[cur] = int32(v)
			if csh[b+fPar] == int32(notIn) {
				c.nodes++
			}
			csh[b+fPar] = int32(u)
			csh[b+fAclk] = osh[b+fAclk]
			moved++
			cur = b + fNxt
			if v == z {
				z = none
			}
			if vold < vclk {
				if oh := vt.TID(osh[b+fHead]); oh != none {
					u, v, cur, uclk = v, oh, b+fHead, vold
					continue
				}
				cclk[v] = vclk
				v = vt.TID(osh[b+fNxt])
				continue
			}
			// An unprogressed old root keeps its subtree: no descent,
			// and the break test below still applies.
			if vold == vclk {
				same++
			}
			cclk[v] = vclk
		}
		if !noBreak && vt.Time(osh[b+fAclk]) <= uclk {
			// c already knows u at v's attachment time, so it knows
			// every later sibling too (indirect monotonicity): stop
			// scanning.
			v = none
		} else {
			v = vt.TID(osh[b+fNxt])
		}
	}
	if st := c.stats; st != nil {
		st.Entries += examined + moved
		st.Changed += moved - same
	}
	return z != none
}

// move relinks v as the child of p that follows link slot cur, attached
// at time aclk: unlink, insert and the parent fields are all stores.
// Node counting is the caller's.
func (c *TreeClock) move(v, p vt.TID, cur int32, aclk vt.Time) {
	b := rec(v)
	c.unlink(b)
	sh := c.sh
	h := sh[cur]
	sh[b+fNxt] = h
	sh[rec(vt.TID(h))+fPprev] = b + fNxt
	sh[b+fPprev] = cur
	sh[cur] = int32(v)
	sh[b+fPar] = int32(p)
	sh[b+fAclk] = int32(aclk)
}

// unlink removes the node whose record is at b from its child list,
// leaving the node's own links as they were. For absent nodes and
// cleared roots both stores land in the dummy record.
func (c *TreeClock) unlink(b int32) {
	sh := c.sh
	n, p := sh[b+fNxt], sh[b+fPprev]
	sh[p] = n
	sh[rec(vt.TID(n))+fPprev] = p
}

// deepCopyFrom overwrites c with a full structural copy of o in Θ(k).
// Used for copies into empty clocks (initialization) and as the
// non-monotone fallback of CopyCheckMonotone; only the fallback counts
// toward WorkStats.DeepCopies (§5.1 bounds it by write-write races).
// When the receiver's capacity exceeds the operand's, the tail entries
// are cleared (o represents 0 for every thread beyond its capacity).
func (c *TreeClock) deepCopyFrom(o *TreeClock) {
	c.rev++
	c.Grow(int(o.k))
	if c.stats != nil {
		c.stats.Entries += uint64(c.k)
		for t := int32(0); t < c.k; t++ {
			if c.clk[t] != o.Get(vt.TID(t)) {
				c.stats.Changed++
			}
		}
	}
	c.root = o.root
	c.nodes = o.nodes
	copy(c.clk, o.clk)
	copy(c.sh, o.sh)
	for t := vt.TID(o.k); t < vt.TID(c.k); t++ {
		c.clk[t] = 0
		c.clear(t)
	}
}

var _ vt.Clock[*TreeClock] = (*TreeClock)(nil)
