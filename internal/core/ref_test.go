package core

import (
	"fmt"

	"treeclock/internal/ckpt"
	"treeclock/internal/vt"
)

// refClock is the two-pass tree clock the single-walk kernel replaced:
// Algorithm 2 with a gather traversal that records every progressed
// node (unlinking it from the receiver as it goes) and an attach pass
// that pops the records and relinks them with a doubly-linked
// (head/nxt/prv) child list per node. It is kept verbatim in behaviour
// — including the stale sibling links a promoted root carries into a
// checkpoint — as the reference the equivalence test holds the
// production kernel to, shape for shape and counter for counter.
type refClock struct {
	k     int32
	root  vt.TID
	mode  Mode
	nodes int32
	clk   []vt.Time
	sh    []refShape
	stats *vt.WorkStats
}

type refShape struct {
	aclk                vt.Time
	par, head, nxt, prv vt.TID
}

// refRec is one gathered node: its new time and its place in the source.
type refRec struct {
	u, par    vt.TID
	clk, aclk vt.Time
}

var refAbsent = refShape{par: notIn, head: none, nxt: none, prv: none}

func newRef(k int, mode Mode, stats *vt.WorkStats) *refClock {
	c := &refClock{root: none, mode: mode, stats: stats}
	c.Grow(k)
	return c
}

func (c *refClock) Grow(k int) {
	for int(c.k) < k {
		c.clk = append(c.clk, 0)
		c.sh = append(c.sh, refAbsent)
		c.k++
	}
}

func (c *refClock) Init(t vt.TID) {
	c.Grow(int(t) + 1)
	c.root = t
	c.sh[t].par = none
	c.nodes++
}

func (c *refClock) Get(t vt.TID) vt.Time {
	if int(t) >= int(c.k) {
		return 0
	}
	return c.clk[t]
}

func (c *refClock) Inc(t vt.TID, d vt.Time) {
	c.clk[t] += d
	if c.stats != nil {
		c.stats.Entries++
		c.stats.Changed++
	}
}

func (c *refClock) ReleaseSlot(t vt.TID) {
	if int(t) < 0 || int(t) >= int(c.k) || c.sh[t].par == notIn {
		return
	}
	st := c.sh[t]
	last := st.head
	for v := st.head; v != none; v = c.sh[v].nxt {
		c.sh[v].par = st.par
		c.sh[v].aclk = st.aclk
		last = v
	}
	first := st.head
	if first == none {
		first, last = st.nxt, st.prv
	} else {
		c.sh[first].prv = st.prv
		c.sh[last].nxt = st.nxt
		if st.nxt != none {
			c.sh[st.nxt].prv = last
		}
	}
	if st.prv != none {
		c.sh[st.prv].nxt = first
	} else {
		c.sh[st.par].head = first
	}
	if st.head == none && st.nxt != none {
		c.sh[st.nxt].prv = st.prv
	}
	c.clk[t] = 0
	c.sh[t] = refAbsent
	c.nodes--
}

func (c *refClock) Join(o *refClock) {
	if o == c || o.root == none {
		return
	}
	zr := o.root
	if c.stats != nil {
		c.stats.Joins++
		c.stats.Entries++
	}
	if o.clk[zr] <= c.Get(zr) {
		return
	}
	if c.root == none {
		c.deepCopyFrom(o)
		return
	}
	c.Grow(int(o.k))
	s, _ := c.gatherDetach(o, none)
	c.attach(s)
	c.sh[zr].aclk = c.clk[c.root]
	c.pushChild(zr, c.root)
}

func (c *refClock) MonotoneCopy(o *refClock) {
	if o == c || o.root == none {
		return
	}
	if c.root == none || c.mode == ModeDeepCopy {
		c.deepCopyFrom(o)
		return
	}
	c.Grow(int(o.k))
	if c.stats != nil {
		c.stats.Copies++
	}
	oldRoot := c.root
	s, sawOldRoot := c.gatherDetach(o, oldRoot)
	c.attach(s)
	c.root = o.root
	if c.sh[c.root].par == notIn {
		c.nodes++
	}
	c.sh[c.root].par = none
	if !sawOldRoot && oldRoot != c.root {
		c.sh[oldRoot].aclk = c.clk[c.root]
		c.pushChild(oldRoot, c.root)
		if c.stats != nil {
			c.stats.ForcedRootAttach++
		}
	}
}

func (c *refClock) CopyCheckMonotone(o *refClock) bool {
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

// gatherDetach collects the progressed nodes of o in post-order,
// unlinking each from c; z (MonotoneCopy's old root) is gathered even
// when unprogressed. The result reports whether z was gathered.
func (c *refClock) gatherDetach(o *refClock, z vt.TID) ([]refRec, bool) {
	var s []refRec
	type frame struct {
		u, v, par vt.TID
		clk, aclk vt.Time
	}
	zr := o.root
	c.detach(zr)
	if z == zr {
		z = none
	}
	fs := []frame{{u: zr, v: o.sh[zr].head, par: none, clk: o.clk[zr]}}
outer:
	for len(fs) > 0 {
		f := &fs[len(fs)-1]
		u, v := f.u, f.v
		uclk := c.clk[u]
		for v != none {
			if c.stats != nil {
				c.stats.Entries++
			}
			vclk, ov := o.clk[v], o.sh[v]
			if c.clk[v] < vclk {
				c.detach(v)
				if v == z {
					z = none
				}
				if ov.head == none {
					s = append(s, refRec{u: v, par: u, clk: vclk, aclk: ov.aclk})
					v = ov.nxt
					continue
				}
				f.v = ov.nxt
				fs = append(fs, frame{u: v, v: ov.head, par: u, clk: vclk, aclk: ov.aclk})
				continue outer
			}
			if v == z {
				s = append(s, refRec{u: v, par: u, clk: vclk, aclk: ov.aclk})
				z = none
			}
			if c.mode != ModeNoIndirectBreak && ov.aclk <= uclk {
				break
			}
			v = ov.nxt
		}
		s = append(s, refRec{u: u, par: f.par, clk: f.clk, aclk: f.aclk})
		fs = fs[:len(fs)-1]
	}
	return s, z == none
}

func (c *refClock) detach(v vt.TID) {
	nv := &c.sh[v]
	if nv.par == notIn || v == c.root {
		return
	}
	if nv.prv == none {
		c.sh[nv.par].head = nv.nxt
	} else {
		c.sh[nv.prv].nxt = nv.nxt
	}
	if nv.nxt != none {
		c.sh[nv.nxt].prv = nv.prv
	}
}

func (c *refClock) attach(s []refRec) {
	for i := len(s) - 1; i >= 0; i-- {
		r := s[i]
		if c.stats != nil {
			c.stats.Entries++
			if c.clk[r.u] != r.clk {
				c.stats.Changed++
			}
		}
		c.clk[r.u] = r.clk
		if r.par != none {
			c.sh[r.u].aclk = r.aclk
			c.pushChild(r.u, r.par)
		}
	}
}

func (c *refClock) pushChild(u, p vt.TID) {
	if c.sh[u].par == notIn {
		c.nodes++
	}
	h := c.sh[p].head
	c.sh[u].par, c.sh[u].nxt, c.sh[u].prv = p, h, none
	if h != none {
		c.sh[h].prv = u
	}
	c.sh[p].head = u
}

func (c *refClock) deepCopyFrom(o *refClock) {
	c.Grow(int(o.k))
	if c.stats != nil {
		c.stats.Entries += uint64(c.k)
		for t := int32(0); t < c.k; t++ {
			if c.clk[t] != o.Get(vt.TID(t)) {
				c.stats.Changed++
			}
		}
	}
	c.root, c.nodes = o.root, o.nodes
	copy(c.clk, o.clk)
	copy(c.sh, o.sh)
	for t := int(o.k); t < int(c.k); t++ {
		c.clk[t] = 0
		c.sh[t] = refAbsent
	}
}

// Save writes the v2 checkpoint encoding of the clock.
func (c *refClock) Save(e *ckpt.Enc) {
	e.Int32(c.k)
	e.Int32(int32(c.root))
	e.U8(uint8(c.mode))
	e.Int32(c.nodes)
	e.U64(0) // the reference keeps no revision counter
	for i := 0; i < int(c.k); i++ {
		e.Svarint(int64(c.clk[i]))
	}
	for _, s := range c.sh {
		e.Svarint(int64(s.aclk))
		e.Int32(int32(s.par))
		e.Int32(int32(s.head))
		e.Int32(int32(s.nxt))
		e.Int32(int32(s.prv))
	}
}

// String renders the tree exactly like TreeClock.String.
func (c *refClock) String() string {
	if c.root == none {
		return "<empty>"
	}
	var out []byte
	var walk func(u vt.TID, depth int)
	walk = func(u vt.TID, depth int) {
		for i := 0; i < depth; i++ {
			out = append(out, ' ', ' ')
		}
		if u == c.root {
			out = append(out, fmt.Sprintf("(t%d, %d, _)\n", u, c.clk[u])...)
		} else {
			out = append(out, fmt.Sprintf("(t%d, %d, %d)\n", u, c.clk[u], c.sh[u].aclk)...)
		}
		for v := c.sh[u].head; v != none; v = c.sh[v].nxt {
			walk(v, depth+1)
		}
	}
	walk(c.root, 0)
	return string(out)
}
