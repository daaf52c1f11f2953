// Package core implements the tree clock data structure, the primary
// contribution of the reproduced paper (ASPLOS 2022, Algorithm 2).
//
// A tree clock represents the same vector time as a vector clock, but
// stores it as a rooted tree: each node holds a thread's local time
// (clk) and the time its parent had when it learned that value (aclk,
// the attachment time). The tree records how knowledge was obtained
// transitively, which lets Join and MonotoneCopy skip the parts of the
// timestamp that cannot have changed:
//
//   - direct monotonicity: if a node has not progressed relative to the
//     target clock, none of its descendants have, so the whole subtree
//     is skipped;
//   - indirect monotonicity: children are kept in descending attachment
//     time, so as soon as a child's attachment time is already known to
//     the target, all later siblings are known too and scanning stops.
//
// Join and MonotoneCopy are one pre-order walk of the source that
// relinks each progressed node into the receiver the moment it finds
// it (join.go), so their cost is the entries they examine and change:
// no gather buffer, no second pass, no stack.
//
// The layout follows the paper's implementation note ("two arrays of
// length k"), at 24 bytes per thread. Timestamps live in a dense clk
// array indexed by thread id, exactly like a vector clock, so
// VectorView is free. The tree shape lives in one flat int32 array of
// five-field records, one per thread, behind a leading dummy record
// that stands for none. A record holds the attachment time, the
// parent, and hlist-style child links: head (first child), nxt (next
// sibling) and pprev, the index of the link slot that points at the
// node — its parent's head or its previous sibling's nxt. Because a
// missing neighbour is the dummy, unlinking and inserting a node are
// unconditional stores; absent nodes and Init roots point pprev at the
// dummy as well, so unlinking them is a harmless write into it.
//
// # The Grow contract
//
// The thread capacity k is a lower bound, not a fixed universe: Grow(k)
// appends zero entries to the clk array and absent (notIn) entries to
// the shape array, preserving the existing tree. Get on a thread at or
// beyond the capacity reports 0 (an unknown thread has the zero local
// time), and Join/MonotoneCopy/CopyCheckMonotone accept operands of any
// capacity, growing the receiver first when the operand is larger.
// Growth never changes the represented vector time, so engines can
// discover threads mid-trace (the streaming runtime in internal/engine
// relies on this) without invalidating any clock state.
package core

import (
	"fmt"

	"treeclock/internal/vt"
)

// Sentinels used in the link fields.
const (
	none  vt.TID = -1 // absent link / root parent (the dummy record)
	notIn vt.TID = -2 // parent of a thread not present in the tree
)

// Fields of one record in the shape array.
const (
	fHead  = iota // first child (largest aclk), none if leaf
	fNxt          // next sibling (smaller aclk), none at the end
	fPprev        // index in sh of the link slot pointing at this node
	fPar          // parent; none for the root, notIn if absent
	fAclk         // parent's time when this node was attached
	stride        // int32s per record
)

// rec returns the index of thread t's record in the shape array;
// rec(none) is the dummy record at index 0.
func rec(t vt.TID) int32 { return int32(t)*stride + stride }

// Mode selects an ablation variant of the data structure. The default
// (ModeFull) is the paper's algorithm; the other modes disable one of
// the two pruning ideas and exist only for the ablation benchmarks.
type Mode uint8

const (
	// ModeFull is the complete algorithm of the paper.
	ModeFull Mode = iota
	// ModeNoIndirectBreak disables the sibling early-break (indirect
	// monotonicity): joins and copies still skip unprogressed subtrees
	// but scan every sibling list to the end.
	ModeNoIndirectBreak
	// ModeDeepCopy replaces MonotoneCopy with a full O(k) structural
	// copy, isolating the benefit of the monotone copy optimization.
	ModeDeepCopy
)

// TreeClock is a tree clock over a fixed universe of k threads.
// It implements vt.Clock[*TreeClock].
//
// The zero vector time is represented by an empty tree (root == none);
// this is the state of auxiliary clocks (locks, variables) before their
// first MonotoneCopy, matching the paper's note that only thread clocks
// run Init.
type TreeClock struct {
	k     int32
	root  vt.TID
	mode  Mode
	nodes int32 // threads present in the tree, maintained on attach

	// clk holds the integer timestamps exactly like a vector clock
	// (hot, dense); sh holds the shape records, (k+1)*stride int32s
	// (see the package comment), touched only for nodes that move.
	clk []vt.Time
	sh  []int32

	// rev advances whenever a foreign entry may have changed (see
	// vt.Clock.Rev). Inc and Grow leave it alone: they never touch a
	// foreign entry.
	rev uint64

	stats *vt.WorkStats
}

// Rev implements vt.Clock. The counter is bumped by Join past its O(1)
// no-progress exit, and by every copy path; no-op joins — the common
// case on self-synchronizing workloads — leave it unchanged, which is
// what makes the weak-order snapshot's quiet-release fast path fire.
func (c *TreeClock) Rev() uint64 { return c.rev }

// New returns an empty tree clock over k threads (k may be 0 for a
// clock that grows on demand). If stats is non-nil, every operation
// accumulates work counters into it.
func New(k int, stats *vt.WorkStats) *TreeClock {
	if k < 0 {
		panic("core: tree clock needs a non-negative thread count")
	}
	c := &TreeClock{
		root:  none,
		clk:   make([]vt.Time, 0, k),
		sh:    make([]int32, stride, (k+1)*stride),
		stats: stats,
	}
	c.Grow(k)
	return c
}

// Factory returns a capacity-aware vt.Factory producing tree clocks
// sharing stats (which may be nil).
func Factory(stats *vt.WorkStats) vt.Factory[*TreeClock] {
	return func(k int) *TreeClock { return New(k, stats) }
}

// FactoryMode is Factory with an explicit ablation mode.
func FactoryMode(stats *vt.WorkStats, m Mode) vt.Factory[*TreeClock] {
	return func(k int) *TreeClock {
		c := New(k, stats)
		c.mode = m
		return c
	}
}

// K returns the current thread capacity.
func (c *TreeClock) K() int { return int(c.k) }

// Grow extends the thread capacity to at least k: the clk array gains
// zero entries and the shape array gains absent (notIn) entries, so the
// represented vector time is unchanged. Amortized O(1) per entry.
func (c *TreeClock) Grow(k int) {
	if k <= int(c.k) {
		return
	}
	c.clk = vt.GrowSlice(c.clk, k)
	c.sh = vt.GrowSlice(c.sh, (k+1)*stride)
	for t := vt.TID(c.k); t < vt.TID(k); t++ {
		c.clear(t)
	}
	c.k = int32(k)
}

// clear resets t's record to the absent state: no parent, no links,
// and pprev at the dummy, so an unconditional unlink is harmless.
func (c *TreeClock) clear(t vt.TID) {
	r := c.sh[rec(t):][:stride]
	r[fHead], r[fNxt], r[fPprev], r[fPar], r[fAclk] = int32(none), int32(none), 0, int32(notIn), 0
}

// Root returns the thread at the root, or vt.None for an empty clock.
func (c *TreeClock) Root() vt.TID { return c.root }

// Init makes the clock belong to thread t: t becomes the root with
// local time 0, growing the capacity to at least t+1. Only thread
// clocks are initialized (paper, Init note).
func (c *TreeClock) Init(t vt.TID) {
	if c.root != none {
		panic("core: Init on a non-empty tree clock")
	}
	c.Grow(int(t) + 1)
	c.root = t
	c.sh[rec(t)+fPar] = int32(none)
	c.nodes++
}

// Get returns the recorded local time of thread t in O(1) (Remark 1).
// Absent threads — including threads at or beyond the capacity — have
// time 0.
func (c *TreeClock) Get(t vt.TID) vt.Time {
	if int(t) >= int(c.k) {
		return 0
	}
	return c.clk[t]
}

// Inc adds d to the owning thread's local time. t must be the root
// thread (the engine's own thread); the parameter mirrors the vector
// clock signature.
func (c *TreeClock) Inc(t vt.TID, d vt.Time) {
	if t != c.root {
		panic("core: Inc on a thread that does not own this clock")
	}
	c.clk[t] += d
	if c.stats != nil {
		c.stats.Entries++
		c.stats.Changed++
	}
}

// ReleaseSlot implements vt.Clock: erase thread t's component, as if
// t had never been seen. Structurally the node is spliced out of the
// tree: its children are reattached to its parent, in place of t in
// the child list, all at t's own attachment time. That preserves both
// tree-clock invariants — the list stays in descending attachment
// order (t's neighbours bracket aclk(t)), and the pruning property
// holds inductively: any clock knowing t's parent at ≥ aclk(t) knew t
// at ≥ clk(t) (the property for t), hence knew each child v at
// ≥ clk(v) (the property for t's children, whose attachment times are
// ≤ clk(t)). Releasing the root (the owning thread) panics; absent or
// out-of-capacity slots are a no-op.
func (c *TreeClock) ReleaseSlot(t vt.TID) {
	if t < 0 || int(t) >= int(c.k) || c.parOf(t) == notIn {
		return
	}
	if t == c.root {
		panic("core: ReleaseSlot on the clock's own thread")
	}
	sh := c.sh
	b := rec(t)
	// tail is the link slot that must receive t's successor: t's own
	// slot for a leaf, else the last child's nxt.
	tail := sh[b+fPprev]
	if h := sh[b+fHead]; h != int32(none) {
		sh[tail] = h
		sh[rec(vt.TID(h))+fPprev] = tail
		for v := vt.TID(h); v != none; v = vt.TID(sh[rec(v)+fNxt]) {
			sh[rec(v)+fPar], sh[rec(v)+fAclk] = sh[b+fPar], sh[b+fAclk]
			tail = rec(v) + fNxt
		}
	}
	n := sh[b+fNxt]
	sh[tail] = n
	sh[rec(vt.TID(n))+fPprev] = tail
	c.clk[t] = 0
	c.clear(t)
	c.nodes--
	c.rev++
}

// LessEqFast reports whether this clock's vector time is ⊑ o's using
// only the root entry (O(1)). The test is valid for clocks maintained
// by a partial-order engine, where direct monotonicity (Lemma 3) makes
// the root entry decisive; it is not a general vector comparison — use
// Vector(...).LessEq for arbitrary clocks.
func (c *TreeClock) LessEqFast(o *TreeClock) bool {
	if c.root == none {
		return true
	}
	return c.clk[c.root] <= o.Get(c.root)
}

// Vector writes the represented vector time into dst and returns it.
func (c *TreeClock) Vector(dst vt.Vector) vt.Vector {
	copy(dst, c.clk)
	return dst
}

// VectorView returns the tree clock's flat mirror without copying:
// the clock maintains clk as an exact per-thread image of the tree, so
// the view is O(1). Valid only until the next mutation.
func (c *TreeClock) VectorView() []vt.Time { return c.clk }

// NumNodes returns how many threads are present in the tree. The count
// is maintained incrementally as nodes are attached and released, so
// the call is O(1) — it sits on stats paths that may run per event.
func (c *TreeClock) NumNodes() int { return int(c.nodes) }

// Shape accessors in thread-id terms, for the checkpoint codec,
// Validate, String and tests.
func (c *TreeClock) parOf(t vt.TID) vt.TID   { return vt.TID(c.sh[rec(t)+fPar]) }
func (c *TreeClock) headOf(t vt.TID) vt.TID  { return vt.TID(c.sh[rec(t)+fHead]) }
func (c *TreeClock) nxtOf(t vt.TID) vt.TID   { return vt.TID(c.sh[rec(t)+fNxt]) }
func (c *TreeClock) aclkOf(t vt.TID) vt.Time { return vt.Time(c.sh[rec(t)+fAclk]) }

// prvOf derives t's previous sibling from pprev: the node whose nxt
// slot points at t, or none when pprev is a head slot or the dummy.
func (c *TreeClock) prvOf(t vt.TID) vt.TID {
	p := c.sh[rec(t)+fPprev]
	if p%stride != fNxt {
		return none
	}
	return vt.TID(p/stride - 1)
}

// String renders the tree in (tid,clk,aclk) form, pre-order. The walk
// is iterative with an explicit stack, like every other traversal in
// this package, so degenerate chain-shaped trees of any depth render
// without growing the goroutine stack.
func (c *TreeClock) String() string {
	if c.root == none {
		return "<empty>"
	}
	var out []byte
	type strFrame struct {
		u     vt.TID
		depth int
	}
	stack := []strFrame{{c.root, 0}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for i := 0; i < f.depth; i++ {
			out = append(out, ' ', ' ')
		}
		if f.u == c.root {
			out = append(out, fmt.Sprintf("(t%d, %d, _)\n", f.u, c.clk[f.u])...)
		} else {
			out = append(out, fmt.Sprintf("(t%d, %d, %d)\n", f.u, c.clk[f.u], c.aclkOf(f.u))...)
		}
		// Push children in reverse sibling order so the pre-order visit
		// matches the child-list (descending-aclk) order.
		mark := len(stack)
		for v := c.headOf(f.u); v != none; v = c.nxtOf(v) {
			stack = append(stack, strFrame{v, f.depth + 1})
		}
		for i, j := mark, len(stack)-1; i < j; i, j = i+1, j-1 {
			stack[i], stack[j] = stack[j], stack[i]
		}
	}
	return string(out)
}
