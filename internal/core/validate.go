package core

import (
	"fmt"

	"treeclock/internal/vt"
)

// Validate checks every structural invariant of the tree clock and
// returns a descriptive error for the first violation. It is O(k) and
// intended for tests (model-based and differential suites call it after
// every operation).
//
// Invariants:
//  1. An empty clock has no present nodes.
//  2. The root is present with parent == none.
//  3. Every present node is reachable from the root exactly once, and
//     no absent node appears in any child list (no cycles, no leaks).
//  4. Child lists are consistent hlists: each child's pprev is the
//     link slot that points at it, and its parent pointer matches.
//  5. Child lists are sorted by non-increasing attachment time, and no
//     attachment time exceeds the parent's current local time.
//  6. Absent nodes carry a zero local time (Get must report 0) and
//     point nxt and pprev at the dummy, so unlinking them is harmless.
func (c *TreeClock) Validate() error {
	present := 0
	for t := vt.TID(0); t < vt.TID(c.k); t++ {
		switch {
		case c.parOf(t) != notIn:
			present++
		case c.clk[t] != 0:
			return fmt.Errorf("absent thread %d has nonzero clk %d", t, c.clk[t])
		case c.nxtOf(t) != none || c.sh[rec(t)+fPprev] != 0:
			return fmt.Errorf("absent thread %d is linked (nxt %d, pprev %d)", t, c.nxtOf(t), c.sh[rec(t)+fPprev])
		}
	}
	if present != int(c.nodes) {
		return fmt.Errorf("incremental node count %d, but %d nodes present", c.nodes, present)
	}
	if c.root == none {
		if present != 0 {
			return fmt.Errorf("empty clock has %d present nodes", present)
		}
		return nil
	}
	if c.parOf(c.root) != none {
		return fmt.Errorf("root %d has parent %d", c.root, c.parOf(c.root))
	}
	seen := make([]bool, c.k)
	stack := []vt.TID{c.root}
	visited := 0
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[u] {
			return fmt.Errorf("thread %d reached twice (cycle or shared child)", u)
		}
		seen[u] = true
		visited++
		if visited > int(c.k) {
			return fmt.Errorf("traversal exceeded %d nodes (cycle)", c.k)
		}
		prev := none
		slot := rec(u) + fHead
		var prevAclk vt.Time
		for v := c.headOf(u); v != none; v = c.nxtOf(v) {
			if c.parOf(v) == notIn {
				return fmt.Errorf("absent thread %d linked as child of %d", v, u)
			}
			if c.parOf(v) != u {
				return fmt.Errorf("child %d of %d has parent %d", v, u, c.parOf(v))
			}
			if p := c.sh[rec(v)+fPprev]; p != slot {
				return fmt.Errorf("child %d of %d has pprev %d, want %d", v, u, p, slot)
			}
			if v == c.root {
				return fmt.Errorf("root %d appears in child list of %d", v, u)
			}
			if prev != none && c.aclkOf(v) > prevAclk {
				return fmt.Errorf("children of %d not in descending aclk order: %d (aclk %d) after %d (aclk %d)",
					u, v, c.aclkOf(v), prev, prevAclk)
			}
			if c.aclkOf(v) > c.clk[u] {
				return fmt.Errorf("child %d of %d attached at %d, beyond parent clock %d",
					v, u, c.aclkOf(v), c.clk[u])
			}
			prev, prevAclk, slot = v, c.aclkOf(v), rec(v)+fNxt
			stack = append(stack, v)
		}
	}
	if visited != present {
		return fmt.Errorf("%d nodes present but %d reachable from root", present, visited)
	}
	return nil
}
