package core

import (
	"fmt"
	"strings"
	"testing"

	"treeclock/internal/vt"
)

// recursiveString is the pre-iterative rendering, kept as the reference
// the iterative String must reproduce byte for byte.
func recursiveString(c *TreeClock) string {
	if c.root == none {
		return "<empty>"
	}
	var out []byte
	var rec func(u vt.TID, depth int)
	rec = func(u vt.TID, depth int) {
		for i := 0; i < depth; i++ {
			out = append(out, ' ', ' ')
		}
		if u == c.root {
			out = append(out, fmt.Sprintf("(t%d, %d, _)\n", u, c.clk[u])...)
		} else {
			out = append(out, fmt.Sprintf("(t%d, %d, %d)\n", u, c.clk[u], c.aclkOf(u))...)
		}
		for v := c.headOf(u); v != none; v = c.nxtOf(v) {
			rec(v, depth+1)
		}
	}
	rec(c.root, 0)
	return string(out)
}

// chainClock builds a degenerate chain-shaped clock of the given depth
// through the public protocol: thread i's clock joins thread i-1's, so
// each join hangs the previous chain under a new root. Only the final
// clock is returned.
func chainClock(depth int) *TreeClock {
	prev := New(0, nil)
	prev.Init(0)
	prev.Inc(0, 1)
	for t := 1; t < depth; t++ {
		c := New(0, nil)
		c.Init(vt.TID(t))
		c.Inc(vt.TID(t), 1)
		c.Join(prev)
		prev = c
	}
	return prev
}

// TestStringIterativeMatchesRecursive compares the iterative rendering
// against the recursive reference over assorted shapes.
func TestStringIterativeMatchesRecursive(t *testing.T) {
	shapes := map[string]*TreeClock{
		"empty": New(4, nil),
		"chain": chainClock(40),
	}
	single := New(3, nil)
	single.Init(1)
	single.Inc(1, 7)
	shapes["single"] = single
	// A bushy shape: several independent clocks joined into one root.
	star := New(0, nil)
	star.Init(0)
	star.Inc(0, 1)
	for u := 1; u < 8; u++ {
		o := New(0, nil)
		o.Init(vt.TID(u))
		o.Inc(vt.TID(u), vt.Time(u))
		star.Inc(0, 1)
		star.Join(o)
	}
	shapes["star"] = star
	for name, c := range shapes {
		if got, want := c.String(), recursiveString(c); got != want {
			t.Errorf("%s: iterative String diverges:\n%s\nvs recursive:\n%s", name, got, want)
		}
		if name != "empty" {
			if err := c.Validate(); err != nil {
				t.Errorf("%s: invalid clock: %v", name, err)
			}
		}
	}
}

// TestStringDeepChain renders a degenerate chain deep enough that a
// stack-recursive walk would be risky on adversarial inputs; the
// iterative walk must produce one line per node at strictly increasing
// depth.
func TestStringDeepChain(t *testing.T) {
	const depth = 2000
	c := chainClock(depth)
	if err := c.Validate(); err != nil {
		t.Fatalf("chain clock invalid: %v", err)
	}
	if c.NumNodes() != depth {
		t.Fatalf("NumNodes = %d, want %d", c.NumNodes(), depth)
	}
	s := c.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != depth {
		t.Fatalf("rendered %d lines, want %d", len(lines), depth)
	}
	for i, line := range lines {
		indent := 0
		for indent < len(line) && line[indent] == ' ' {
			indent++
		}
		if indent != 2*i {
			t.Fatalf("line %d indented %d spaces, want %d (not a chain?)", i, indent, 2*i)
		}
		want := fmt.Sprintf("(t%d, 1, ", depth-1-i)
		if !strings.HasPrefix(line[indent:], want) {
			t.Fatalf("line %d = %q, want prefix %q", i, line[indent:], want)
		}
	}
}

// TestNumNodesIncremental walks a clock through the operations that
// attach nodes and checks the O(1) count against a direct scan of the
// shape array at every step.
func TestNumNodesIncremental(t *testing.T) {
	scan := func(c *TreeClock) int {
		n := 0
		for t := vt.TID(0); t < vt.TID(c.k); t++ {
			if c.parOf(t) != notIn {
				n++
			}
		}
		return n
	}
	check := func(label string, c *TreeClock, want int) {
		t.Helper()
		if got := c.NumNodes(); got != want || got != scan(c) {
			t.Fatalf("%s: NumNodes = %d, scan = %d, want %d", label, got, scan(c), want)
		}
	}
	a := New(0, nil)
	check("empty", a, 0)
	a.Init(0)
	a.Inc(0, 1)
	check("init", a, 1)
	b := New(0, nil)
	b.Init(1)
	b.Inc(1, 1)
	a.Join(b)
	check("join new", a, 2)
	b.Inc(1, 1)
	a.Join(b)
	check("join existing", a, 2) // re-attach must not double count
	// MonotoneCopy into an empty clock (deep copy path).
	lock := New(0, nil)
	lock.MonotoneCopy(a)
	check("copy into empty", lock, 2)
	// MonotoneCopy where the receiver's root is new to the source's
	// tree exercise the root-repositioning path.
	c := New(0, nil)
	c.Init(2)
	c.Inc(2, 1)
	a.Inc(0, 1)
	a.Join(c)
	check("join third", a, 3)
	c.MonotoneCopy(a)
	check("monotone copy", c, 3)
	d := New(0, nil)
	d.Init(3)
	d.Inc(3, 1)
	d.CopyCheckMonotone(a) // non-monotone: falls back to deep copy
	check("non-monotone copy", d, scan(d))
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}
