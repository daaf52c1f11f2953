package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"treeclock/internal/ckpt"
	"treeclock/internal/vt"
)

// The equivalence test holds the single-walk kernel to the two-pass
// reference (ref_test.go): both run the same random protocol-correct
// trace, and after every operation each clock the operation touched
// must render the same tree, count the same nodes, encode the same
// checkpoint bytes and pass Validate, while the two WorkStats stay
// equal. The trace mixes everything that moves nodes: HB lock
// acquire/release over several locks, SHB last-write reads and
// (possibly non-monotone) writes, thread forks and joins with
// thread-slot reclamation, and capacity growth. Some seeds leave out
// growth or forks and joins, so the op mix varies too.
//
// The defensive old-root re-attach (ForcedRootAttach) is not ruled out
// here: the fork sequence of slot reclamation can reach it, and the
// two implementations must then agree on it as well.

// twin is one clock in both implementations.
type twin struct {
	c *TreeClock
	r *refClock
}

type equivRun struct {
	t        *testing.T
	rnd      *rand.Rand
	mode     Mode
	st, rst  vt.WorkStats
	threads  []twin // by slot; nil clocks for never-issued slots
	live     []bool
	retired  []bool
	locks    []twin
	holder   []int // lock → holding slot, -1 if free
	vars     []twin
	maxK     int
	noGrow   bool // leave out capacity growth
	noFork   bool // leave out forks and joins (slot reclamation)
	touched  []twin
	stepName string
}

func (e *equivRun) newTwin(k int) twin {
	c := New(k, &e.st)
	c.mode = e.mode
	return twin{c: c, r: newRef(k, e.mode, &e.rst)}
}

// spawn issues slot s to a new thread with an initialized clock.
func (e *equivRun) spawn(s int) twin {
	w := e.newTwin(1 + e.rnd.Intn(s+1))
	w.c.Init(vt.TID(s))
	w.r.Init(vt.TID(s))
	e.threads[s], e.live[s], e.retired[s] = w, true, false
	return w
}

func (e *equivRun) touch(ws ...twin) { e.touched = append(e.touched, ws...) }

func (e *equivRun) check(w twin) {
	e.t.Helper()
	if err := w.c.Validate(); err != nil {
		e.t.Fatalf("%s: invalid tree: %v\n%s", e.stepName, err, w.c)
	}
	if got, want := w.c.String(), w.r.String(); got != want {
		e.t.Fatalf("%s: shape diverges from the reference:\n%s\nwant:\n%s", e.stepName, got, want)
	}
	if got, want := w.c.NumNodes(), int(w.r.nodes); got != want {
		e.t.Fatalf("%s: NumNodes = %d, reference %d", e.stepName, got, want)
	}
	rev := w.c.rev
	w.c.rev = 0 // the reference keeps no revision counter
	got := saveBytes(w.c.Save)
	w.c.rev = rev
	if !bytes.Equal(got, saveBytes(w.r.Save)) {
		e.t.Fatalf("%s: checkpoint bytes diverge from the reference\n%s", e.stepName, w.c)
	}
	if e.st != e.rst {
		e.t.Fatalf("%s: WorkStats %+v, reference %+v", e.stepName, e.st, e.rst)
	}
}

// liveSlots lists the live thread slots.
func (e *equivRun) liveSlots() []int {
	var out []int
	for s, ok := range e.live {
		if ok {
			out = append(out, s)
		}
	}
	return out
}

func (e *equivRun) holds(s int) bool {
	for _, h := range e.holder {
		if h == s {
			return true
		}
	}
	return false
}

// step runs one event of a random live thread t.
func (e *equivRun) step() {
	ls := e.liveSlots()
	t := ls[e.rnd.Intn(len(ls))]
	ct := e.threads[t]
	ct.c.Inc(vt.TID(t), 1)
	ct.r.Inc(vt.TID(t), 1)
	e.touch(ct)
	switch op := e.rnd.Intn(9); op {
	case 0: // local event
		e.stepName += " local"
	case 1, 2: // acquire or release a lock
		l := e.rnd.Intn(len(e.locks))
		lk := e.locks[l]
		switch e.holder[l] {
		case -1:
			e.stepName += fmt.Sprintf(" acq(%d)", l)
			ct.c.Join(lk.c)
			ct.r.Join(lk.r)
			e.holder[l] = t
		case t:
			e.stepName += fmt.Sprintf(" rel(%d)", l)
			lk.c.MonotoneCopy(ct.c)
			lk.r.MonotoneCopy(ct.r)
			e.holder[l] = -1
		}
		e.touch(lk)
	case 3: // SHB read: C_t ⊔= LW_x
		x := e.vars[e.rnd.Intn(len(e.vars))]
		e.stepName += " read"
		ct.c.Join(x.c)
		ct.r.Join(x.r)
	case 4: // SHB write: LW_x ← C_t, monotone or not
		x := e.vars[e.rnd.Intn(len(e.vars))]
		e.stepName += " write"
		if a, b := x.c.CopyCheckMonotone(ct.c), x.r.CopyCheckMonotone(ct.r); a != b {
			e.t.Fatalf("%s: CopyCheckMonotone = %v, reference %v", e.stepName, a, b)
		}
		e.touch(x)
	case 5: // fork a fresh slot, or re-issue a retired one
		if e.noFork {
			break
		}
		if s := e.freeSlot(t); s >= 0 {
			e.stepName += fmt.Sprintf(" fork(%d, recycled)", s)
			cs := e.threads[s]
			ct.c.ReleaseSlot(vt.TID(s))
			ct.r.ReleaseSlot(vt.TID(s))
			cs.c.Join(ct.c)
			cs.r.Join(ct.r)
			ct.c.Join(cs.c)
			ct.r.Join(cs.r)
			e.live[s], e.retired[s] = true, false
			e.touch(cs)
		} else if s := len(e.liveSlots()) + e.countRetired(); s < e.maxK && e.threads[s].c == nil {
			e.stepName += fmt.Sprintf(" fork(%d)", s)
			cs := e.spawn(s)
			cs.c.Join(ct.c)
			cs.r.Join(ct.r)
			e.touch(cs)
		}
	case 6: // join a live thread holding no lock, then retire its slot
		u := ls[e.rnd.Intn(len(ls))]
		if e.noFork || u == t || e.holds(u) || len(ls) < 2 {
			break
		}
		e.stepName += fmt.Sprintf(" join(%d)", u)
		cu := e.threads[u]
		ct.c.Join(cu.c)
		ct.r.Join(cu.r)
		for x := 0; x < cu.c.K(); x++ {
			if x != u {
				cu.c.ReleaseSlot(vt.TID(x))
				cu.r.ReleaseSlot(vt.TID(x))
			}
		}
		e.live[u], e.retired[u] = false, true
		e.touch(cu)
	case 7, 8: // grow some clock's capacity
		if e.noGrow {
			break
		}
		all := append(append([]twin{}, e.locks...), e.vars...)
		for s := range e.threads {
			if e.threads[s].c != nil {
				all = append(all, e.threads[s])
			}
		}
		w := all[e.rnd.Intn(len(all))]
		k := w.c.K() + 1 + e.rnd.Intn(3)
		e.stepName += fmt.Sprintf(" grow(%d)", k)
		w.c.Grow(k)
		w.r.Grow(k)
		e.touch(w)
	}
}

// freeSlot returns a retired slot whose final time t's clock already
// knows (the engine's re-issue gate), or -1.
func (e *equivRun) freeSlot(t int) int {
	for s, ok := range e.retired {
		if ok && e.threads[t].c.Get(vt.TID(s)) >= e.threads[s].c.Get(vt.TID(s)) {
			return s
		}
	}
	return -1
}

func (e *equivRun) countRetired() int {
	n := 0
	for _, ok := range e.retired {
		if ok {
			n++
		}
	}
	return n
}

func TestJoinCopyMatchReference(t *testing.T) {
	for _, mode := range []Mode{ModeFull, ModeNoIndirectBreak, ModeDeepCopy} {
		for seed := int64(1); seed <= 32; seed++ {
			// The op mix comes from the seed, not the random stream,
			// so that adding a mix does not reshuffle the others' traces:
			// seed 12 of ModeFull is the one known trace that moves an
			// unprogressed old root right before a sibling break.
			rnd := rand.New(rand.NewSource(seed*31 + int64(mode)))
			e := &equivRun{t: t, rnd: rnd, mode: mode, maxK: 3 + rnd.Intn(10),
				noGrow: seed%2 == 0, noFork: seed%4 == 1}
			e.threads = make([]twin, e.maxK)
			e.live = make([]bool, e.maxK)
			e.retired = make([]bool, e.maxK)
			for s := 0; s < 2; s++ {
				e.spawn(s)
			}
			for i := 0; i < 1+rnd.Intn(4); i++ {
				e.locks = append(e.locks, e.newTwin(rnd.Intn(3)))
				e.holder = append(e.holder, -1)
			}
			for i := 0; i < 1+rnd.Intn(4); i++ {
				e.vars = append(e.vars, e.newTwin(rnd.Intn(3)))
			}
			for i := 0; i < 1500; i++ {
				e.stepName = fmt.Sprintf("mode %d seed %d step %d:", mode, seed, i)
				e.touched = e.touched[:0]
				e.step()
				for _, w := range e.touched {
					e.check(w)
				}
			}
		}
	}
}

// saveBytes frames one Save call as a checkpoint section.
func saveBytes(save func(*ckpt.Enc)) []byte {
	var buf bytes.Buffer
	e := ckpt.NewEnc(&buf)
	e.Begin("clock")
	save(e)
	e.End()
	return buf.Bytes()
}
