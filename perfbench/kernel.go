package main

import (
	"fmt"
	"slices"
	"time"

	"treeclock/internal/ckpt"
	"treeclock/internal/core"
	"treeclock/internal/engine"
	"treeclock/internal/trace"
	"treeclock/internal/vc"
	"treeclock/internal/vt"
)

// Kernel replay: an engine runs once over clocks wrapped in logClock,
// which records every state-changing clock call with its operand ids.
// Replaying the log against fresh clocks repeats exactly the kernel
// work of the run, without the runtime, the semantics plugin or the
// detector around it.

// Clock operations in a log word: the top 4 bits are the operation,
// then two 30-bit operands. Clock ids count Factory calls from 0.
const (
	opFactory   = iota // a = new clock id, b = capacity
	opInit             // a = clock, b = thread
	opGrow             // a = clock, b = capacity
	opInc              // a = clock, b = thread; the runtime always adds 1
	opJoin             // a = receiver, b = operand
	opCopy             // MonotoneCopy: a = receiver, b = operand
	opCopyCheck        // CopyCheckMonotone: a = receiver, b = operand
)

const operandMask = 1<<30 - 1

// opLog is one run's clock-operation log.
type opLog struct {
	ops    []uint64
	clocks uint32
}

func (l *opLog) put(op uint64, a, b uint32) {
	if a > operandMask || b > operandMask {
		panic(fmt.Sprintf("perfbench: clock operand out of log range (%d, %d)", a, b))
	}
	l.ops = append(l.ops, op<<60|uint64(a)<<30|uint64(b))
}

func decodeOp(w uint64) (op uint64, a, b uint32) {
	return w >> 60, uint32(w>>30) & operandMask, uint32(w) & operandMask
}

// logClock wraps a clock and records its state-changing calls.
type logClock[C vt.Clock[C]] struct {
	id  uint32
	in  C
	log *opLog
}

// logFactory wraps f so that every clock it makes records into log.
func logFactory[C vt.Clock[C]](f vt.Factory[C], log *opLog) vt.Factory[*logClock[C]] {
	return func(k int) *logClock[C] {
		c := &logClock[C]{id: log.clocks, in: f(k), log: log}
		log.put(opFactory, c.id, uint32(k))
		log.clocks++
		return c
	}
}

func (c *logClock[C]) Init(t vt.TID) {
	c.log.put(opInit, c.id, uint32(t))
	c.in.Init(t)
}

func (c *logClock[C]) Inc(t vt.TID, d vt.Time) {
	if d != 1 {
		panic("perfbench: the log records unit increments only")
	}
	c.log.put(opInc, c.id, uint32(t))
	c.in.Inc(t, d)
}

func (c *logClock[C]) Grow(k int) {
	c.log.put(opGrow, c.id, uint32(k))
	c.in.Grow(k)
}

func (c *logClock[C]) Join(o *logClock[C]) {
	c.log.put(opJoin, c.id, o.id)
	c.in.Join(o.in)
}

func (c *logClock[C]) MonotoneCopy(o *logClock[C]) {
	c.log.put(opCopy, c.id, o.id)
	c.in.MonotoneCopy(o.in)
}

func (c *logClock[C]) CopyCheckMonotone(o *logClock[C]) bool {
	c.log.put(opCopyCheck, c.id, o.id)
	return c.in.CopyCheckMonotone(o.in)
}

// ReleaseSlot is unreachable: recorded runs never reclaim slots.
func (c *logClock[C]) ReleaseSlot(vt.TID) {
	panic("perfbench: slot reclamation in a recorded run")
}

func (c *logClock[C]) Get(t vt.TID) vt.Time           { return c.in.Get(t) }
func (c *logClock[C]) Vector(dst vt.Vector) vt.Vector { return c.in.Vector(dst) }
func (c *logClock[C]) VectorView() []vt.Time          { return c.in.VectorView() }
func (c *logClock[C]) Rev() uint64                    { return c.in.Rev() }

// Save and Load pass through unlogged: recorded runs never restore.
func (c *logClock[C]) Save(e *ckpt.Enc) { c.in.Save(e) }
func (c *logClock[C]) Load(d *ckpt.Dec) { c.in.Load(d) }

// recording is one engine run over logging clocks.
type recording struct {
	log   opLog
	stats vt.WorkStats // the run's own work counters
	final []vt.Vector  // every thread clock's final vector time
}

// record runs the order's engine (analysis on, as in an end-to-end
// pass) over tr with logging clocks wrapping f's, counting work into
// the recording's WorkStats.
func record[C vt.Clock[C]](order string, f func(*vt.WorkStats) vt.Factory[C], tr *trace.Trace) (*recording, error) {
	rec := &recording{}
	rec.log.ops = make([]uint64, 0, 2*tr.Len())
	rt := newRuntime(order, logFactory(f(&rec.stats), &rec.log), true)
	if err := rt.ProcessSource(trace.NewReplayer(tr)); err != nil {
		return nil, err
	}
	rec.final = threadVectors(rt)
	return rec, nil
}

// threadVectors snapshots the runtime's thread clocks.
func threadVectors[C vt.Clock[C]](rt *engine.Runtime[C]) []vt.Vector {
	k := rt.Threads()
	out := make([]vt.Vector, k)
	for t := range out {
		out[t] = rt.Timestamp(vt.TID(t), vt.NewVector(k))
	}
	return out
}

// finalVectors returns the vector time of each thread's clock after a
// replay: thread t's clock is the one the log initialized for t.
func finalVectors[C vt.Clock[C]](ops []uint64, cs []C, k int) []vt.Vector {
	out := make([]vt.Vector, k)
	for _, w := range ops {
		if op, a, b := decodeOp(w); op == opInit && int(b) < k {
			out[b] = cs[a].Vector(vt.NewVector(k))
		}
	}
	return out
}

// checkReplay replays rec with work counting and requires the recorded
// run's final thread vector times and WorkStats exactly. It returns the
// replay's counters.
func checkReplay[C vt.Clock[C]](rec *recording, replay func([]uint64, uint32, *vt.WorkStats) []C) (vt.WorkStats, error) {
	var st vt.WorkStats
	cs := replay(rec.log.ops, rec.log.clocks, &st)
	got := finalVectors(rec.log.ops, cs, len(rec.final))
	for t := range rec.final {
		if !slices.Equal(got[t], rec.final[t]) {
			return st, fmt.Errorf("replayed thread %d ends at %v, recorded %v", t, got[t], rec.final[t])
		}
	}
	if st != rec.stats {
		return st, fmt.Errorf("replayed work %v, recorded %v", &st, &rec.stats)
	}
	return st, nil
}

// The replays below apply a log to fresh clocks counting into st (nil
// for timing) and return them by id. They are written out per clock
// type so that the timed loop makes direct calls, with nothing between
// the log and the kernel but the decode emptyReplay also pays.

func replayTree(ops []uint64, clocks uint32, st *vt.WorkStats) []*core.TreeClock {
	cs := make([]*core.TreeClock, 0, clocks)
	for _, w := range ops {
		op, a, b := decodeOp(w)
		switch op {
		case opFactory:
			cs = append(cs, core.New(int(b), st))
		case opInit:
			cs[a].Init(vt.TID(b))
		case opGrow:
			cs[a].Grow(int(b))
		case opInc:
			cs[a].Inc(vt.TID(b), 1)
		case opJoin:
			cs[a].Join(cs[b])
		case opCopy:
			cs[a].MonotoneCopy(cs[b])
		case opCopyCheck:
			cs[a].CopyCheckMonotone(cs[b])
		}
	}
	return cs
}

func replayVC(ops []uint64, clocks uint32, st *vt.WorkStats) []*vc.VectorClock {
	cs := make([]*vc.VectorClock, 0, clocks)
	for _, w := range ops {
		op, a, b := decodeOp(w)
		switch op {
		case opFactory:
			cs = append(cs, vc.New(int(b), st))
		case opInit:
			cs[a].Init(vt.TID(b))
		case opGrow:
			cs[a].Grow(int(b))
		case opInc:
			cs[a].Inc(vt.TID(b), 1)
		case opJoin:
			cs[a].Join(cs[b])
		case opCopy:
			cs[a].MonotoneCopy(cs[b])
		case opCopyCheck:
			cs[a].CopyCheckMonotone(cs[b])
		}
	}
	return cs
}

// emptyReplay decodes the log and dispatches on it without touching a
// clock; its time is subtracted from the timed replays.
func emptyReplay(ops []uint64) uint64 {
	var sum uint64
	for _, w := range ops {
		op, a, b := decodeOp(w)
		switch op {
		case opFactory, opInit, opGrow, opInc:
			sum += uint64(a)
		default:
			sum += uint64(b)
		}
	}
	return sum
}

// opTimes is the per-operation split of a replay: time spent inside
// Join and inside the two copy operations, with the timer's own cost
// removed.
type opTimes struct {
	joinNs, copyNs float64
	joins, copies  int
}

// timeOps replays the log against fresh clocks from f and times every
// Join, MonotoneCopy and CopyCheckMonotone call individually. The
// timer's cost is measured in place: every Inc is followed by an empty
// timed region, and the mean of those is subtracted per timed call.
func timeOps[C vt.Clock[C]](ops []uint64, clocks uint32, f vt.Factory[C]) opTimes {
	cs := make([]C, 0, clocks)
	var (
		out                  opTimes
		joinD, copyD, emptyD time.Duration
		empties              int
	)
	for _, w := range ops {
		op, a, b := decodeOp(w)
		switch op {
		case opFactory:
			cs = append(cs, f(int(b)))
		case opInit:
			cs[a].Init(vt.TID(b))
		case opGrow:
			cs[a].Grow(int(b))
		case opInc:
			cs[a].Inc(vt.TID(b), 1)
			t0 := time.Now()
			emptyD += time.Since(t0)
			empties++
		case opJoin:
			t0 := time.Now()
			cs[a].Join(cs[b])
			joinD += time.Since(t0)
			out.joins++
		case opCopy:
			t0 := time.Now()
			cs[a].MonotoneCopy(cs[b])
			copyD += time.Since(t0)
			out.copies++
		case opCopyCheck:
			t0 := time.Now()
			cs[a].CopyCheckMonotone(cs[b])
			copyD += time.Since(t0)
			out.copies++
		}
	}
	timer := float64(emptyD) / float64(max(empties, 1))
	out.joinNs = float64(joinD) - timer*float64(out.joins)
	out.copyNs = float64(copyD) - timer*float64(out.copies)
	return out
}
