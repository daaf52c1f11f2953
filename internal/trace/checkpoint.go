package trace

// Source checkpointing and fault injection
//
// Crash-safe analysis needs the decode frontier in the checkpoint, not
// just the engine state: a resumed run must re-read the trace from the
// exact byte the interrupted run had consumed up to, with the interner
// tables (text) or the header bookkeeping (binary) restored so every
// later event decodes to the identical identifiers. Each source
// serializes the *delivered* position — total bytes read from the
// underlying reader minus the bytes still sitting undelivered in the
// window — so buffered-but-unprocessed input is re-read on resume and
// no event is lost or duplicated.
//
// Stateful wrappers (Validator) serialize outermost-first: each writes
// its own section, then delegates inward, and restore consumes the
// sections in the same order. Pure observers and test scaffolding
// (progress sources, CrashSource) write no section at all, so a
// checkpoint's bytes are independent of reporting flags and fault
// injection — one taken under -progress resumes without it (counters
// re-seed from the restored position) and resume never needs the
// injector.

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"

	"treeclock/internal/ckpt"
	"treeclock/internal/vt"
)

// CheckpointableSource is an EventSource whose decode state can be
// visited in a checkpoint and later restored over a fresh reader of the
// same input. CheckpointSource visits one or more sections; a load
// consumes exactly those sections and, for reader-backed sources, skips
// the already-delivered prefix of the fresh underlying reader. On a
// load error the source must be discarded.
type CheckpointableSource interface {
	EventSource
	CheckpointSource(c *ckpt.Codec) error
}

// errNotCheckpointable reports a wrapped source without checkpoint
// support.
func errNotCheckpointable(src EventSource) error {
	return fmt.Errorf("trace: source %T does not support checkpointing", src)
}

// checkpointInner delegates to a wrapped source.
func checkpointInner(src EventSource, c *ckpt.Codec) error {
	cs, ok := src.(CheckpointableSource)
	if !ok {
		return errNotCheckpointable(src)
	}
	return cs.CheckpointSource(c)
}

// checkpoint visits one interner table: the id counter, the
// direct-index prefix, the map-interned names in id order and the
// nonzero slots of the direct-index array (canonical names live only in
// the array, so the two encodings together are the whole table), then
// the eviction state. A load replaces everything but the configured
// cap, and requires ids in the strictly increasing order a save writes
// (so a re-saved table is byte-identical).
func (in *intern) checkpoint(c *ckpt.Codec) {
	c.Int32(&in.count)
	c.U8(&in.fastPrefix)
	if !c.Check(in.count >= 0, "negative interner count %d", in.count) {
		return
	}
	type named struct {
		id   int32
		name string
	}
	type slot struct {
		idx int
		v   int32
	}
	var names []named
	var slots []slot
	if !c.Loading() {
		for name, id := range in.ids {
			names = append(names, named{id, name})
		}
		slices.SortFunc(names, func(a, b named) int { return cmp.Compare(a.id, b.id) })
		for i, v := range in.fast {
			if v != 0 {
				slots = append(slots, slot{i, v})
			}
		}
	}
	ckpt.Slice(c, &names, 2)
	if c.Loading() {
		in.ids = make(map[string]int32, len(names))
	}
	prev := int32(-1)
	for i := range names {
		c.Int32(&names[i].id)
		c.String(&names[i].name)
		if !c.Check(names[i].id > prev && names[i].id < in.count, "interned id out of order") {
			return
		}
		prev = names[i].id
		if c.Loading() {
			in.ids[names[i].name] = names[i].id
		}
	}
	nf := len(in.fast)
	c.Count(&nf)
	if !c.Check(nf <= fastLimit, "fast table length %d exceeds %d", nf, fastLimit) || !ckpt.Slice(c, &slots, 2) {
		return
	}
	if c.Loading() {
		in.fast = nil
		if nf > 0 {
			in.fast = make([]int32, nf)
		}
	}
	previ := -1
	for i := range slots {
		sl := &slots[i]
		c.Count(&sl.idx)
		c.Int32(&sl.v)
		if !c.Check(sl.idx > previ && sl.idx < nf && sl.v > 0 && sl.v <= in.count, "fast table entry out of range") {
			return
		}
		previ = sl.idx
		in.fast[sl.idx] = sl.v
	}
	// Eviction state (SetInternCap): the recency ticks are behavioural
	// state — they steer future evictions — so a resumed run needs them
	// to evict the same names the uninterrupted run would. The cap is
	// scanner configuration, not checkpoint state: a checkpoint taken
	// with eviction on carries recency tables and must resume with a cap
	// (and vice versa).
	evict := in.last != nil
	c.Bool(&evict)
	if !c.Check(evict == (in.cap > 0), "intern-cap configuration mismatch (checkpoint eviction %v, scanner cap %d)", evict, in.cap) || !evict {
		return
	}
	c.Uvarint(&in.tick)
	c.U64(&in.evictions)
	if c.Loading() {
		in.names = make(map[int32]string, len(in.ids))
		for name, id := range in.ids {
			in.names[id] = name
		}
	}
	// Every recency entry names an interned id and the counts match, so
	// every interned id has exactly one entry.
	ckpt.Map(c, &in.last, 2, func(c *ckpt.Codec, id *int32, tk *uint64) {
		c.Int32(id)
		c.Uvarint(tk)
		_, named := in.names[*id]
		c.Check(named && *tk <= in.tick, "recency entry for an unknown id or beyond the tick")
	})
	c.Check(len(in.last) == len(in.ids), "recency table of %d entries for %d interned names", len(in.last), len(in.ids))
}

// resume fast-forwards a reader-backed source's fresh input past the
// off bytes a checkpoint had delivered.
func resume(r io.Reader, consumed *int64, off int64) error {
	if m, err := io.CopyN(io.Discard, r, off); err != nil {
		return fmt.Errorf("trace: resume: input ends after %d of %d checkpointed bytes: %w", m, off, err)
	}
	*consumed = off
	return nil
}

// CheckpointSource implements CheckpointableSource: the delivered byte
// offset, the line counter and the three interner tables. A load runs
// over a fresh reader of the same input: the already-delivered prefix
// is skipped and decoding resumes at the first unconsumed line.
func (s *Scanner) CheckpointSource(c *ckpt.Codec) error {
	c.Begin("scanner")
	off, line := s.consumed-int64(s.end-s.pos), uint64(s.line)
	c.Svarint(&off)
	c.Check(off >= 0, "negative stream offset %d", off)
	c.Uvarint(&line)
	s.threads.checkpoint(c)
	s.locks.checkpoint(c)
	s.vars.checkpoint(c)
	c.End()
	if err := c.Err(); err != nil || !c.Loading() {
		return err
	}
	s.pos, s.end, s.line = 0, 0, int(line)
	s.eof, s.readErr, s.empty, s.err = false, nil, 0, nil
	return resume(s.r, &s.consumed, off)
}

// CheckpointSource implements CheckpointableSource: the delivered byte
// offset (header included) plus the decoded header and event counters.
// A load restores the header from the checkpoint, not by re-reading
// it: the skipped prefix already covers its bytes.
func (s *BinaryScanner) CheckpointSource(c *ckpt.Codec) error {
	c.Begin("binscanner")
	off := s.consumed - int64(s.end-s.pos)
	c.Svarint(&off)
	c.Check(off >= 0, "negative stream offset %d", off)
	c.Bool(&s.started)
	c.String(&s.meta.Name)
	c.Int(&s.meta.Threads)
	c.Int(&s.meta.Locks)
	c.Int(&s.meta.Vars)
	c.Check(s.meta.Threads >= 0 && s.meta.Locks >= 0 && s.meta.Vars >= 0,
		"negative header field (%d threads, %d locks, %d vars)", s.meta.Threads, s.meta.Locks, s.meta.Vars)
	c.U64(&s.total)
	c.U64(&s.read)
	c.Check(s.read <= s.total, "read count %d exceeds declared total %d", s.read, s.total)
	c.End()
	if err := c.Err(); err != nil || !c.Loading() {
		return err
	}
	s.pos, s.end = 0, 0
	s.eof, s.rerr, s.err = false, nil, nil
	return resume(s.r, &s.consumed, off)
}

// CheckpointSource implements CheckpointableSource: the replay cursor.
// A load requires the Replayer to wrap the same trace the checkpointed
// one did.
func (r *Replayer) CheckpointSource(c *ckpt.Codec) error {
	c.Begin("replayer")
	pos := uint64(r.pos)
	c.Uvarint(&pos)
	c.Check(pos <= uint64(len(r.tr.Events)), "replay position %d beyond trace length %d", pos, len(r.tr.Events))
	c.End()
	if c.Err() == nil {
		r.pos = int(pos)
	}
	return c.Err()
}

// CheckpointSource implements CheckpointableSource: the discipline
// state (lock holders, thread lifecycle bits, event index), then the
// wrapped source.
func (v *Validator) CheckpointSource(c *ckpt.Codec) error {
	if _, ok := v.src.(CheckpointableSource); !ok {
		return errNotCheckpointable(v.src)
	}
	c.Begin("validator")
	c.U64(&v.idx)
	ckpt.Slice(c, &v.holder, 1)
	for i := range v.holder {
		c.Int32In((*int32)(&v.holder[i]), int32(vt.None), vt.MaxID, "lock holder")
	}
	ckpt.Slice(c, &v.started, 3)
	if c.Loading() {
		v.forked, v.joined = make([]bool, len(v.started)), make([]bool, len(v.started))
	}
	for i := range v.started {
		c.Bool(&v.started[i])
		c.Bool(&v.forked[i])
		c.Bool(&v.joined[i])
	}
	c.End()
	if err := c.Err(); err != nil {
		return err
	}
	v.err = nil
	return checkpointInner(v.src, c)
}

// CheckpointSource implements CheckpointableSource by pure delegation:
// progress reporting is an observer, so it contributes no section of
// its own and checkpoint bytes are identical with or without it — a
// checkpoint written under -progress resumes without it and vice
// versa. The counters are re-derived from the restored trace position
// (see progressState.StartAt).
func (p *progressSource) CheckpointSource(c *ckpt.Codec) error {
	return checkpointInner(p.src, c)
}

// ErrInjectedCrash is the error a CrashSource reports when it cuts the
// stream at its kill point. The crash-equivalence harness treats it as
// the simulated process death.
var ErrInjectedCrash = errors.New("trace: injected crash")

// CrashSource delivers events from src until exactly `after` events
// have passed through, then fails with ErrInjectedCrash — a
// deterministic stand-in for a process dying mid-analysis, used by the
// crash-equivalence harness to kill a run at every batch boundary. It
// delegates checkpointing straight to the wrapped source without a
// section of its own, so checkpoints written under fault injection are
// byte-identical to uninjected ones and resume never involves the
// injector.
type CrashSource struct {
	src       EventSource
	remaining uint64
	killed    bool
}

// NewCrashSource wraps src with a fault injector that cuts the stream
// after exactly `after` delivered events.
func NewCrashSource(src EventSource, after uint64) *CrashSource {
	return &CrashSource{src: src, remaining: after}
}

// Next implements EventSource.
func (c *CrashSource) Next() (Event, bool) {
	if c.killed {
		return Event{}, false
	}
	if c.remaining == 0 {
		c.killed = true
		return Event{}, false
	}
	ev, ok := c.src.Next()
	if ok {
		c.remaining--
	}
	return ev, ok
}

// NextBatch implements BatchSource, truncating the batch that reaches
// the kill point so every counted event is still delivered.
func (c *CrashSource) NextBatch(buf []Event) (int, bool) {
	if c.killed {
		return 0, false
	}
	if c.remaining == 0 {
		c.killed = true
		return 0, false
	}
	if uint64(len(buf)) > c.remaining {
		buf = buf[:c.remaining]
	}
	n, ok := ReadBatch(c.src, buf)
	c.remaining -= uint64(n)
	return n, ok
}

// Err implements EventSource: ErrInjectedCrash once the kill point is
// reached, the wrapped source's error otherwise.
func (c *CrashSource) Err() error {
	if c.killed {
		return ErrInjectedCrash
	}
	return c.src.Err()
}

// CheckpointSource implements CheckpointableSource by pure delegation.
func (c *CrashSource) CheckpointSource(cc *ckpt.Codec) error {
	return checkpointInner(c.src, cc)
}

// SetInternCap delegates InternCapable to the wrapped source (a no-op
// when it has no interner), so fault-injected runs can bound the
// interner exactly like uninjected ones.
func (c *CrashSource) SetInternCap(n int) {
	if ic, ok := c.src.(InternCapable); ok {
		ic.SetInternCap(n)
	}
}

// InternStats delegates InternCapable to the wrapped source.
func (c *CrashSource) InternStats() (live int, evictions uint64) {
	if ic, ok := c.src.(InternCapable); ok {
		return ic.InternStats()
	}
	return 0, 0
}

var (
	_ CheckpointableSource = (*Scanner)(nil)
	_ CheckpointableSource = (*BinaryScanner)(nil)
	_ CheckpointableSource = (*Replayer)(nil)
	_ CheckpointableSource = (*Validator)(nil)
	_ CheckpointableSource = (*progressSource)(nil)
	_ CheckpointableSource = (*CrashSource)(nil)
	_ BatchSource          = (*CrashSource)(nil)
)
