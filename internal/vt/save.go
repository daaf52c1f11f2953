package vt

// Checkpoint serialization for the weak-clock transport.
//
// The sparse representation's whole point is copy-on-write sharing, so
// its checkpoint form must not flatten that sharing: a restored engine
// has to retain byte-identical memory accounting and evolve segment
// refcounts exactly as the uninterrupted run would. The trick is that
// segments are arena-indexed, so the object graph — every clock,
// snapshot and summary that shares a segment — serializes as raw
// segRef indices, and one dump of the arena (slot contents plus
// refcounts, SparseStore.CheckpointState) reconstructs all of the
// sharing at once. Nothing re-retains on load: the dumped refcounts
// already count every holder that will be loaded after the store.
//
// Capacities are serialized wherever the memory accounting reads cap
// (FlatWeak vectors, flat free-list buffers, sparse segment
// directories), so Heap/SnapHeap/LiveHeap answers are byte-identical
// after a restore and — growth being deterministic — stay identical
// for the rest of the run.

import "treeclock/internal/ckpt"

// MaxID bounds identifiers decoded from checkpoints (threads, locks,
// variables): far above any live identifier space, while keeping a
// CRC-valid but inconsistent value from indexing clock state out of
// bounds downstream.
const MaxID = 1 << 26

// CheckpointTID visits a thread id, rejecting loaded values outside
// [0, MaxID).
func CheckpointTID(c *ckpt.Codec, t *TID) { c.Int32In((*int32)(t), 0, MaxID, "thread id") }

// CheckpointEpoch visits an epoch (thread id plus local time). The
// thread id is range-checked because epochs feed Clock.Get, where a
// negative id would index out of bounds; the zero epoch round-trips
// as (0, 0).
func CheckpointEpoch(c *ckpt.Codec, ep *Epoch) {
	CheckpointTID(c, &ep.T)
	c.Int32((*int32)(&ep.Clk))
}

// Save implements Clock for Sparse.
func (c *Sparse) Save(e *ckpt.Enc) { c.Checkpoint(e.Codec()) }

// Load implements Clock for Sparse.
func (c *Sparse) Load(d *ckpt.Dec) { c.Checkpoint(d.Codec()) }

// Checkpoint visits a Sparse clock in materialized form, for the Clock
// contract: the sparse clock serves engines as the weak transport
// (whose state travels through the store, CheckpointWeak and
// CheckpointSnap below), never as the strong backbone, so this form
// does not need to preserve segment sharing. A load replaces the
// clock's segments, writing each nonzero entry through copy-on-write.
func (c *Sparse) Checkpoint(cc *ckpt.Codec) {
	n := c.n
	cc.Len(&n, 1)
	cc.U64(&c.rev)
	if cc.Err() != nil {
		return
	}
	if cc.Loading() {
		c.dropSegs(make([]segRef, (n+segMask)>>segShift), n)
	}
	for t := 0; t < c.n; t++ {
		v := c.Get(TID(t))
		cc.Int32((*int32)(&v))
		if cc.Loading() && v != 0 {
			c.writable(t >> segShift).vals[t&segMask] = v
		}
	}
}

// dropSegs releases the clock's segments and installs segs (fresh, or
// loaded raw references) over a logical length of n.
func (c *Sparse) dropSegs(segs []segRef, n int) {
	p := c.pl()
	for _, r := range c.segs {
		p.release(r)
	}
	c.segs, c.n = segs, n
}

// CheckpointWeak implements WeakClock for FlatWeak: length, capacity
// (Heap reads cap) and entries.
func (w *FlatWeak) CheckpointWeak(c *ckpt.Codec) { checkpointVector(c, &w.v) }

// checkpointVector visits a flat vector with its capacity, which the
// memory accounting and buffer recycling read.
func checkpointVector(c *ckpt.Codec, v *Vector) {
	n, cp := len(*v), cap(*v)
	c.Len(&n, 1)
	c.Cap(&cp, n)
	if c.Err() != nil {
		return
	}
	if c.Loading() {
		*v = make(Vector, n, cp)
	}
	for i := range *v {
		c.Int32((*int32)(&(*v)[i]))
	}
}

// CheckpointWeak implements WeakClock for Sparse: the segment directory
// as raw arena indices (the matching store's CheckpointState dumps the
// arena itself), preserving every share; cap(segs) is visited because
// Heap reads it. A load requires the clock to be bound to an
// already-loaded pool (SnapStore.NewW after CheckpointState), which is
// what makes reference validation possible.
func (c *Sparse) CheckpointWeak(cc *ckpt.Codec) {
	n, nb, cb := c.n, len(c.segs), cap(c.segs)
	cc.Int(&n)
	cc.U64(&c.rev)
	cc.Len(&nb, 1)
	cc.Cap(&cb, nb)
	if !cc.Check(n >= 0 && nb == (n+segMask)>>segShift, "sparse clock directory does not cover its threads") {
		return
	}
	if cc.Loading() {
		c.dropSegs(make([]segRef, nb, cb), n)
	}
	for i := range c.segs {
		c.pl().ref(cc, &c.segs[i])
	}
}

// ref visits one arena reference, rejecting loaded indices outside the
// carved arena.
func (p *SegPool) ref(c *ckpt.Codec, r *segRef) {
	v := uint64(*r)
	c.Uvarint(&v)
	c.Check(v == 0 || v < uint64(p.next), "segment reference outside arena")
	*r = segRef(v)
}

// CheckpointState implements SnapStore for FlatStore: the live-bytes
// counter and the free list's buffer capacities (contents are dead —
// Snapshot overwrites a popped buffer — but Heap reads every cap).
func (f *FlatStore) CheckpointState(c *ckpt.Codec) {
	c.U64(&f.live)
	if !ckpt.Slice(c, &f.free, 1) ||
		!c.Check(len(f.free) <= maxFreeSnapshots, "flat free list length %d exceeds cap %d", len(f.free), maxFreeSnapshots) {
		return
	}
	for i := range f.free {
		cp := cap(f.free[i])
		c.Cap(&cp, 0)
		if c.Loading() && c.Err() == nil {
			f.free[i] = make(Vector, cp)
		}
	}
}

// CheckpointSnap implements SnapStore for FlatStore: a flat snapshot is
// a plain vector; cap is visited because buffer recycling reads it. A
// load leaves the live-bytes counter alone: CheckpointState restored it
// wholesale, already counting every snapshot being reloaded.
func (f *FlatStore) CheckpointSnap(c *ckpt.Codec, s *Vector) { checkpointVector(c, s) }

// CheckpointState implements SnapStore for SparseStore: one dump of the
// arena — the carve high-water mark, the free list, and every carved
// slot's refcount and (for live slots) payload — followed by the
// per-thread previous-snapshot diff bases and their revision cache.
// Restoring the arena verbatim reconstructs every copy-on-write share
// at once; holders loaded afterwards (weak clocks, history entries,
// summaries, the diff bases here) store raw indices and never
// re-retain, because the dumped refcounts already include them.
func (st *SparseStore) CheckpointState(c *ckpt.Codec) {
	p := &st.pool
	next := uint64(p.next)
	c.Uvarint(&next)
	if !c.Check(next != 1 && next <= maxSegRefs, "arena high-water mark %d out of range", next) {
		return
	}
	if c.Loading() {
		*p = SegPool{next: segRef(next)}
		if next > 1 {
			p.chunks = make([][]Seg, ((int(next)-1)>>chunkShift)+1)
			for i := range p.chunks {
				p.chunks[i] = make([]Seg, chunkLen)
			}
		}
	}
	if !ckpt.Slice(c, &p.free, 1) {
		return
	}
	for i := range p.free {
		p.ref(c, &p.free[i])
		if !c.Check(p.free[i] != 0, "free list holds the reserved slot") {
			return
		}
	}
	for r := segRef(1); r < p.next; r++ {
		s := p.at(r)
		c.Int32(&s.ref)
		if !c.Check(s.ref >= 0, "segment has a negative refcount") {
			return
		}
		if s.ref > 0 {
			for j := range s.vals {
				c.Int32((*int32)(&s.vals[j]))
			}
		}
	}
	if !ckpt.Slice(c, &st.prev, 3) {
		return
	}
	for i := range st.prev {
		st.CheckpointSnap(c, &st.prev[i])
	}
	if c.Loading() {
		st.prevRev = make([]uint64, len(st.prev))
	}
	for i := range st.prevRev {
		c.U64(&st.prevRev[i])
	}
}

// maxSegRefs bounds the arena high-water mark a checkpoint may claim
// (the same sanity role as ckpt's slice bound: real arenas track live
// identifier spaces, and the bound keeps a corrupt value from forcing
// a giant allocation before validation catches up).
const maxSegRefs = 1 << 26

// CheckpointSnap implements SnapStore for SparseStore: the out-of-band
// epoch and the raw segment references (see CheckpointState for why
// no sharing metadata is needed).
func (st *SparseStore) CheckpointSnap(c *ckpt.Codec, s *SparseSnap) {
	c.Int32((*int32)(&s.t))
	c.Int32((*int32)(&s.lt))
	c.Int32In(&s.n, 0, maxSegRefs+1, "snapshot thread space")
	if c.Err() != nil {
		return
	}
	nb := (int(s.n) + segMask) >> segShift
	if c.Loading() && nb > snapInline {
		s.more = make([]segRef, nb-snapInline)
	}
	for i := 0; i < nb; i++ {
		r := s.seg(i)
		st.pool.ref(c, &r)
		s.setSeg(i, r)
	}
}

// CheckpointAccess visits a FastTrack-style access history: the last
// write and read epochs, then the per-thread read vector, which stays
// nil until reads first go concurrent.
func CheckpointAccess(c *ckpt.Codec, w, r *Epoch, shared *Vector) {
	CheckpointEpoch(c, w)
	CheckpointEpoch(c, r)
	has := *shared != nil
	c.Bool(&has)
	if !has {
		return
	}
	n := len(*shared)
	c.Len(&n, 1)
	if c.Loading() && c.Err() == nil {
		*shared = NewVector(n)
	}
	for i := range *shared {
		c.Int32((*int32)(&(*shared)[i]))
	}
}
