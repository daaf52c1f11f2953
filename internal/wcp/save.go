package wcp

// Checkpoint serialization for the WCP plugin (see internal/ckpt).
//
// The order is load-bearing: the snapshot store's state — for the
// sparse transport, the whole refcounted segment arena — is visited
// before any weak clock, history entry or summary, because those
// holders serialize raw arena references and restoring them requires
// the arena (and its reference-validation bound) to exist first.
// Nothing re-retains on load: the dumped refcounts already count every
// holder, so the restored object graph reproduces the exact
// copy-on-write sharing, refcounts and byte accounting of the saved
// run (see internal/vt/save.go).
//
// Everything that steers future behaviour or feeds MemStats is
// captured verbatim: the history's chunk-relative head offset (chunk
// recycling timing feeds the free-chunk accounting), the rule-(b)
// cursors with their incrementally maintained top-two positions, the
// per-thread scan-position caches, and the free-chunk count (restored
// as fresh empty chunks — recycled chunk contents are dead by
// construction). Map-backed state (rule-(a) summaries, open-section
// access sets) is encoded in sorted order so identical state always
// produces identical bytes; contribution lists keep their order, which
// fixes the absorb order after resume.

import (
	"treeclock/internal/ckpt"
	"treeclock/internal/engine"
	"treeclock/internal/vt"
)

// Checkpoint conformance for both transports (the runtime detects the
// extension at construction).
var (
	_ engine.CheckpointSemantics[*noClock] = (*Semantics[*noClock])(nil)
	_ engine.CheckpointSemantics[*noClock] = (*FlatSemantics[*noClock])(nil)
)

// Save and Load complete noClock's vt.Clock conformance for the
// compile-time assertions; it never carries state.
func (*noClock) Save(e *ckpt.Enc) {}
func (*noClock) Load(d *ckpt.Dec) {}

// maxFreeChunks bounds the recycled-history-chunk count a checkpoint
// may claim (each restored chunk is a histLen-entry allocation, so the
// bound is much tighter than ckpt's generic slice cap).
const maxFreeChunks = 1 << 20

// Checkpoint implements engine.CheckpointSemantics. A load must run on
// a freshly constructed semantics (same transport); on error the
// plugin must be discarded.
func (s *SemanticsOf[C, W, S, F]) Checkpoint(rt *engine.Runtime[C], c *ckpt.Codec) error {
	c.Begin("wcp")
	c.Int(&s.k)
	c.Bool(&s.compact)
	c.Int(&s.liveHist)
	c.Int(&s.peakLockHist)
	c.U64(&s.dropped)
	c.U64(&s.sumEvictions)
	c.Int(&s.sumSweepAt)
	nfree := len(s.histFree)
	c.Count(&nfree)
	if !c.Check(s.k >= 0 && s.k <= vt.MaxID && s.liveHist >= 0 && s.peakLockHist >= 0 && s.sumSweepAt >= 0,
		"plugin counters (k %d, live %d, peak %d, sweep %d) out of range", s.k, s.liveHist, s.peakLockHist, s.sumSweepAt) ||
		!c.Check(nfree <= maxFreeChunks, "history free list of %d chunks out of range", nfree) {
		return c.Err()
	}
	s.store.CheckpointState(c)
	ckpt.Slice(c, &s.threads, 1)
	for i := 0; i < len(s.threads) && c.Err() == nil; i++ {
		ts := &s.threads[i]
		if c.Loading() {
			ts.w = s.store.NewW()
		}
		ts.w.CheckpointWeak(c)
		ckpt.Slice(c, &ts.held, 1)
		for j := range ts.held {
			cs := &ts.held[j]
			c.Int32In(&cs.lock, 0, vt.MaxID, "open section lock")
			c.Int32((*int32)(&cs.acqLT))
			checkpointVarSet(c, &cs.read)
			checkpointVarSet(c, &cs.written)
		}
	}
	ckpt.Slice(c, &s.locks, 1)
	for l := 0; l < len(s.locks) && c.Err() == nil; l++ {
		s.checkpointLock(c, &s.locks[l])
	}
	ckpt.Slice(c, &s.vars, 1)
	for i := range s.vars {
		vs := &s.vars[i]
		vt.CheckpointAccess(c, &vs.w, &vs.r, &vs.shared)
	}
	c.End()
	if err := c.Err(); err != nil || !c.Loading() {
		return err
	}
	s.histFree = nil
	for i := 0; i < nfree; i++ {
		s.histFree = append(s.histFree, make([]csEntry[S], histLen))
	}
	// Derived aging state: the live contribution count and per-lock
	// holder counts are recomputed from what was just loaded (cheaper
	// and safer than trusting checkpoint bytes that must agree with the
	// object graph anyway).
	s.sumLive = 0
	for l := range s.locks {
		for _, sum := range s.locks[l].sums {
			s.sumLive += len(sum.reads) + len(sum.writes)
		}
	}
	for i := range s.threads {
		for j := range s.threads[i].held {
			l := s.threads[i].held[j].lock
			if !c.Check(int(l) < len(s.locks), "open section lock %d beyond lock space %d", l, len(s.locks)) {
				return c.Err()
			}
			s.locks[l].holders++
		}
	}
	return nil
}

// checkpointLock visits one lock's state. The history is visited with
// its chunk-relative head offset so the restored chunk layout — and
// with it the timing of future chunk recycling — matches the saved
// run's exactly. A load validates everything that later indexes or
// scans: the head offset, cursor positions against the history length,
// the scan caches, and the top-two cursor maxima.
func (s *SemanticsOf[C, W, S, F]) checkpointLock(c *ckpt.Codec, ls *lockState[W, S]) {
	c.Bool(&ls.wSet)
	if c.Loading() {
		ls.w = s.store.NewW()
	}
	ls.w.CheckpointWeak(c)
	head, n := ls.hist.head, ls.hist.n
	c.Count(&head)
	c.Len(&n, 4)
	if !c.Check(head < histLen, "history head offset out of range") {
		return
	}
	if c.Loading() {
		ls.hist = histBuf[S]{head: head, n: n}
		if nchunks := (head + n + histLen - 1) >> histShift; nchunks > 0 {
			ls.hist.chunks = make([][]csEntry[S], nchunks)
			for i := range ls.hist.chunks {
				ls.hist.chunks[i] = make([]csEntry[S], histLen)
			}
		}
	}
	for i := 0; i < n && c.Err() == nil; i++ {
		en := ls.hist.at(i)
		vt.CheckpointTID(c, &en.t)
		c.Int32((*int32)(&en.acqLT))
		s.store.CheckpointSnap(c, &en.rel)
	}
	ckpt.Slice(c, &ls.cursor, 1)
	for t := range ls.cursor {
		c.Count(&ls.cursor[t])
		c.Check(ls.cursor[t] <= n, "rule-(b) cursor beyond history length")
	}
	if !ckpt.Slice(c, &ls.spos, 1) || !c.Check(len(ls.spos) == len(ls.cursor), "scan cache length does not match the cursors") {
		return
	}
	for i := range ls.spos {
		sp := &ls.spos[i]
		c.Int32(&sp.idx)
		c.Int32((*int32)(&sp.t))
		c.Int32((*int32)(&sp.lt))
		c.Check(sp.idx >= 0 && int(sp.idx) <= n && sp.t >= 0 && sp.t < vt.MaxID, "scan cache entry out of range")
	}
	ctmax := int32(ls.ctmax)
	c.Int(&ls.cmax1)
	c.Int(&ls.cmax2)
	c.Int32In(&ctmax, int32(vt.None), vt.MaxID, "cursor maximum thread")
	ls.ctmax = vt.TID(ctmax)
	if !c.Check(ls.cmax2 >= 0 && ls.cmax1 <= n && ls.cmax2 <= ls.cmax1, "cursor maxima inconsistent with history length") {
		return
	}
	ckpt.Map(c, &ls.sums, 1, func(c *ckpt.Codec, x *int32, sum **varSummary[S]) {
		c.Int32(x)
		if *sum == nil {
			*sum = &varSummary[S]{}
		}
		s.checkpointContribs(c, &(*sum).reads)
		s.checkpointContribs(c, &(*sum).writes)
	})
	c.Int(&ls.peak)
	c.U64(&ls.dropped)
	c.Check(ls.peak >= 0, "lock peak history negative")
}

// checkpointContribs visits one rule-(a) contribution list in order
// (the order fixes the absorb sequence after resume).
func (s *SemanticsOf[C, W, S, F]) checkpointContribs(c *ckpt.Codec, cs *[]contrib[S]) {
	ckpt.Slice(c, cs, 1)
	for i := 0; i < len(*cs) && c.Err() == nil; i++ {
		vt.CheckpointTID(c, &(*cs)[i].t)
		s.store.CheckpointSnap(c, &(*cs)[i].s)
	}
}

// checkpointVarSet visits an open section's access set in sorted
// order.
func checkpointVarSet(c *ckpt.Codec, m *map[int32]struct{}) {
	ckpt.Map(c, m, 1, func(c *ckpt.Codec, x *int32, _ *struct{}) { c.Int32(x) })
}
