package vt

import "treeclock/internal/ckpt"

// Clock is the interface shared by the tree clock and the vector clock.
// Partial-order engines are generic over Clock, so exactly the same
// algorithm code runs with either data structure; any performance
// difference is attributable to the data structure alone, which is the
// paper's experimental methodology.
//
// The type parameter C is the implementing type itself (F-bounded), so
// that Join/MonotoneCopy receive a concrete operand and implementations
// need no dynamic type assertions.
//
// Protocol contract (matching the paper's usage):
//   - Init is called exactly once, and only on clocks that represent a
//     thread; auxiliary clocks (locks, variables) stay uninitialized and
//     represent the zero vector time until first written.
//   - Inc(t, d) is called only with t equal to the owning thread.
//   - MonotoneCopy(o) requires the receiver's vector time to be ⊑ o's
//     (Lemma 2 guarantees this at lock-release events). When the
//     precondition may not hold, use CopyCheckMonotone.
//
// Capacity contract: a clock's thread capacity is a lower bound, not a
// fixed universe. Grow(k) extends the capacity; Get on a thread beyond
// the capacity reports 0 (an unknown thread has the zero local time),
// and the binary operations (Join, MonotoneCopy, CopyCheckMonotone)
// accept operands of any capacity, growing the receiver as needed.
// This is what lets the streaming engine runtime discover threads on
// the fly instead of requiring trace metadata up front.
type Clock[C any] interface {
	// Init makes the clock belong to thread t with local time 0,
	// growing the capacity to at least t+1.
	Init(t TID)
	// Get returns the recorded local time of thread t in O(1)
	// (Remark 1: epoch optimizations apply to both clock types).
	// Threads at or beyond the capacity report 0.
	Get(t TID) Time
	// Inc adds d to the owning thread t's local time.
	Inc(t TID, d Time)
	// Grow extends the thread capacity to at least k. Existing entries
	// are preserved; new threads start absent (zero local time).
	Grow(k int)
	// Join updates the clock to the pointwise maximum with o.
	Join(o C)
	// MonotoneCopy overwrites the clock with o, assuming this ⊑ o.
	MonotoneCopy(o C)
	// CopyCheckMonotone overwrites the clock with o without assuming
	// monotonicity; it reports whether the copy was in fact monotone
	// (false signals a write-write race in the SHB algorithm).
	CopyCheckMonotone(o C) bool
	// Vector writes the represented vector time into dst (which must
	// have length ≥ the clock's capacity) and returns it. It is a
	// Θ(k) snapshot intended for timestamps, tests and reporting.
	Vector(dst Vector) Vector
	// VectorView returns a read-only view of the represented vector
	// time, valid only until the clock's next mutation; entries at or
	// beyond the view's length are zero. Clocks that maintain a flat
	// mirror return it without copying, so per-event consumers (the
	// weak-order release snapshot) can read the full vector time
	// without a Θ(k) materialization; clocks without a mirror may
	// materialize (documented per type). Callers must not write
	// through or retain the view.
	VectorView() []Time
	// ReleaseSlot erases thread t's component: after the call the clock
	// reports Get(t) == 0 and treats t as never seen, exactly as if the
	// entry had not been written. The capacity is unchanged (the slot
	// can be repopulated by later joins). Releasing a slot that is
	// absent, zero or at/beyond the capacity is a no-op. Callers must
	// not release the clock's own slot — the thread a clock was
	// initialized for (implementations that know their owner panic) —
	// and must guarantee that the erased component is genuinely dead:
	// the engine's slot reclamation (internal/engine) only releases a
	// thread's entry from clocks that can never again receive it via a
	// join, so erasure cannot change any represented ordering.
	ReleaseSlot(t TID)
	// Rev returns a revision counter for the clock's foreign entries:
	// it advances whenever an entry other than the owning thread's may
	// have changed, so an unchanged Rev across two reads guarantees
	// every foreign entry is unchanged. The converse need not hold —
	// implementations may advance it spuriously (a no-op join), never
	// the other way around. Consumers that diff successive vector
	// times (the weak-order release snapshot) use it to skip the diff
	// outright between quiet releases.
	Rev() uint64
	// Save serializes the clock's complete state — including Rev, so a
	// restored clock keeps its quiet-release behaviour — into the open
	// section of e (checkpoint/restore, internal/ckpt).
	Save(e *ckpt.Enc)
	// Load restores state written by Save, replacing the clock's
	// contents. Failures latch in d as errors wrapping ckpt.ErrCorrupt;
	// Load never panics on malformed input. The repository's clocks
	// implement Save and Load as one-line adapters onto one ckpt.Codec
	// method, so the two cannot disagree on the wire.
	Load(d *ckpt.Dec)
}

// Factory constructs fresh, uninitialized clocks with thread capacity
// at least k, for one engine run. Implementations bind an optional
// shared WorkStats at closure-creation time; the capacity is supplied
// per call so the engine runtime can size clocks to the identifier
// space seen so far and Grow them as the trace reveals more threads.
type Factory[C any] func(k int) C
