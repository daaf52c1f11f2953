package wcp

import (
	"treeclock/internal/engine"
	"treeclock/internal/trace"
	"treeclock/internal/vt"
)

// testEngineOf is the tests' view of one WCP run: the shared runtime
// bound to the semantics, with the WCP ∪ thread-order timestamp the
// engine registry reports shadowing the runtime's HB scaffolding.
type testEngineOf[C vt.Clock[C], W vt.WeakClock[W, S], S any, F vt.SnapStore[W, S]] struct {
	*engine.Runtime[C]
	sem *SemanticsOf[C, W, S, F]
}

// testEngine is testEngineOf on the default sparse weak-clock transport.
type testEngine[C vt.Clock[C]] = testEngineOf[C, *vt.Sparse, vt.SparseSnap, *vt.SparseStore]

// Sem returns the bound semantics.
func (e *testEngineOf[C, W, S, F]) Sem() *SemanticsOf[C, W, S, F] { return e.sem }

// Timestamp snapshots thread t's WCP ∪ thread-order vector time into
// dst; the local time is read off the thread's HB clock.
func (e *testEngineOf[C, W, S, F]) Timestamp(t vt.TID, dst vt.Vector) vt.Vector {
	return e.sem.Timestamp(t, e.ThreadClock(t).Get(t), dst)
}

func bind[C vt.Clock[C], W vt.WeakClock[W, S], S any, F vt.SnapStore[W, S]](sem *SemanticsOf[C, W, S, F], f vt.Factory[C]) *testEngineOf[C, W, S, F] {
	return &testEngineOf[C, W, S, F]{Runtime: engine.New[C](sem, f), sem: sem}
}

// fullWidth wraps f so every clock is allocated at the trace's full
// thread capacity, as for a materialized trace, and never grows.
func fullWidth[C vt.Clock[C]](meta trace.Meta, f vt.Factory[C]) vt.Factory[C] {
	return func(n int) C { return f(max(n, meta.Threads)) }
}

// newSized builds a WCP engine whose clocks are sized for meta.
func newSized[C vt.Clock[C]](meta trace.Meta, f vt.Factory[C]) *testEngine[C] {
	return bind(NewSemantics[C](), fullWidth(meta, f))
}

// newStreaming builds a WCP engine that grows on first sight of each
// identifier.
func newStreaming[C vt.Clock[C]](f vt.Factory[C]) *testEngine[C] {
	return bind(NewSemantics[C](), f)
}

// newSizedFlat is newSized on the flat-vector weak-clock transport.
func newSizedFlat[C vt.Clock[C]](meta trace.Meta, f vt.Factory[C]) *testEngineOf[C, *vt.FlatWeak, vt.Vector, *vt.FlatStore] {
	return bind(NewSemanticsFlat[C](), fullWidth(meta, f))
}

// newStreamingFlat is newStreaming on the flat-vector weak-clock
// transport.
func newStreamingFlat[C vt.Clock[C]](f vt.Factory[C]) *testEngineOf[C, *vt.FlatWeak, vt.Vector, *vt.FlatStore] {
	return bind(NewSemanticsFlat[C](), f)
}
