package treeclock

// The one-pass streaming analysis API: RunStream feeds a trace from an
// io.Reader straight through a partial-order engine with no prior
// metadata and no materialization, so memory is proportional to the
// live identifier spaces (threads, locks, touched variables), not the
// trace length. Engines are selected by name from a registry; see
// Engines and EngineInfos.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"

	"treeclock/internal/engine"
	"treeclock/internal/registry"
	"treeclock/internal/trace"
	"treeclock/internal/vt"
)

// Semantics is the plugin interface a partial order implements against
// the shared engine runtime: a Read and a Write hook plus whatever
// per-variable state they need. HB, SHB and MAZ are each one small
// Semantics implementation; everything else (thread/lock clocks, the
// sync-event dispatch, identifier growth) is the runtime's.
type Semantics[C vt.Clock[C]] = engine.Semantics[C]

// EngineRuntime is the shared streaming runtime the named engines are
// built from. Advanced users can bind their own Semantics to it.
type EngineRuntime[C vt.Clock[C]] = engine.Runtime[C]

// EngineInfo describes one registry entry: Name ("<order>-<clock>",
// e.g. "hb-tree"), Order ("hb", "shb", "maz" or "wcp"), Clock ("tree"
// or "vc") and a one-line Doc.
type EngineInfo = registry.Info

// Engines returns the registered engine names, sorted.
func Engines() []string {
	infos := registry.Infos()
	names := make([]string, len(infos))
	for i, info := range infos {
		names[i] = info.Name
	}
	return names
}

// EngineInfos returns the registry entries, sorted by name.
func EngineInfos() []EngineInfo { return registry.Infos() }

// TraceFormat selects a trace serialization for streaming.
type TraceFormat uint8

const (
	// FormatText is the line-oriented text format.
	FormatText TraceFormat = iota
	// FormatBinary is the compact binary format of WriteTraceBinary.
	FormatBinary
)

// streamConfig collects RunStream options.
type streamConfig struct {
	format        TraceFormat
	analysis      bool
	validate      bool
	scalar        bool
	pipeline      int  // pipelined-decode depth; <= 0 = synchronous
	pipelineSet   bool // WithPipeline was given (auto-selection is off)
	workers       int  // sharded-analysis worker count; <= 1 = sequential
	forceParallel bool // RunStreamParallel entry: shard even at 1 worker
	flatWeak      bool // wcp only: flat-vector weak-clock transport
	progressEvery uint64
	progressFn    func(Progress)
	stats         *WorkStats
	ctx           context.Context // WithContext; nil = never cancelled
	ckptEvery     uint64          // WithCheckpoint cadence; 0 = off
	ckptSink      CheckpointSink  // WithCheckpoint destination
	resume        io.Reader       // ResumeFrom checkpoint stream; nil = fresh run
	slotReclaim   bool            // WithSlotReclaim: retire fully-joined thread slots
	summaryCap    int             // WithSummaryCap: wcp rule-(a) summary budget; 0 = unbounded
	internCap     int             // WithInternCap: text-interner name budget; 0 = unbounded
}

// StreamOption configures RunStream.
type StreamOption func(*streamConfig)

// StreamFormat selects the input serialization (default FormatText).
func StreamFormat(f TraceFormat) StreamOption {
	return func(c *streamConfig) { c.format = f }
}

// StreamBinary is shorthand for StreamFormat(FormatBinary).
func StreamBinary() StreamOption { return StreamFormat(FormatBinary) }

// StreamNoAnalysis disables race / reversible-pair detection, computing
// the pure partial order (what the paper times as "HB", "SHB", "MAZ").
func StreamNoAnalysis() StreamOption {
	return func(c *streamConfig) { c.analysis = false }
}

// StreamWorkStats accumulates data-structure work counters into st.
func StreamWorkStats(st *WorkStats) StreamOption {
	return func(c *streamConfig) { c.stats = st }
}

// StreamScalar forces the per-event streaming loop (one interface call
// per event) instead of the default batched consumption. It exists for
// comparison benchmarks — batching changes no analysis result, only
// throughput — and is incompatible with WithPipeline.
func StreamScalar() StreamOption {
	return func(c *streamConfig) { c.scalar = true }
}

// WithPipeline runs trace decoding in its own goroutine, feeding the
// engine batches through a ring of depth recycled buffers so parsing
// overlaps analysis. Batches are consumed in trace order, so results
// are identical to the synchronous path. A depth of at least 2 is
// enforced; depth <= 0 forces the synchronous path. Without this
// option RunStream decides on its own: text input decodes pipelined
// when more than one CPU is available (GOMAXPROCS > 1), since the
// extra goroutine only pays off when decode and analysis cost are
// comparable and a second core exists to overlap them; binary input,
// StreamScalar and sharded (WithWorkers) runs stay synchronous — the
// parallel coordinator already decodes concurrently with analysis.
func WithPipeline(depth int) StreamOption {
	return func(c *streamConfig) { c.pipeline, c.pipelineSet = depth, true }
}

// WithWorkers runs the analysis sharded across n workers: variables
// partition across n full engine replicas by stable hash, each replica
// processes the whole event stream (so clock evolution is identical
// everywhere), and the per-variable race analysis — the dominant
// per-event cost on access-heavy workloads — runs only on the
// variable's owner. The merged result is byte-identical to the
// sequential run's. n <= 1 selects the sequential path; RunStreamParallel
// defaults n to GOMAXPROCS. Incompatible with StreamScalar (sharding
// is batched by construction).
func WithWorkers(n int) StreamOption {
	return func(c *streamConfig) { c.workers = n }
}

// WithFlatWeakClocks selects the flat-vector weak-clock transport for
// the "wcp-*" engines instead of the default sparse copy-on-write
// segment representation. The two transports are observationally
// identical (the differential suites pin them byte for byte); the flat
// one pays Θ(threads) per release snapshot and transport operation. It
// exists as the benchmark baseline the sparse representation is
// measured against — see the "weak" column of tcbench's ingest sweep.
// Engines whose order is not "wcp" ignore the option.
func WithFlatWeakClocks() StreamOption {
	return func(c *streamConfig) { c.flatWeak = true }
}

// WithSlotReclaim makes the engine reclaim thread slots: when a thread
// has been joined and no live clock can still receive a component for
// it, its slot is retired and becomes eligible for reuse by a later
// fork, so thread-churn workloads hold clocks of width proportional to
// the peak number of live threads instead of the total ever forked.
// Reclamation changes no analysis result — race counts and samples are
// identical to an unreclaimed run's — but reported thread ids are
// internal slot numbers rather than first-appearance ordinals, and
// StreamResult.Timestamps has one entry per slot. The "wcp-*" engines
// reject the option (their rule-(a) summaries outlive joins; see the
// engine.Runtime.EnableSlotReclaim contract).
func WithSlotReclaim() StreamOption {
	return func(c *streamConfig) { c.slotReclaim = true }
}

// WithSummaryCap bounds the "wcp-*" engines' per-(lock, variable,
// thread) rule-(a) acquire summaries to roughly n live entries: when
// the count exceeds n at a release boundary, summaries whose snapshots
// are dominated by the lock's latest published release clock are
// dropped (a sound no-op — joining them later could not move any weak
// clock). The cap is a soft target: entries under locks currently held
// are never dropped, so a pathological all-locks-held instant can
// exceed it. n <= 0 (the default) disables aging. Engines whose order
// is not "wcp" ignore the option, like WithFlatWeakClocks.
func WithSummaryCap(n int) StreamOption {
	return func(c *streamConfig) { c.summaryCap = n }
}

// WithInternCap bounds the text tokenizer's map-interned name table to
// roughly n names, evicting the coldest when the budget is exceeded.
// An evicted name seen again is treated as a brand-new identifier
// (fresh id — ids are never reused), which is sound exactly when the
// old identifier's analysis state is dead: a race between an access
// before the eviction and one after it is missed. Use it for
// month-long streams whose identifier names churn (thread names,
// per-request variable names) and are never revisited once cold.
// Canonical names ("t3", "x128") resolve through a bounded
// direct-index array and are not subject to the cap. n <= 0 (the
// default) disables eviction. The option requires text input: binary
// traces and pre-decoded sources carry numeric ids, so there is
// nothing to evict, and asking for a cap there fails the run.
func WithInternCap(n int) StreamOption {
	return func(c *streamConfig) { c.internCap = n }
}

// Progress is one WithProgress report.
type Progress struct {
	// Events is the number of trace events processed so far.
	Events uint64
	// Rate is the observed throughput in events/second since the
	// previous report (since the start, for the first).
	Rate float64
}

// WithProgress reports ingestion progress: fn fires after roughly
// every `every` events (at batch granularity; every == 0 selects one
// report per million events) with the running event count and the
// events/second rate since the previous report. The callback runs
// synchronously on the goroutine that consumes the decoded stream —
// the caller's for plain and pipelined runs (the wrapper counts
// batches as the engine acquires them), the coordinator's for sharded
// (WithWorkers) runs — so it must be cheap and, under workers, must
// not assume the caller's goroutine.
func WithProgress(every uint64, fn func(Progress)) StreamOption {
	return func(c *streamConfig) { c.progressEvery, c.progressFn = every, fn }
}

// StreamValidate enforces trace well-formedness incrementally while
// streaming (lock discipline, fork/join sanity — the checks of
// Trace.Validate that need no prior metadata). A violation aborts the
// run with a descriptive error; without it, a malformed trace yields
// a well-defined but meaningless analysis.
func StreamValidate() StreamOption {
	return func(c *streamConfig) { c.validate = true }
}

// StreamResult is the outcome of one streaming analysis pass.
type StreamResult struct {
	// Engine is the registry name the trace was analyzed with.
	Engine string
	// Meta holds the identifier spaces discovered while streaming.
	Meta Meta
	// Events is the number of events processed.
	Events uint64
	// Summary aggregates the detected concurrent conflicting pairs
	// (zero when analysis was disabled).
	Summary RaceSummary
	// Samples retains up to 64 example pairs.
	Samples []Race
	// Timestamps holds each thread's final vector time under the
	// selected order (for "wcp-*" that is WCP ∪ thread order, not the
	// HB scaffolding the runtime keeps internally).
	Timestamps []Vector
	// Mem reports the engine's retained-state accounting when the
	// selected order implements the engine.MemReporter extension
	// (currently "wcp-*": critical-section history entries, peak
	// per-lock history length, compacted entries, retained snapshot
	// bytes). Nil for orders whose state is bounded by the live
	// identifier spaces alone.
	Mem *MemStats
}

// MemStats is the retained-state accounting a memory-reporting engine
// exposes (see StreamResult.Mem and the engine.MemReporter extension).
type MemStats = engine.MemStats

// scalarSource hides a source's batch methods behind a plain
// EventSource, forcing the engine runtime onto its per-event loop.
type scalarSource struct{ src trace.EventSource }

func (s scalarSource) Next() (trace.Event, bool) { return s.src.Next() }
func (s scalarSource) Err() error                { return s.src.Err() }

// RunStream analyzes a trace read from r with the named engine in a
// single streaming pass: no prior Meta, no materialization, memory
// proportional to the live identifier spaces (engines with inherently
// event-dependent state bound and report it — see StreamResult.Mem).
// The engine name is a registry key (see Engines): "hb-tree", "hb-vc",
// "shb-tree", "shb-vc", "maz-tree", "maz-vc", "wcp-tree" or "wcp-vc".
// Race / reversible-pair analysis is on by default; configure with
// StreamOption values.
func RunStream(engineName string, r io.Reader, opts ...StreamOption) (*StreamResult, error) {
	cfg := streamConfig{format: FormatText, analysis: true}
	for _, opt := range opts {
		opt(&cfg)
	}
	var src trace.EventSource
	switch cfg.format {
	case FormatText:
		src = trace.NewScanner(r)
	case FormatBinary:
		src = trace.NewBinaryScanner(r)
	default:
		return nil, fmt.Errorf("treeclock: unknown trace format %d", cfg.format)
	}
	if !cfg.pipelineSet {
		cfg.pipeline = autoPipelineDepth(&cfg, runtime.GOMAXPROCS(0))
	}
	return runStream(engineName, src, cfg)
}

// defaultPipelineDepth is the decode-ring depth auto-selected for text
// input on multi-core hosts.
const defaultPipelineDepth = 4

// autoPipelineDepth is the decode-mode selection applied when
// WithPipeline was not given: text input decodes in its own goroutine
// when a second CPU exists to overlap parsing with analysis, and
// everything else stays synchronous — binary decode is too cheap to
// win a goroutine hand-off, StreamScalar explicitly asks for the
// per-event loop, and sharded runs already overlap decode (the
// coordinator parses while the workers analyze).
func autoPipelineDepth(cfg *streamConfig, maxprocs int) int {
	if cfg.scalar || cfg.workers > 1 || cfg.forceParallel || cfg.format != FormatText || maxprocs < 2 {
		return 0
	}
	if cfg.ckptSink != nil || cfg.resume != nil {
		// The pipelined decoder's in-flight state is not checkpointable.
		return 0
	}
	return defaultPipelineDepth
}

// RunStreamSource is RunStream over an already-constructed event
// source — a trace scanner, an in-memory TraceReplayer, or one of the
// endless workload generators (GenerateHotLockStream and friends,
// capped with LimitEvents). Format options are ignored (the source is
// already decoded); validation, scalar mode and pipelining apply as in
// RunStream.
func RunStreamSource(engineName string, src EventSource, opts ...StreamOption) (*StreamResult, error) {
	cfg := streamConfig{format: FormatText, analysis: true}
	for _, opt := range opts {
		opt(&cfg)
	}
	return runStream(engineName, src, cfg)
}

// runStream is the single funnel behind all four RunStream* entry
// points: open a session over the configuration, drain src through it
// pull-mode, close. Validation, the drivers and result assembly all
// live on Session.
func runStream(engineName string, src trace.EventSource, cfg streamConfig) (*StreamResult, error) {
	s, err := newSession(engineName, cfg)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.Run(src)
}

// driveSequential is the explicit batch loop the sequential path runs
// when it needs per-batch control (cancellation checks, checkpoint
// boundaries); results are identical to Runtime.ProcessSource. The
// plain configuration keeps the runtime's own loop, whose
// BatchProducer fast path the pipelined decoder relies on.
func driveSequential(e registry.Engine, src trace.EventSource, cfg *streamConfig, engineName string) error {
	if cfg.ctx == nil && cfg.ckptSink == nil {
		return e.ProcessSource(src)
	}
	var (
		buf     = make([]trace.Event, trace.DefaultBatchSize)
		scratch bytes.Buffer
		next    uint64
		cs      trace.CheckpointableSource
	)
	if cfg.ckptSink != nil {
		cs, _ = asCheckpointable(src) // validated by the caller
		next = nextBoundary(e.Events(), cfg.ckptEvery)
	}
	for {
		if cfg.ctx != nil {
			select {
			case <-cfg.ctx.Done():
				return cfg.ctx.Err()
			default:
			}
		}
		n, ok := trace.ReadBatch(src, buf)
		if n > 0 {
			e.ProcessBatchAt(e.Events(), buf[:n])
		}
		if cs != nil && e.Events() >= next {
			if err := emitCheckpoint(cfg, &scratch, engineName, 1, e.Events(), cs, []registry.Engine{e}); err != nil {
				return err
			}
			next = nextBoundary(e.Events(), cfg.ckptEvery)
		}
		if !ok {
			return src.Err()
		}
	}
}

// nextBoundary returns the first checkpoint threshold past events.
func nextBoundary(events, every uint64) uint64 {
	next := events + every
	next -= next % every
	if next <= events {
		next += every
	}
	return next
}

// foldInternStats adds the capped interner's retained-state accounting
// to the result. The interner lives in the trace scanner, not the
// engine, so the runtime cannot report it; a run without WithInternCap
// passes a nil scanner and the result is untouched (Mem stays nil for
// orders without a memory reporter).
func foldInternStats(res *StreamResult, sc trace.InternCapable) {
	if res == nil || sc == nil {
		return
	}
	live, evictions := sc.InternStats()
	if res.Mem == nil {
		res.Mem = &MemStats{}
	}
	res.Mem.InternedNames = live
	res.Mem.InternEvictions = evictions
}

// wrapProgress adapts the config's callback to the trace-level
// progress wrapper.
func wrapProgress(src trace.EventSource, cfg *streamConfig) trace.EventSource {
	fn := cfg.progressFn
	return trace.NewProgressSource(src, cfg.progressEvery, func(events uint64, rate float64) {
		fn(Progress{Events: events, Rate: rate})
	})
}
