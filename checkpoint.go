package treeclock

// Checkpoint/resume for streaming analysis
//
// A checkpoint captures everything a resumed run needs to continue as
// if the interruption never happened: the run configuration (engine,
// transport, analysis/validation switches, shard count, event count),
// the decode frontier of the trace source (byte offset, interner
// tables), and the full engine state of every replica (clocks,
// detector/accumulator, plugin state). The format is the versioned,
// length-prefixed, CRC-checked section stream of internal/ckpt:
//
//	header | "config" | source sections | engine sections × shards | "end"
//
// Engine sections are visited by engine.Runtime.Checkpoint (one "engine"
// and one "analysis" section plus the semantics plugin's own). A
// truncated, bit-flipped or misdirected checkpoint fails restore with
// an error wrapping ErrCorruptCheckpoint; it never panics and never
// leaves a half-restored run behind (restore errors discard the run).
//
// Checkpoints are written at batch boundaries, so the event count in a
// checkpoint is always a prefix of the trace that every state machine
// (engine, validator, interner) has fully processed. Sinks receive
// only complete checkpoint byte streams: the bytes are assembled in
// memory first, so a crash while writing can at worst leave a torn
// file, which FileCheckpointSink avoids with a temp-file rename.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"treeclock/internal/ckpt"
	"treeclock/internal/registry"
	"treeclock/internal/trace"
)

// ErrCorruptCheckpoint is the sentinel every checkpoint decode failure
// wraps: truncation, CRC mismatch, unexpected sections, out-of-range
// values. Distinguish "the checkpoint is bad" from plain I/O trouble
// with errors.Is(err, ErrCorruptCheckpoint).
var ErrCorruptCheckpoint = ckpt.ErrCorrupt

// CheckpointSink receives completed checkpoints. Create is called once
// per checkpoint with the event count it covers; the returned writer
// receives the complete checkpoint bytes and is then closed. Close
// commits the checkpoint — a sink that replaces a previous checkpoint
// must do so atomically only in Close (see FileCheckpointSink).
type CheckpointSink interface {
	Create(events uint64) (io.WriteCloser, error)
}

// FileCheckpointSink writes each checkpoint to Path, replacing the
// previous one atomically: the bytes go to a temporary file in the
// same directory, synced and renamed over Path on Close, so a crash
// mid-write never leaves a torn checkpoint behind.
type FileCheckpointSink struct {
	// Path is the checkpoint file location.
	Path string
}

// Create implements CheckpointSink.
func (s FileCheckpointSink) Create(events uint64) (io.WriteCloser, error) {
	dir := filepath.Dir(s.Path)
	f, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return nil, err
	}
	return &atomicFile{f: f, path: s.Path}, nil
}

// atomicFile commits a temp file to its final path on Close.
type atomicFile struct {
	f    *os.File
	path string
	done bool
}

func (a *atomicFile) Write(p []byte) (int, error) { return a.f.Write(p) }

func (a *atomicFile) Close() error {
	if a.done {
		return nil
	}
	a.done = true
	if err := a.f.Sync(); err != nil {
		a.f.Close()
		os.Remove(a.f.Name())
		return err
	}
	if err := a.f.Close(); err != nil {
		os.Remove(a.f.Name())
		return err
	}
	return os.Rename(a.f.Name(), a.path)
}

// WithCheckpoint makes the run write a checkpoint to sink roughly
// every `every` events (at batch granularity: at the first batch
// boundary past each multiple; every == 0 selects one checkpoint per
// million events). A run interrupted afterwards — by a crash, a kill,
// or a cancelled context — can continue from the last completed
// checkpoint with ResumeFrom, and its results are byte-identical to an
// uninterrupted run's.
//
// Checkpointing is incompatible with WithPipeline (the asynchronous
// decoder's in-flight state cannot be serialized); the automatic
// pipeline selection stays synchronous when checkpointing is on.
func WithCheckpoint(every uint64, sink CheckpointSink) StreamOption {
	return func(c *streamConfig) {
		if every == 0 {
			every = 1 << 20
		}
		c.ckptEvery, c.ckptSink = every, sink
	}
}

// ResumeFrom restores the run from a checkpoint read from r before any
// trace input is consumed: the trace reader is fast-forwarded to the
// checkpoint's byte offset and the engine continues from the restored
// state. The run configuration — engine name, weak-clock transport,
// analysis and validation switches, worker count — must match the
// checkpointed run's, and the trace reader must serve the same input;
// mismatches fail with a descriptive error. A corrupt or truncated
// checkpoint fails with an error wrapping ErrCorruptCheckpoint; the
// trace is never touched in that case.
func ResumeFrom(r io.Reader) StreamOption {
	return func(c *streamConfig) { c.resume = r }
}

// WithContext cancels the run when ctx does: the streaming loop stops
// at the next batch boundary, sharded workers and the pipelined
// decoder drain and exit (no goroutine leaks), and the run returns the
// partial StreamResult alongside ctx.Err(). The partial result covers
// exactly the events processed before cancellation.
func WithContext(ctx context.Context) StreamOption {
	return func(c *streamConfig) { c.ctx = ctx }
}

// asCheckpointable requires src (the fully wrapped source chain) to
// support checkpointing.
func asCheckpointable(src trace.EventSource) (trace.CheckpointableSource, error) {
	cs, ok := src.(trace.CheckpointableSource)
	if !ok {
		return nil, fmt.Errorf("treeclock: source %T does not support checkpointing", src)
	}
	return cs, nil
}

// runConfig is the run configuration a checkpoint records: a resumed
// run must match it exactly.
type runConfig struct {
	name                         string
	flatWeak, analysis, validate bool
	shards                       int
	slotReclaim                  bool
	summaryCap, internCap        int
}

// checkpoint visits one whole checkpoint: the run configuration and
// event count, the source's decode frontier and every engine replica.
// A load validates the configuration against cfg, fast-forwards the
// source and loads the replicas in place; on error the run must be
// discarded.
func checkpoint(c *ckpt.Codec, name string, cfg *streamConfig, shards int, events *uint64, src trace.CheckpointableSource, engines []registry.Engine) error {
	want := runConfig{name, cfg.flatWeak, cfg.analysis, cfg.validate, shards, cfg.slotReclaim, cfg.summaryCap, cfg.internCap}
	ck := want
	c.Header()
	c.Begin("config")
	c.String(&ck.name)
	c.Bool(&ck.flatWeak)
	c.Bool(&ck.analysis)
	c.Bool(&ck.validate)
	c.Int(&ck.shards)
	c.U64(events)
	c.Bool(&ck.slotReclaim)
	c.Int(&ck.summaryCap)
	c.Int(&ck.internCap)
	c.End()
	if err := c.Err(); err != nil {
		return err
	}
	if ck.name != want.name || ck.flatWeak != want.flatWeak || ck.analysis != want.analysis || ck.validate != want.validate || ck.shards != want.shards {
		return fmt.Errorf("treeclock: checkpoint was written by engine %q (flat-weak %v, analysis %v, validate %v, %d workers); this run is %q (flat-weak %v, analysis %v, validate %v, %d workers)",
			ck.name, ck.flatWeak, ck.analysis, ck.validate, ck.shards,
			want.name, want.flatWeak, want.analysis, want.validate, want.shards)
	}
	if ck != want {
		return fmt.Errorf("treeclock: checkpoint was written with slot-reclaim %v, summary cap %d, intern cap %d; this run has slot-reclaim %v, summary cap %d, intern cap %d",
			ck.slotReclaim, ck.summaryCap, ck.internCap, want.slotReclaim, want.summaryCap, want.internCap)
	}
	if err := src.CheckpointSource(c); err != nil {
		return err
	}
	// Observer wrappers (progress reporting) contribute no checkpoint
	// state; re-seed their counters from the restored position so
	// callbacks continue the interrupted run's numbering.
	if ps, ok := src.(interface{ StartAt(uint64) }); ok && c.Loading() {
		ps.StartAt(*events)
	}
	for _, eng := range engines {
		if err := eng.Checkpoint(c); err != nil {
			return err
		}
	}
	c.Begin("end")
	c.End()
	return c.Err()
}

// writeCheckpoint assembles one complete checkpoint into w.
func writeCheckpoint(w io.Writer, name string, cfg *streamConfig, shards int, events uint64, src trace.CheckpointableSource, engines []registry.Engine) error {
	return checkpoint(ckpt.NewEnc(w).Codec(), name, cfg, shards, &events, src, engines)
}

// emitCheckpoint writes one checkpoint through the configured sink.
// The bytes are assembled in scratch first so the sink only ever sees
// a complete checkpoint.
func emitCheckpoint(cfg *streamConfig, scratch *bytes.Buffer, name string, shards int, events uint64, src trace.CheckpointableSource, engines []registry.Engine) error {
	scratch.Reset()
	if err := writeCheckpoint(scratch, name, cfg, shards, events, src, engines); err != nil {
		return fmt.Errorf("treeclock: writing checkpoint at %d events: %w", events, err)
	}
	wc, err := cfg.ckptSink.Create(events)
	if err != nil {
		return fmt.Errorf("treeclock: creating checkpoint at %d events: %w", events, err)
	}
	if _, err := wc.Write(scratch.Bytes()); err != nil {
		wc.Close()
		return fmt.Errorf("treeclock: writing checkpoint at %d events: %w", events, err)
	}
	if err := wc.Close(); err != nil {
		return fmt.Errorf("treeclock: committing checkpoint at %d events: %w", events, err)
	}
	return nil
}

// restoreCheckpoint consumes a whole checkpoint from cfg.resume,
// validating the configuration, fast-forwarding the source and loading
// every engine replica. On error the run must be discarded.
func restoreCheckpoint(cfg *streamConfig, name string, shards int, src trace.CheckpointableSource, engines []registry.Engine) (events uint64, err error) {
	if err := checkpoint(ckpt.NewDec(cfg.resume).Codec(), name, cfg, shards, &events, src, engines); err != nil {
		return 0, err
	}
	for i, eng := range engines {
		if eng.Events() != events {
			return 0, fmt.Errorf("treeclock: checkpoint replica %d restored at %d events but the checkpoint covers %d: %w",
				i, eng.Events(), events, ckpt.ErrCorrupt)
		}
	}
	return events, nil
}
