package main

import (
	"bytes"
	"fmt"
	"io"

	"treeclock"
	"treeclock/internal/trace"
)

// workload is one benchmark input: a generator shape, a pass size and
// the serialization the pass decodes.
type workload struct {
	name   string
	events int  // events in one pass
	binary bool // binary trace format (text otherwise)
	// ckptEvery is the checkpoint cadence of the end-to-end pass; zero
	// means the end-to-end pass does not checkpoint. The traced run
	// snapshots every workload at tracedCkptEvery.
	ckptEvery uint64
	// oracleEvents is the prefix the set-up check runs through the
	// definition-level oracle (quadratic in the prefix length).
	oracleEvents int
	generate     func(events int, seed int64) *treeclock.Trace
}

// tracedCkptEvery is the Session.Snapshot cadence of the traced run.
const tracedCkptEvery = 1 << 19

var workloads = []workload{
	{
		// Paper Fig. 10a: every thread syncs on one lock and nothing
		// else happens, so the pass is the lock-clock join and monotone
		// copy behind a cheap binary decode.
		name: "single-lock-k64", events: 1_000_000, binary: true, oracleEvents: 2000,
		generate: func(n int, seed int64) *treeclock.Trace {
			return treeclock.GenerateSingleLock(64, n, seed)
		},
	},
	{
		// The ingest-mixed shape of tcbench: 82% accesses, so order
		// semantics on variable clocks and the detector dominate, and
		// the pass checkpoints into memory.
		name: "mixed-k32", events: 2_000_000, binary: true, ckptEvery: 1 << 19, oracleEvents: 4000,
		generate: func(n int, seed int64) *treeclock.Trace {
			return treeclock.GenerateMixed(treeclock.GenConfig{
				Name: "mixed-k32", Threads: 32, Locks: 24, Vars: 4096,
				Events: n, Seed: seed, SyncFrac: 0.25,
				LockAffinity: 3, Groups: 6, HotFrac: 0.06,
			})
		},
	},
	{
		// The tree clock's best case with cheap kernels and no
		// accesses, in text format: the tokenizer and runtime dispatch
		// carry most of the pass.
		name: "star-k32", events: 5_000_000, oracleEvents: 4000,
		generate: func(n int, seed int64) *treeclock.Trace {
			return treeclock.GenerateStar(32, n, seed)
		},
	},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
		names = append(names, workloads[i].name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// encode serializes tr in the workload's format.
func (w *workload) encode(tr *treeclock.Trace) ([]byte, error) {
	var buf bytes.Buffer
	var err error
	if w.binary {
		err = treeclock.WriteTraceBinary(&buf, tr)
	} else {
		err = treeclock.WriteTraceText(&buf, tr)
	}
	if err != nil {
		return nil, fmt.Errorf("encode %s: %w", w.name, err)
	}
	return buf.Bytes(), nil
}

// scanner returns the workload format's decoder over r.
func (w *workload) scanner(r io.Reader) trace.BatchSource {
	if w.binary {
		return treeclock.NewBinaryTraceScanner(r)
	}
	return treeclock.NewTraceScanner(r)
}

// streamOptions are the format options of a RunStream pass.
func (w *workload) streamOptions() []treeclock.StreamOption {
	if w.binary {
		return []treeclock.StreamOption{treeclock.StreamBinary()}
	}
	return nil
}

// decode materializes the first limit events of data (all of them when
// limit <= 0) with the workload's own decoder, so thread and lock ids
// are exactly the ones a RunStream pass over data sees.
func (w *workload) decode(data []byte, limit int) (*treeclock.Trace, error) {
	sc := w.scanner(bytes.NewReader(data))
	hint := w.events
	if limit > 0 {
		hint = limit
	}
	evs := make([]treeclock.Event, 0, hint+trace.DefaultBatchSize)
	buf := make([]treeclock.Event, trace.DefaultBatchSize)
	for limit <= 0 || len(evs) < limit {
		n, ok := sc.NextBatch(buf)
		evs = append(evs, buf[:n]...)
		if !ok {
			break
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("decode %s: %w", w.name, err)
	}
	if limit > 0 && len(evs) > limit {
		evs = evs[:limit]
	}
	meta := treeclock.Meta{Name: w.name}
	for _, ev := range evs {
		meta.Threads = max(meta.Threads, int(ev.T)+1)
		switch {
		case ev.Kind.IsAccess():
			meta.Vars = max(meta.Vars, int(ev.Obj)+1)
		case ev.Kind.IsSync():
			meta.Locks = max(meta.Locks, int(ev.Obj)+1)
		default:
			meta.Threads = max(meta.Threads, int(ev.Obj)+1)
		}
	}
	return &treeclock.Trace{Meta: meta, Events: evs}, nil
}
