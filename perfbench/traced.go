package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"treeclock"
	"treeclock/internal/core"
	"treeclock/internal/trace"
	"treeclock/internal/vc"
	"treeclock/internal/vt"
)

// feedBatch is the number of events per Session.Feed in the traced run.
const feedBatch = 4096

// span is one timed call at a layer boundary. Spans of one engine pass
// share Pass; Parent is the id of the pass span, -1 for the pass span
// itself. Times are ns since the traced run started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Pass   int    `json:"pass"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer keeps spans in memory. A nil *tracer records nothing, so the
// untraced pass runs the same loop without the clock reads.
type tracer struct {
	epoch time.Time
	spans []span
	pass  int // id of the open pass span
}

func (tr *tracer) now() int64 {
	if tr == nil {
		return 0
	}
	return int64(time.Since(tr.epoch))
}

// add records a child span of the open pass.
func (tr *tracer) add(name string, start int64) {
	if tr == nil {
		return
	}
	tr.spans = append(tr.spans, span{ID: len(tr.spans), Parent: tr.pass, Pass: tr.pass, Name: name, Start: start, End: tr.now()})
}

// beginPass opens a pass span; endPass closes it.
func (tr *tracer) beginPass(name string) {
	if tr == nil {
		return
	}
	tr.pass = len(tr.spans)
	now := tr.now()
	tr.spans = append(tr.spans, span{ID: tr.pass, Parent: -1, Pass: tr.pass, Name: name, Start: now, End: now})
}

func (tr *tracer) endPass() {
	if tr == nil {
		return
	}
	tr.spans[tr.pass].End = tr.now()
}

// sessionStats is what the traced run reads from one session pass.
type sessionStats struct {
	wall       time.Duration
	ckptBytes  int
	feedNs     int64
	snapshotNs []float64
}

// sessionPass drives one engine through a push-mode Session: the
// workload's scanner decodes feedBatch events at a time, each batch is
// fed, the session is snapshotted every tracedCkptEvery events, and
// Result seals it. The session is returned open, for the caller to
// measure what it retains before closing it.
func sessionPass(w *workload, in input, engine string, tr *tracer) (*treeclock.Session, *treeclock.StreamResult, sessionStats, error) {
	var st sessionStats
	began := time.Now()
	tr.beginPass(engine)
	sess, err := treeclock.Open(engine)
	if err != nil {
		return nil, nil, st, err
	}
	sc := w.scanner(bytes.NewReader(in.data))
	buf := make([]treeclock.Event, feedBatch)
	var snap bytes.Buffer
	next := uint64(tracedCkptEvery)
	for {
		start := tr.now()
		n, ok := sc.NextBatch(buf)
		tr.add("decode.next_batch", start)
		if n > 0 {
			start = tr.now()
			err = sess.Feed(buf[:n])
			tr.add("session.feed", start)
			if tr != nil {
				st.feedNs += tr.now() - start
			}
			if err != nil {
				break
			}
		}
		if sess.Events() >= next {
			snap.Reset()
			start = tr.now()
			err = sess.Snapshot(&snap)
			tr.add("session.snapshot", start)
			if tr != nil {
				st.snapshotNs = append(st.snapshotNs, float64(tr.now()-start))
			}
			st.ckptBytes = snap.Len()
			next += tracedCkptEvery
			if err != nil {
				break
			}
		}
		if !ok {
			err = sc.Err()
			break
		}
	}
	var res *treeclock.StreamResult
	if err == nil {
		start := tr.now()
		res, err = sess.Result()
		tr.add("session.result", start)
	}
	tr.endPass()
	st.wall = time.Since(began)
	if err != nil {
		sess.Close()
		return nil, nil, st, err
	}
	return sess, res, st, nil
}

// liveHeap returns the live heap after a forced collection.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// tracedRun measures the per-layer metrics: session spans, layer
// stacking and kernel replay over the workload, one engine at a time.
func tracedRun(w *workload, in input, seed int64, budget time.Duration, spanDir string, t *tally, metrics map[string]metric) error {
	start := time.Now()
	n := float64(in.events)
	engines := treeclock.Engines()
	check := newResultChecker(in.events)
	put := func(name string, v float64, unit string) { metrics[name] = metric{v, unit} }

	// Spans: each engine runs one untraced session pass (which also
	// measures retained state) and the same pass traced, alternating
	// which goes first.
	tr := &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
	var plain, traced time.Duration
	untracedPass := func(engine string) {
		before := liveHeap()
		sess, res, st, err := sessionPass(w, in, engine, nil)
		if err == nil {
			err = check.check(engine, res)
			put(engine+".retained_kib", (float64(liveHeap())-float64(before))/1024, "KiB")
			sess.Close()
		}
		if t.record("untraced session "+engine, err) {
			plain += st.wall
		}
	}
	tracedPass := func(engine string) {
		runtime.GC()
		sess, res, st, err := sessionPass(w, in, engine, tr)
		if err == nil {
			err = check.check(engine, res)
			sess.Close()
		}
		if !t.record("traced session "+engine, err) {
			return
		}
		traced += st.wall
		put(engine+".feed_ns_per_ev", float64(st.feedNs)/n, "ns/ev")
		put(engine+".ckpt_save_ms", median(st.snapshotNs)/1e6, "ms")
		put(engine+".ckpt_bytes", float64(st.ckptBytes), "B")
		put(engine+".pairs", float64(res.Summary.Total), "count")
	}
	for i, engine := range engines {
		if i%2 == 0 {
			untracedPass(engine)
			tracedPass(engine)
		} else {
			tracedPass(engine)
			untracedPass(engine)
		}
	}
	put("trace_overhead_frac", float64(traced)/float64(plain)-1, "frac")
	if err := writeSpans(spanDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed), tr.spans); err != nil {
		return err
	}

	// The in-memory events every later stage replays, decoded from the
	// workload's bytes so ids match the passes above.
	events, err := w.decode(in.data, 0)
	if err != nil {
		return err
	}

	// Kernel replay, one engine at a time so only one log is live.
	perEntry := make(map[string]float64, len(engines))
	for _, engine := range engines {
		info := engineInfo(engine)
		var (
			k   kernelStats
			err error
		)
		if info.Clock == "tree" {
			k, err = measureKernel(info.Order, core.Factory, replayTree, events)
		} else {
			k, err = measureKernel(info.Order, vc.Factory, replayVC, events)
		}
		if !t.record("kernel replay "+engine, err) {
			continue
		}
		perEntry[engine] = k.ns / float64(k.entries)
		put(engine+".kernel_ns_per_ev", k.ns/n, "ns/ev")
		put(engine+".kernel_ns_per_entry", perEntry[engine], "ns/entry")
		put(engine+".join_ns_per_op", k.ops.joinNs/float64(max(k.ops.joins, 1)), "ns/op")
		put(engine+".copy_ns_per_op", k.ops.copyNs/float64(max(k.ops.copies, 1)), "ns/op")
		put(engine+".entries", float64(k.entries), "count")
	}
	for _, order := range []string{"hb", "shb", "maz", "wcp"} {
		put(order+".tc_vc_entry_cost_ratio", perEntry[order+"-tree"]/perEntry[order+"-vc"], "ratio")
	}

	// Layer stacking with the rest of the budget.
	s := runStacks(stackPasses(w, in, events, check), start.Add(budget), t)
	put("trace.decode_ns_per_ev", s["decode"]/n, "ns/ev")
	put("engine.dispatch_ns_per_ev", (s["dispatch"]-s["replay"])/n, "ns/ev")
	for _, engine := range engines {
		clock := engineInfo(engine).Clock
		put(engine+".semantics_ns_per_ev", (s["sem/"+engine]-s["runtime/"+clock])/n, "ns/ev")
		put(engine+".detect_ns_per_ev", (s["full/"+engine]-s["sem/"+engine])/n, "ns/ev")
	}
	logf("traced run took %.1fs", time.Since(start).Seconds())
	return nil
}

// kernelReps is how many times the timed replay runs; the median counts.
const kernelReps = 3

// kernelStats is one engine's kernel replay.
type kernelStats struct {
	ns      float64 // replay time minus the empty replay, in ns
	entries uint64  // entries touched, from the counted replay
	ops     opTimes
}

// measureKernel records the order's engine over clocks from f, checks
// that a counted replay reproduces the run, and times the replay.
func measureKernel[C vt.Clock[C]](order string, f func(*vt.WorkStats) vt.Factory[C], replay func([]uint64, uint32, *vt.WorkStats) []C, tr *trace.Trace) (kernelStats, error) {
	var k kernelStats
	rec, err := record(order, f, tr)
	if err != nil {
		return k, err
	}
	st, err := checkReplay(rec, replay)
	if err != nil {
		return k, err
	}
	k.entries = st.Entries
	var full, empty []float64
	for i := 0; i < kernelReps; i++ {
		runtime.GC()
		began := time.Now()
		replay(rec.log.ops, rec.log.clocks, nil)
		full = append(full, float64(time.Since(began)))
		began = time.Now()
		sink = emptyReplay(rec.log.ops)
		empty = append(empty, float64(time.Since(began)))
	}
	k.ns = median(full) - median(empty)
	runtime.GC()
	k.ops = timeOps(rec.log.ops, rec.log.clocks, f(nil))
	return k, nil
}

// sink keeps emptyReplay's result alive.
var sink uint64

// writeSpans writes spans as JSON lines to dir/name.
func writeSpans(dir, name string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	logf("wrote %d spans to %s", len(spans), filepath.Join(dir, name))
	return nil
}
