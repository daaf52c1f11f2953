// Benchmarks regenerating the paper's evaluation, one family per table
// and figure.
//
//	go test -bench=. -benchmem .
//
// Benchmarks use moderate trace sizes so the full sweep finishes in
// minutes; cmd/tcbench runs the same experiments at configurable scale
// and prints paper-style tables.
package treeclock_test

import (
	"bytes"
	"sync"
	"testing"

	"treeclock"
	"treeclock/internal/bench"
	"treeclock/internal/core"
	"treeclock/internal/gen"
	"treeclock/internal/trace"
)

// traceCache memoizes generated workloads across benchmarks.
var traceCache sync.Map

func cached(key string, build func() *trace.Trace) *trace.Trace {
	if v, ok := traceCache.Load(key); ok {
		return v.(*trace.Trace)
	}
	tr := build()
	v, _ := traceCache.LoadOrStore(key, tr)
	return v.(*trace.Trace)
}

// repTrace is the representative communication-rich workload used for
// the Table 2 / Figure 6 benchmark families.
func repTrace() *trace.Trace {
	return cached("rep", func() *trace.Trace {
		return gen.Mixed(gen.Config{
			Name: "rep-k32", Threads: 32, Locks: 24, Vars: 4096,
			Events: 200_000, Seed: 11, SyncFrac: 0.25,
			LockAffinity: 3, Groups: 6, HotFrac: 0.06,
		})
	})
}

// benchRun is bench.Run for benchmarks: the harness only fails on an
// order or clock outside the registry.
func benchRun(b *testing.B, tr *trace.Trace, cfg bench.Config) bench.Result {
	b.Helper()
	r, err := bench.Run(tr, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

func runPO(b *testing.B, tr *trace.Trace, po bench.PO, ck bench.Clock, analysis bool) {
	b.Helper()
	b.ReportAllocs()
	var processing float64 // event-processing time, excluding engine setup
	for i := 0; i < b.N; i++ {
		r := benchRun(b, tr, bench.Config{PO: po, Clock: ck, Analysis: analysis})
		processing += r.Seconds()
	}
	b.ReportMetric(float64(tr.Len())*float64(b.N)/processing, "events/s")
	b.ReportMetric(processing/float64(b.N)*1e9, "process-ns/op")
}

// BenchmarkTable2 regenerates the PO rows of Table 2: compare the tc
// and vc sub-benchmarks per partial order for the speedup.
func BenchmarkTable2(b *testing.B) {
	for _, po := range bench.POs {
		for _, ck := range []bench.Clock{bench.TC, bench.VC} {
			b.Run(po.String()+"/"+ck.String(), func(b *testing.B) {
				runPO(b, repTrace(), po, ck, false)
			})
		}
	}
}

// BenchmarkFig6Analysis regenerates the PO+Analysis rows (Table 2's
// second row / Figure 6's bottom panels).
func BenchmarkFig6Analysis(b *testing.B) {
	for _, po := range bench.POs {
		for _, ck := range []bench.Clock{bench.TC, bench.VC} {
			b.Run(po.String()+"/"+ck.String(), func(b *testing.B) {
				runPO(b, repTrace(), po, ck, true)
			})
		}
	}
}

// BenchmarkFig7SyncShare regenerates Figure 7's trend: HB+analysis at
// increasing synchronization shares; compare tc vs vc at each level —
// the speedup grows with the sync share.
func BenchmarkFig7SyncShare(b *testing.B) {
	levels := []struct {
		name string
		frac float64
	}{{"sync=5%", 0.05}, {"sync=20%", 0.2}, {"sync=45%", 0.45}}
	for _, lv := range levels {
		frac := lv.frac
		tr := cached("fig7-"+lv.name, func() *trace.Trace {
			return gen.Mixed(gen.Config{
				Name: "sync-sweep", Threads: 16, Locks: 8, Vars: 1024,
				Events: 150_000, Seed: 13, SyncFrac: frac,
			})
		})
		for _, ck := range []bench.Clock{bench.TC, bench.VC} {
			b.Run(lv.name+"/"+ck.String(), func(b *testing.B) {
				runPO(b, tr, bench.HB, ck, true)
			})
		}
	}
}

// BenchmarkFig8Work regenerates Figure 8's ratios: TCWork/VTWork
// (Theorem 1 bounds it by 3) and VCWork/VTWork, reported as metrics.
func BenchmarkFig8Work(b *testing.B) {
	tr := repTrace()
	var tcRatio, vcRatio float64
	for i := 0; i < b.N; i++ {
		tc := benchRun(b, tr, bench.Config{PO: bench.HB, Clock: bench.TC, Work: true})
		vc := benchRun(b, tr, bench.Config{PO: bench.HB, Clock: bench.VC, Work: true})
		tcRatio = float64(tc.Work.Entries) / float64(tc.Work.Changed)
		vcRatio = float64(vc.Work.Entries) / float64(vc.Work.Changed)
	}
	b.ReportMetric(tcRatio, "TCWork/VTWork")
	b.ReportMetric(vcRatio, "VCWork/VTWork")
}

// BenchmarkFig9WorkRatio regenerates Figure 9's quantity per partial
// order: how many entries vector clocks touch per tree-clock entry.
func BenchmarkFig9WorkRatio(b *testing.B) {
	for _, po := range bench.POs {
		b.Run(po.String(), func(b *testing.B) {
			tr := repTrace()
			var ratio float64
			for i := 0; i < b.N; i++ {
				tc := benchRun(b, tr, bench.Config{PO: po, Clock: bench.TC, Work: true})
				vc := benchRun(b, tr, bench.Config{PO: po, Clock: bench.VC, Work: true})
				ratio = float64(vc.Work.Entries) / float64(tc.Work.Entries)
			}
			b.ReportMetric(ratio, "VCWork/TCWork")
		})
	}
}

// BenchmarkFig10 regenerates the scalability study: the four §6
// communication patterns at two thread counts, both clocks. The star
// topology shows tree clocks flat in k while vector clocks grow; the
// pairwise pattern is the tree clock's worst case.
func BenchmarkFig10(b *testing.B) {
	for _, sc := range gen.Scenarios {
		for _, k := range []int{16, 64} {
			tr := cached(sc.Name+string(rune('0'+k/16)), func() *trace.Trace {
				return sc.Fn(k, 150_000, int64(k))
			})
			for _, ck := range []bench.Clock{bench.TC, bench.VC} {
				b.Run(sc.Name+"/k="+itoa(k)+"/"+ck.String(), func(b *testing.B) {
					runPO(b, tr, bench.HB, ck, false)
				})
			}
		}
	}
}

// BenchmarkTable1Stats covers the Table 1/Table 3 machinery: suite
// generation plus statistics collection.
func BenchmarkTable1Stats(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, tr := range gen.Suite(0.02) {
			trace.ComputeStats(tr)
		}
	}
}

// BenchmarkAblation isolates each tree-clock mechanism on the star
// topology.
func BenchmarkAblation(b *testing.B) {
	tr := cached("ablation-star", func() *trace.Trace { return gen.Star(64, 150_000, 3) })
	modes := []struct {
		name string
		mode core.Mode
	}{
		{"full", core.ModeFull},
		{"no-indirect-break", core.ModeNoIndirectBreak},
		{"deep-copy", core.ModeDeepCopy},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			var processing float64
			for i := 0; i < b.N; i++ {
				processing += benchRun(b, tr, bench.Config{PO: bench.HB, Clock: bench.TC, Mode: m.mode}).Seconds()
			}
			b.ReportMetric(float64(tr.Len())*float64(b.N)/processing, "events/s")
		})
	}
	b.Run("vector-clock", func(b *testing.B) {
		b.ReportAllocs()
		var processing float64
		for i := 0; i < b.N; i++ {
			processing += benchRun(b, tr, bench.Config{PO: bench.HB, Clock: bench.VC}).Seconds()
		}
		b.ReportMetric(float64(tr.Len())*float64(b.N)/processing, "events/s")
	})
}

// streamTrace is the 1M-event workload for the streaming-vs-materialized
// comparison, serialized once per format and re-read from memory each
// iteration so the benchmark isolates the analysis path.
func streamTrace() *trace.Trace {
	return cached("stream-1m", func() *trace.Trace {
		return gen.Mixed(gen.Config{
			Name: "stream-1m", Threads: 32, Locks: 24, Vars: 8192,
			Events: 1_000_000, Seed: 17, SyncFrac: 0.25,
			LockAffinity: 3, Groups: 6, HotFrac: 0.06,
		})
	})
}

func streamBytes(b *testing.B, format treeclock.TraceFormat) []byte {
	b.Helper()
	key := "stream-1m-text"
	if format == treeclock.FormatBinary {
		key = "stream-1m-bin"
	}
	if v, ok := traceCache.Load(key); ok {
		return v.([]byte)
	}
	var buf bytes.Buffer
	var err error
	if format == treeclock.FormatBinary {
		err = trace.WriteBinary(&buf, streamTrace())
	} else {
		err = trace.WriteText(&buf, streamTrace())
	}
	if err != nil {
		b.Fatal(err)
	}
	v, _ := traceCache.LoadOrStore(key, buf.Bytes())
	return v.([]byte)
}

// BenchmarkStreaming measures the one-pass streaming path (RunStream:
// parse + analyze with no prior metadata and no materialization) for
// every registry engine over a 1M-event trace, in both formats.
// events/s counts trace events; allocs/op approximates the peak
// allocation behaviour of the O(live-state) streaming pipeline —
// compare against BenchmarkMaterialized, whose numbers exclude parsing
// but include the materialized event slice.
func BenchmarkStreaming(b *testing.B) {
	for _, name := range treeclock.Engines() {
		for _, f := range []struct {
			label  string
			format treeclock.TraceFormat
		}{{"text", treeclock.FormatText}, {"bin", treeclock.FormatBinary}} {
			data := streamBytes(b, f.format)
			b.Run(name+"/"+f.label, func(b *testing.B) {
				b.ReportAllocs()
				n := streamTrace().Len()
				for i := 0; i < b.N; i++ {
					res, err := treeclock.RunStream(name, bytes.NewReader(data),
						treeclock.StreamFormat(f.format))
					if err != nil {
						b.Fatal(err)
					}
					if res.Events != uint64(n) {
						b.Fatalf("streamed %d events, want %d", res.Events, n)
					}
				}
				b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
			})
		}
	}
}

// BenchmarkIngest compares the three ingestion modes — scalar (one
// interface call per event), batch (the default) and pipelined decode —
// on the text path of one tree and one vector engine. On single-core
// machines the pipeline matches the synchronous modes; it needs a
// second core to overlap decoding with analysis.
func BenchmarkIngest(b *testing.B) {
	modes := []struct {
		name string
		opts []treeclock.StreamOption
	}{
		{"scalar", []treeclock.StreamOption{treeclock.StreamScalar()}},
		{"batch", nil},
		{"pipeline", []treeclock.StreamOption{treeclock.WithPipeline(4)}},
	}
	data := streamBytes(b, treeclock.FormatText)
	n := streamTrace().Len()
	for _, name := range []string{"hb-tree", "hb-vc"} {
		for _, m := range modes {
			b.Run(name+"/"+m.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := treeclock.RunStream(name, bytes.NewReader(data), m.opts...)
					if err != nil {
						b.Fatal(err)
					}
					if res.Events != uint64(n) {
						b.Fatalf("streamed %d events, want %d", res.Events, n)
					}
				}
				b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
			})
		}
	}
}

// BenchmarkMaterialized is the baseline for BenchmarkStreaming: the
// same 1M-event workload analyzed from the pre-parsed in-memory trace
// with metadata known up front.
func BenchmarkMaterialized(b *testing.B) {
	tr := streamTrace()
	for _, info := range treeclock.EngineInfos() {
		po, ck := bench.PO(info.Order), bench.Clock(info.Clock)
		b.Run(info.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchRun(b, tr, bench.Config{PO: po, Clock: ck, Analysis: true})
			}
			b.ReportMetric(float64(tr.Len())*float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
