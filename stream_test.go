package treeclock_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"treeclock"
	"treeclock/internal/bench"
	"treeclock/internal/oracle"
)

// generatorSuite returns one trace per generator in internal/gen (via
// the façade), sized small enough that the full differential sweep
// (every generator × every registry engine × both formats) stays fast.
func generatorSuite() []*treeclock.Trace {
	return []*treeclock.Trace{
		treeclock.GenerateMixed(treeclock.GenConfig{
			Name: "mixed", Threads: 10, Locks: 6, Vars: 32,
			Events: 4000, Seed: 21, SyncFrac: 0.3, LockAffinity: 2, Groups: 3, HotFrac: 0.1,
		}),
		treeclock.GenerateSingleLock(6, 2000, 1),
		treeclock.GenerateFiftyLocksSkewed(12, 2500, 2),
		treeclock.GenerateStar(8, 2000, 3),
		treeclock.GeneratePairwise(6, 2000, 4),
		treeclock.GenerateProducerConsumer(3, 3, 2000, 5),
		treeclock.GeneratePipeline(4, 2000, 6),
		treeclock.GenerateBarrierPhases(5, 6, 10, 7),
		treeclock.GenerateReadersWriters(8, 2000, 8, true),
		treeclock.GenerateForkJoinTree(5, 40, 9),
		treeclock.GenerateNestedLocks(6, 3, 2000, 10),
		treeclock.GenerateGuardedPairs(6, 8, 2000, 11),
		treeclock.GeneratePredictivePairs(6, 1500, 12),
	}
}

// materialized is the reference side of the streaming differential
// tests: the paper harness (bench.Run for the pair count,
// bench.SamplePairs for the retained samples) over the materialized
// trace, plus a replay of the same trace through RunStreamSource for
// the full summary and the final timestamps.
func materialized(t *testing.T, tr *treeclock.Trace, engineName string) (pairs string, replay *treeclock.StreamResult) {
	t.Helper()
	info := engineInfo(t, engineName)
	po, ck := bench.PO(info.Order), bench.Clock(info.Clock)
	run, err := bench.Run(tr, bench.Config{PO: po, Clock: ck, Analysis: true})
	if err != nil {
		t.Fatal(err)
	}
	samples, err := bench.SamplePairs(tr, po, ck)
	if err != nil {
		t.Fatal(err)
	}
	replay, err = treeclock.RunStreamSource(engineName, treeclock.NewTraceReplayer(tr))
	if err != nil {
		t.Fatal(err)
	}
	return pairReport(run.Pairs, samples), replay
}

// engineInfo returns the registry entry named engineName.
func engineInfo(t *testing.T, engineName string) treeclock.EngineInfo {
	t.Helper()
	for _, info := range treeclock.EngineInfos() {
		if info.Name == engineName {
			return info
		}
	}
	t.Fatalf("unknown engine %q", engineName)
	return treeclock.EngineInfo{}
}

// pairReport renders a pair count and its samples deterministically.
func pairReport(total uint64, samples []treeclock.Race) string {
	var b strings.Builder
	fmt.Fprintf(&b, "total=%d\n", total)
	for _, p := range samples {
		fmt.Fprintf(&b, "%s\n", p)
	}
	return b.String()
}

// raceReport renders a summary and its samples deterministically; the
// streaming and materialized paths must produce byte-identical reports.
func raceReport(sum treeclock.RaceSummary, samples []treeclock.Race) string {
	var b strings.Builder
	fmt.Fprintf(&b, "total=%d ww=%d wr=%d rw=%d vars=%d\n",
		sum.Total, sum.WriteWrite, sum.WriteRead, sum.ReadWrite, sum.Vars)
	for _, p := range samples {
		fmt.Fprintf(&b, "%s\n", p)
	}
	return b.String()
}

// TestStreamingMatchesMaterialized is the acceptance test of the
// streaming path: for every generator and every registry engine,
// feeding the serialized trace through RunStream as a plain io.Reader —
// with no precomputed Meta — must yield the paper harness's pair count
// and samples over the materialized trace, and a race report and final
// vector timestamps identical to replaying that trace.
func TestStreamingMatchesMaterialized(t *testing.T) {
	for _, tr := range generatorSuite() {
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: invalid generated trace: %v", tr.Meta.Name, err)
		}
		var text, bin bytes.Buffer
		if err := treeclock.WriteTraceText(&text, tr); err != nil {
			t.Fatal(err)
		}
		if err := treeclock.WriteTraceBinary(&bin, tr); err != nil {
			t.Fatal(err)
		}
		// The text format interns identifiers in order of first
		// appearance, so the reference for the text path is the
		// re-parsed trace (same renaming); the binary format keeps ids
		// verbatim, so its reference is the original trace.
		reparsed, err := treeclock.ParseTrace(bytes.NewReader(text.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		for _, engineName := range treeclock.Engines() {
			t.Run(tr.Meta.Name+"/"+engineName, func(t *testing.T) {
				checkStream(t, engineName, reparsed, text.Bytes())
				checkStream(t, engineName, tr, bin.Bytes(), treeclock.StreamBinary())
			})
		}
	}
}

// checkStream streams data through engineName and compares against the
// materialized run of ref.
func checkStream(t *testing.T, engineName string, ref *treeclock.Trace, data []byte, opts ...treeclock.StreamOption) {
	t.Helper()
	wantPairs, replay := materialized(t, ref, engineName)
	res, err := treeclock.RunStream(engineName, bytes.NewReader(data), opts...)
	if err != nil {
		t.Fatalf("RunStream: %v", err)
	}
	if res.Events != uint64(ref.Len()) {
		t.Errorf("Events = %d, want %d", res.Events, ref.Len())
	}
	if got := pairReport(res.Summary.Total, res.Samples); got != wantPairs {
		t.Errorf("pairs diverge from the paper harness:\nstreaming:\n%s\nbench:\n%s", got, wantPairs)
	}
	if got, want := raceReport(res.Summary, res.Samples), raceReport(replay.Summary, replay.Samples); got != want {
		t.Errorf("race report diverges:\nstreaming:\n%s\nreplayed:\n%s", got, want)
	}
	if res.Meta.Threads > ref.Meta.Threads {
		t.Fatalf("discovered %d threads, reference has %d", res.Meta.Threads, ref.Meta.Threads)
	}
	if len(res.Timestamps) != len(replay.Timestamps) {
		t.Fatalf("%d timestamps, replay has %d", len(res.Timestamps), len(replay.Timestamps))
	}
	for th, gotV := range res.Timestamps {
		if wantV := replay.Timestamps[th]; !gotV.Equal(wantV) {
			t.Fatalf("thread %d timestamp diverges: streaming %v, replayed %v", th, gotV, wantV)
		}
	}
}

// TestLockClockBeforeThreadGrowth pins, across the whole registry,
// that a lock clock allocated at an early (small) thread capacity
// still yields correct results after the thread space grows: the
// streaming run allocates lock 0's clock when only thread 0 exists,
// and every thread's final timestamp must still equal the
// definition-level oracle's (the timestamp of the thread's last
// event). The binary format keeps thread ids verbatim, so the jump
// from thread 0 to thread 5 survives serialization.
func TestLockClockBeforeThreadGrowth(t *testing.T) {
	tr := &treeclock.Trace{
		Meta: treeclock.Meta{Name: "lock-before-growth", Threads: 6, Locks: 1, Vars: 2},
		Events: []treeclock.Event{
			{T: 0, Obj: 0, Kind: treeclock.Acquire},
			{T: 0, Obj: 0, Kind: treeclock.Write},
			{T: 0, Obj: 0, Kind: treeclock.Release},
			{T: 5, Obj: 1, Kind: treeclock.Write},
			{T: 5, Obj: 0, Kind: treeclock.Acquire},
			{T: 5, Obj: 0, Kind: treeclock.Write},
			{T: 5, Obj: 0, Kind: treeclock.Release},
			{T: 2, Obj: 0, Kind: treeclock.Acquire},
			{T: 2, Obj: 0, Kind: treeclock.Read},
			{T: 2, Obj: 0, Kind: treeclock.Release},
		},
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("invalid trace: %v", err)
	}
	var bin bytes.Buffer
	if err := treeclock.WriteTraceBinary(&bin, tr); err != nil {
		t.Fatal(err)
	}
	orders := map[string]oracle.PO{"hb": oracle.HB, "shb": oracle.SHB, "maz": oracle.MAZ, "wcp": oracle.WCP}
	for _, info := range treeclock.EngineInfos() {
		t.Run(info.Name, func(t *testing.T) {
			checkStream(t, info.Name, tr, bin.Bytes(), treeclock.StreamBinary())
			res, err := treeclock.RunStream(info.Name, bytes.NewReader(bin.Bytes()), treeclock.StreamBinary())
			if err != nil {
				t.Fatal(err)
			}
			post := oracle.Timestamps(tr, orders[info.Order]).Post
			for i, ev := range tr.Events {
				last := true
				for _, later := range tr.Events[i+1:] {
					last = last && later.T != ev.T
				}
				if last && !res.Timestamps[ev.T].Equal(post[i]) {
					t.Errorf("thread %d: timestamp %v, oracle %v", ev.T, res.Timestamps[ev.T], post[i])
				}
			}
		})
	}
}

// TestRunStreamSource covers the event-source entry point and the
// retained-state reporting: a bounded endless generator streams
// through the registry, WCP engines report Mem (with compaction
// keeping the history bounded), and the other orders report nil.
func TestRunStreamSource(t *testing.T) {
	const n = 50000
	for _, engineName := range treeclock.Engines() {
		src := treeclock.LimitEvents(treeclock.GenerateHotLockStream(4, 17), n)
		res, err := treeclock.RunStreamSource(engineName, src)
		if err != nil {
			t.Fatalf("%s: %v", engineName, err)
		}
		if res.Events != n {
			t.Errorf("%s: processed %d events, want %d", engineName, res.Events, n)
		}
		if strings.HasPrefix(engineName, "wcp-") {
			if res.Mem == nil {
				t.Fatalf("%s: no retained-state report", engineName)
			}
			if res.Mem.DroppedEntries == 0 {
				t.Errorf("%s: compaction never ran on the hot-lock stream: %+v", engineName, res.Mem)
			}
			if res.Mem.PeakLockHist > 16 {
				t.Errorf("%s: peak history %d on a 4-thread hot lock", engineName, res.Mem.PeakLockHist)
			}
		} else if res.Mem != nil {
			t.Errorf("%s: unexpected retained-state report %+v", engineName, res.Mem)
		}
	}
	// The source path must agree with the reader path byte for byte.
	tr := treeclock.GenerateMixed(treeclock.GenConfig{
		Name: "src-vs-reader", Threads: 6, Locks: 4, Vars: 16,
		Events: 3000, Seed: 23, SyncFrac: 0.4,
	})
	var bin bytes.Buffer
	if err := treeclock.WriteTraceBinary(&bin, tr); err != nil {
		t.Fatal(err)
	}
	for _, engineName := range treeclock.Engines() {
		fromReader, err := treeclock.RunStream(engineName, bytes.NewReader(bin.Bytes()), treeclock.StreamBinary())
		if err != nil {
			t.Fatal(err)
		}
		fromSource, err := treeclock.RunStreamSource(engineName, treeclock.NewTraceReplayer(tr))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := raceReport(fromSource.Summary, fromSource.Samples), raceReport(fromReader.Summary, fromReader.Samples); got != want {
			t.Errorf("%s: source path diverges from reader path:\nsource:\n%s\nreader:\n%s", engineName, got, want)
		}
	}
}

// TestRunStreamNoAnalysis covers the pure partial-order configuration.
func TestRunStreamNoAnalysis(t *testing.T) {
	tr := treeclock.GenerateStar(6, 1000, 11)
	var text bytes.Buffer
	if err := treeclock.WriteTraceText(&text, tr); err != nil {
		t.Fatal(err)
	}
	res, err := treeclock.RunStream("hb-tree", bytes.NewReader(text.Bytes()), treeclock.StreamNoAnalysis())
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Total != 0 || res.Samples != nil {
		t.Errorf("analysis ran despite StreamNoAnalysis: %+v", res.Summary)
	}
	if res.Events != uint64(tr.Len()) {
		t.Errorf("Events = %d, want %d", res.Events, tr.Len())
	}
}

// TestRunStreamWorkStats checks the work counters flow through the
// streaming path.
func TestRunStreamWorkStats(t *testing.T) {
	tr := treeclock.GenerateSingleLock(5, 800, 13)
	var text bytes.Buffer
	if err := treeclock.WriteTraceText(&text, tr); err != nil {
		t.Fatal(err)
	}
	var st treeclock.WorkStats
	if _, err := treeclock.RunStream("hb-vc", bytes.NewReader(text.Bytes()), treeclock.StreamWorkStats(&st)); err != nil {
		t.Fatal(err)
	}
	if st.Changed == 0 || st.Entries == 0 {
		t.Errorf("no work recorded: %+v", st)
	}
}

// TestRunStreamErrors covers registry misses and malformed input.
func TestRunStreamErrors(t *testing.T) {
	if _, err := treeclock.RunStream("hb-quantum", strings.NewReader("")); err == nil {
		t.Error("unknown engine accepted")
	}
	if _, err := treeclock.RunStream("hb-tree", strings.NewReader("t0 frobnicate x0\n")); err == nil {
		t.Error("malformed trace accepted")
	}
}

// TestRunStreamValidate covers the incremental well-formedness option.
func TestRunStreamValidate(t *testing.T) {
	bad := "t0 acq l0\nt1 acq l0\n"
	if _, err := treeclock.RunStream("hb-tree", strings.NewReader(bad), treeclock.StreamValidate()); err == nil {
		t.Error("double acquire accepted with StreamValidate")
	}
	if _, err := treeclock.RunStream("hb-tree", strings.NewReader(bad)); err != nil {
		t.Errorf("without StreamValidate the stream should be accepted: %v", err)
	}
	good := "t0 acq l0\nt0 w x0\nt0 rel l0\n"
	res, err := treeclock.RunStream("hb-tree", strings.NewReader(good), treeclock.StreamValidate())
	if err != nil {
		t.Fatalf("well-formed trace rejected: %v", err)
	}
	if res.Events != 3 {
		t.Errorf("Events = %d, want 3", res.Events)
	}
}

// TestEngineRegistry sanity-checks the registry listing.
func TestEngineRegistry(t *testing.T) {
	names := treeclock.Engines()
	want := []string{"hb-tree", "hb-vc", "maz-tree", "maz-vc", "shb-tree", "shb-vc", "wcp-tree", "wcp-vc"}
	if len(names) != len(want) {
		t.Fatalf("Engines() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Engines() = %v, want %v", names, want)
		}
	}
	for _, info := range treeclock.EngineInfos() {
		if info.Doc == "" || info.Order == "" || info.Clock == "" {
			t.Errorf("incomplete registry entry: %+v", info)
		}
	}
}

// TestClockVariantsByteIdentical is the metamorphic clock-equivalence
// check of the registry: for every generator scenario and every
// partial order, the tree-clock and vector-clock variants must render
// byte-identical race reports and identical final timestamps — the
// data structure must never leak into the analysis result.
func TestClockVariantsByteIdentical(t *testing.T) {
	orders := map[string][2]string{}
	for _, info := range treeclock.EngineInfos() {
		pair := orders[info.Order]
		if info.Clock == "tree" {
			pair[0] = info.Name
		} else {
			pair[1] = info.Name
		}
		orders[info.Order] = pair
	}
	for _, tr := range generatorSuite() {
		var bin bytes.Buffer
		if err := treeclock.WriteTraceBinary(&bin, tr); err != nil {
			t.Fatal(err)
		}
		for order, pair := range orders {
			t.Run(tr.Meta.Name+"/"+order, func(t *testing.T) {
				if pair[0] == "" || pair[1] == "" {
					t.Fatalf("order %q missing a clock variant: %v", order, pair)
				}
				resTree, err := treeclock.RunStream(pair[0], bytes.NewReader(bin.Bytes()), treeclock.StreamBinary())
				if err != nil {
					t.Fatal(err)
				}
				resVC, err := treeclock.RunStream(pair[1], bytes.NewReader(bin.Bytes()), treeclock.StreamBinary())
				if err != nil {
					t.Fatal(err)
				}
				gotTree := raceReport(resTree.Summary, resTree.Samples)
				gotVC := raceReport(resVC.Summary, resVC.Samples)
				if gotTree != gotVC {
					t.Errorf("race reports diverge:\n%s:\n%s\n%s:\n%s", pair[0], gotTree, pair[1], gotVC)
				}
				if len(resTree.Timestamps) != len(resVC.Timestamps) {
					t.Fatalf("timestamp counts diverge: %d vs %d", len(resTree.Timestamps), len(resVC.Timestamps))
				}
				for th := range resTree.Timestamps {
					if !resTree.Timestamps[th].Equal(resVC.Timestamps[th]) {
						t.Errorf("thread %d: %v vs %v", th, resTree.Timestamps[th], resVC.Timestamps[th])
					}
				}
			})
		}
	}
}

// TestWCPStreamFindsPredictiveRace pins the registry-level behavior
// difference on the predictive-race generator: HB reports nothing,
// WCP reports the hidden races, on both clock variants.
func TestWCPStreamFindsPredictiveRace(t *testing.T) {
	tr := treeclock.GeneratePredictivePairs(4, 400, 77)
	var text bytes.Buffer
	if err := treeclock.WriteTraceText(&text, tr); err != nil {
		t.Fatal(err)
	}
	for _, engineName := range []string{"hb-tree", "hb-vc"} {
		res, err := treeclock.RunStream(engineName, bytes.NewReader(text.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if res.Summary.Total != 0 {
			t.Errorf("%s: HB must miss the predictive races, got %d", engineName, res.Summary.Total)
		}
	}
	hbRes, err := treeclock.RunStream("hb-tree", bytes.NewReader(text.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, engineName := range []string{"wcp-tree", "wcp-vc"} {
		res, err := treeclock.RunStream(engineName, bytes.NewReader(text.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if res.Summary.Total == 0 {
			t.Errorf("%s: WCP must flag the predictive races", engineName)
		}
		// The reported timestamps must be the weak order, not the HB
		// scaffolding: on this trace WCP orders strictly less than HB,
		// so some thread must know strictly less about some other.
		weaker := false
		for th, wv := range res.Timestamps {
			hv := hbRes.Timestamps[th]
			for u := range hv {
				if wv.Get(treeclock.ThreadID(u)) > hv.Get(treeclock.ThreadID(u)) {
					t.Fatalf("%s: thread %d WCP timestamp %v exceeds HB %v", engineName, th, wv, hv)
				}
				if wv.Get(treeclock.ThreadID(u)) < hv.Get(treeclock.ThreadID(u)) {
					weaker = true
				}
			}
		}
		if !weaker {
			t.Errorf("%s: Timestamps equal HB's — the weak-order override is not wired in", engineName)
		}
	}
}
