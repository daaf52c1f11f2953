package daemon

import (
	"bufio"
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"treeclock"
	"treeclock/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenResult is a StreamResult exercising every field the result
// frame carries.
func goldenResult() *treeclock.StreamResult {
	return &treeclock.StreamResult{
		Engine: "wcp-tree",
		Meta:   treeclock.Meta{Name: "golden", Threads: 3, Locks: 2, Vars: 300},
		Events: 1 << 40,
		Summary: treeclock.RaceSummary{
			Total: 9, WriteWrite: 4, WriteRead: 3, ReadWrite: 2, Vars: 2,
		},
		Samples: []treeclock.Race{
			{Kind: treeclock.WriteReadRace, Var: 4, Prior: treeclock.Epoch{T: 1, Clk: 7}, Access: treeclock.Epoch{T: 2, Clk: 3}},
			{Kind: treeclock.WriteWriteRace, Var: 299, Prior: treeclock.Epoch{T: 0, Clk: 1 << 20}, Access: treeclock.Epoch{T: 2, Clk: 9}},
		},
		Timestamps: []treeclock.Vector{{1, 2, 3}, {0, 5, 0}, {130, 0, 70000}},
		Mem: &treeclock.MemStats{
			HistEntries: 1, PeakLockHist: 2, DroppedEntries: 3, RetainedBytes: 4,
			SummaryVectors: 5, FreeVectors: 6, SummaryEvictions: 7, ThreadSlots: 8,
			FreeSlots: 9, RetiredSlots: 10, ReusedSlots: 11, InternedNames: 12, InternEvictions: 13,
		},
	}
}

// TestProtoGolden pins the open, result and pos frame payloads byte
// for byte (-update rewrites the goldens), and requires each golden to
// decode back to the value it was encoded from.
func TestProtoGolden(t *testing.T) {
	spec := &openSpec{
		ID: "golden-1", Engine: "shb-vc", Workers: 4,
		FlatWeak: true, NoAnalysis: true, SlotReclaim: true, SummaryCap: 300, Resume: true,
	}
	res := goldenResult()
	cases := []struct {
		name   string
		encode func() ([]byte, error)
		check  func(payload []byte) error
	}{
		{"open", func() ([]byte, error) { return encodeOpen(spec) }, func(p []byte) error {
			got, err := decodeOpen(p)
			if err == nil && !reflect.DeepEqual(got, spec) {
				t.Errorf("open golden decodes to %+v, want %+v", got, spec)
			}
			return err
		}},
		{"result", func() ([]byte, error) { return encodeResult(res) }, func(p []byte) error {
			got, err := decodeResult(p)
			if err == nil && !reflect.DeepEqual(got, res) {
				t.Errorf("result golden decodes to %+v, want %+v", got, res)
			}
			return err
		}},
		{"pos", func() ([]byte, error) { return encodePos(1<<33, "over budget") }, func(p []byte) error {
			pos, reason, err := decodePos(p)
			if err == nil && (pos != 1<<33 || reason != "over budget") {
				t.Errorf("pos golden decodes to (%d, %q)", pos, reason)
			}
			return err
		}},
	}
	for _, tc := range cases {
		got, err := tc.encode()
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		path := filepath.Join("testdata", "frame_"+tc.name+".golden")
		if *updateGolden {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create the golden file)", err)
		}
		if string(got) != string(want) {
			t.Errorf("%s frame bytes changed: %d bytes, golden %d bytes", tc.name, len(got), len(want))
		}
		if err := tc.check(want); err != nil {
			t.Errorf("%s: decoding golden: %v", tc.name, err)
		}
	}
}

// FuzzDaemonFrame feeds arbitrary bytes to readFrame and to each
// payload decoder: none may panic, and none may allocate more than a
// small multiple of the input — a hostile length or count must fail
// before it sizes an allocation.
func FuzzDaemonFrame(f *testing.F) {
	open, _ := encodeOpen(&openSpec{ID: "s", Engine: "hb-tree", Workers: 2})
	res, _ := encodeResult(goldenResult())
	pos, _ := encodePos(42, "detached")
	evs := encodeEvents(nil, []trace.Event{{T: 1, Obj: 2, Kind: trace.Write}, {T: 0, Obj: 1, Kind: trace.Fork}})
	for _, p := range [][]byte{open, res, pos, evs} {
		f.Add(p)
		var frame bytes.Buffer
		w := bufio.NewWriter(&frame)
		if err := writeFrame(w, frameEvents, p); err != nil {
			f.Fatal(err)
		}
		f.Add(frame.Bytes())
	}
	f.Add([]byte{0x00, 0x40, 0x00, 0x00, 'E'})      // claims a 4 MiB frame
	f.Add([]byte{0x80, 0x80, 0x40, 0x00, 0x00})     // events: 2^20 claimed, no payload
	f.Add(append([]byte("TCKP\x02"), res[5:20]...)) // truncated result
	empty, _ := encodeResult(&treeclock.StreamResult{Timestamps: make([]treeclock.Vector, 200_000)})
	f.Add(empty) // 200k one-byte timestamp vectors
	f.Fuzz(func(t *testing.T, data []byte) {
		decode := []func(){
			func() { readFrame(bufio.NewReader(bytes.NewReader(data))) },
			func() { decodeOpen(data) },
			func() { decodeResult(data) },
			func() { decodePos(data) },
			func() { decodeEvents(data, nil) },
		}
		for i, fn := range decode {
			if got, limit := allocated(fn), uint64(16*len(data)+1<<18); got > limit {
				t.Fatalf("decoder %d allocated %d bytes for a %d-byte input (limit %d)", i, got, len(data), limit)
			}
		}
	})
}

// allocated reports the bytes fn allocates on the heap.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
