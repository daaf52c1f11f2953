package treeclock

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"treeclock/internal/gen"
	"treeclock/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestCheckpointGolden pins the checkpoint wire format: the bytes a
// fixed trace prefix checkpoints to must never change without a
// version bump (run with -update to regenerate after an intentional
// format change), and the committed golden must keep restoring into a
// run whose final report matches an uninterrupted one.
func TestCheckpointGolden(t *testing.T) {
	tr := GenerateMixed(GenConfig{
		Name: "golden", Threads: 4, Locks: 3, Vars: 16,
		Events: 1500, SyncFrac: 0.3, Seed: 42,
	})
	var text bytes.Buffer
	if err := WriteTraceText(&text, tr); err != nil {
		t.Fatal(err)
	}
	newSrc := func() EventSource { return trace.NewScanner(bytes.NewReader(text.Bytes())) }

	// Checkpoint after every 512-event batch; keep the one at 1024.
	sink := newArchiveSink()
	if _, err := RunStreamSource("wcp-tree", newSrc(), StreamValidate(), WithCheckpoint(512, sink)); err != nil {
		t.Fatal(err)
	}
	got, ok := sink.all[1024]
	if !ok {
		t.Fatalf("no checkpoint at event 1024 (have %v)", keysOf(sink.all))
	}

	path := filepath.Join("testdata", "checkpoint_v2.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("checkpoint bytes changed: %d bytes, golden %d bytes — format drift needs a version bump (or -update for an intentional change)",
			len(got), len(want))
	}

	// The committed bytes must still restore and finish identically.
	ref, err := RunStreamSource("wcp-tree", newSrc(), StreamValidate())
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunStreamSource("wcp-tree", newSrc(), StreamValidate(), ResumeFrom(bytes.NewReader(want)))
	if err != nil {
		t.Fatalf("restoring golden checkpoint: %v", err)
	}
	if !reflect.DeepEqual(res, ref) {
		t.Fatalf("golden resume diverged:\ngot  %+v\nwant %+v", res, ref)
	}
}

// keysOf lists an archive sink's checkpoint boundaries for diagnostics.
func keysOf(m map[uint64][]byte) []uint64 {
	ks := make([]uint64, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}

// ckptConfig is one checkpointed run configuration: an engine, its
// options and a constructor for the input it decodes. Each pins a
// checkpoint path the wcp-tree text golden above does not reach.
type ckptConfig struct {
	name   string
	engine string
	opts   []StreamOption
	newSrc func() EventSource
}

// ckptConfigs lists the pinned configurations: the race detector over
// the binary scanner, the Replayer, the flat weak transport with
// summary aging, slot reclamation under fork/join churn and the capped
// interner.
func ckptConfigs(t testing.TB) []ckptConfig {
	t.Helper()
	mixed := GenerateMixed(GenConfig{Name: "golden-bin", Threads: 5, Locks: 3, Vars: 20, Events: 1500, SyncFrac: 0.25, Seed: 11})
	var bin bytes.Buffer
	if err := WriteTraceBinary(&bin, mixed); err != nil {
		t.Fatal(err)
	}
	binSrc := func() EventSource { return trace.NewBinaryScanner(bytes.NewReader(bin.Bytes())) }
	textSrc := func(text []byte) func() EventSource {
		return func() EventSource { return trace.NewScanner(bytes.NewReader(text)) }
	}
	forkText := materializeText(t, gen.Take(gen.ForkChurn(6, 99), 2500), "golden-fork")
	varsText := materializeText(t, gen.Take(gen.ChurningVars(6, 64, 8, 41), 2500), "golden-vars")
	nameText, err := io.ReadAll(gen.NameChurnText(4, 6, 300, 23))
	if err != nil {
		t.Fatal(err)
	}
	return []ckptConfig{
		{"hb-vc-bin", "hb-vc", nil, binSrc},
		{"shb-tree-bin", "shb-tree", []StreamOption{StreamValidate()}, binSrc},
		{"maz-tree-replay", "maz-tree", nil, func() EventSource { return trace.NewReplayer(mixed) }},
		{"wcp-vc-flat-sumcap", "wcp-vc", []StreamOption{StreamValidate(), WithFlatWeakClocks(), WithSummaryCap(16)}, textSrc(varsText)},
		{"hb-tree-reclaim", "hb-tree", []StreamOption{StreamValidate(), WithSlotReclaim()}, textSrc(forkText)},
		{"hb-tree-interncap", "hb-tree", []StreamOption{StreamValidate(), WithInternCap(48)}, textSrc(nameText)},
	}
}

// TestCheckpointGoldens extends TestCheckpointGolden to every
// configuration in ckptConfigs: the checkpoint at event 1024 must match
// its committed golden byte for byte (-update rewrites them) and must
// still resume to the uninterrupted run's result.
func TestCheckpointGoldens(t *testing.T) {
	for _, cc := range ckptConfigs(t) {
		cc := cc
		t.Run(cc.name, func(t *testing.T) {
			sink := newArchiveSink()
			if _, err := RunStreamSource(cc.engine, cc.newSrc(), append(cc.opts, WithCheckpoint(512, sink))...); err != nil {
				t.Fatal(err)
			}
			got, ok := sink.all[1024]
			if !ok {
				t.Fatalf("no checkpoint at event 1024 (have %v)", keysOf(sink.all))
			}
			path := filepath.Join("testdata", "checkpoint_v2_"+cc.name+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create the golden file)", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("checkpoint bytes changed: %d bytes, golden %d bytes — format drift needs a version bump (or -update for an intentional change)",
					len(got), len(want))
			}
			ref, err := RunStreamSource(cc.engine, cc.newSrc(), cc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunStreamSource(cc.engine, cc.newSrc(), append(cc.opts, ResumeFrom(bytes.NewReader(want)))...)
			if err != nil {
				t.Fatalf("restoring golden checkpoint: %v", err)
			}
			if !reflect.DeepEqual(res, ref) {
				t.Fatalf("golden resume diverged:\ngot  %+v\nwant %+v", res, ref)
			}
		})
	}
}
