package treeclock

// Whole-checkpoint Load→Save identity: restoring a checkpoint and
// saving again at once must reproduce the original bytes exactly. A
// field that one direction of a codec writes and the other misreads —
// or that a restore rebuilds differently from the run that saved it —
// changes the re-saved bytes, so this pins the wire symmetry of every
// checkpointed type at run time, over every registry engine and every
// pinned configuration, in pull and push mode, sequential and sharded.

import (
	"bytes"
	"fmt"
	"testing"

	"treeclock/internal/trace"
)

// resave restores ck into a fresh session of engine built with opts,
// over src, and returns the checkpoint that session writes straight
// away, before it processes any event.
func resave(t *testing.T, engine string, opts []StreamOption, src EventSource, ck []byte) []byte {
	t.Helper()
	s, err := Open(engine, append(opts, ResumeFrom(bytes.NewReader(ck)))...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.cfg.internCap > 0 {
		src.(trace.InternCapable).SetInternCap(s.cfg.internCap)
	}
	if s.cfg.validate {
		src = trace.NewValidator(src)
	}
	cs, err := asCheckpointable(src)
	if err != nil {
		t.Fatal(err)
	}
	events, err := restoreCheckpoint(&s.cfg, s.info.Name, len(s.engines), cs, s.engines)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	var buf bytes.Buffer
	if err := writeCheckpoint(&buf, s.info.Name, &s.cfg, len(s.engines), events, cs, s.engines); err != nil {
		t.Fatalf("re-save: %v", err)
	}
	return buf.Bytes()
}

// TestCheckpointResaveIdentity runs every registry engine (plus the
// flat weak transport) over the mixed crash corpus trace and every
// ckptConfigs configuration, checkpointing at each batch boundary, and
// requires each checkpoint to survive a restore and re-save unchanged.
func TestCheckpointResaveIdentity(t *testing.T) {
	tr := GenerateMixed(GenConfig{Name: "resave", Threads: 6, Locks: 4, Vars: 24, Events: 1800, SyncFrac: 0.3, Seed: 7})
	var b bytes.Buffer
	if err := WriteTraceText(&b, tr); err != nil {
		t.Fatal(err)
	}
	text := b.Bytes()
	cfgs := ckptConfigs(t)
	for _, ev := range engineVariants() {
		cfgs = append(cfgs, ckptConfig{
			name:   ev.label,
			engine: ev.engine,
			opts:   append([]StreamOption{StreamValidate()}, ev.opts...),
			newSrc: func() EventSource { return trace.NewScanner(bytes.NewReader(text)) },
		})
	}
	for _, cc := range cfgs {
		for _, workers := range []int{1, 2} {
			cc, workers := cc, workers
			t.Run(fmt.Sprintf("%s/w%d", cc.name, workers), func(t *testing.T) {
				opts := cc.opts
				if workers > 1 {
					opts = append(append([]StreamOption{}, opts...), WithWorkers(workers))
				}
				sink := newArchiveSink()
				s, err := Open(cc.engine, append(opts, WithCheckpoint(1, sink))...)
				if err != nil {
					t.Fatal(err)
				}
				_, err = s.Run(cc.newSrc())
				s.Close()
				if err != nil {
					t.Fatal(err)
				}
				if len(sink.all) == 0 {
					t.Fatal("run wrote no checkpoints")
				}
				for k, ck := range sink.all {
					if got := resave(t, cc.engine, opts, cc.newSrc(), ck); !bytes.Equal(got, ck) {
						t.Errorf("checkpoint at %d: re-saved %d bytes differ from the %d restored", k, len(got), len(ck))
					}
				}
			})
		}
	}
}

// TestCheckpointResaveIdentityPush is the push-mode twin: a session fed
// k events snapshots, a session resumed from that snapshot snapshots
// again at once, and the two must match byte for byte.
func TestCheckpointResaveIdentityPush(t *testing.T) {
	tr := GenerateMixed(GenConfig{Name: "resave-push", Threads: 6, Locks: 4, Vars: 24, Events: 1500, SyncFrac: 0.3, Seed: 5})
	for _, ev := range engineVariants() {
		for _, workers := range []int{1, 2} {
			ev, workers := ev, workers
			t.Run(fmt.Sprintf("%s/w%d", ev.label, workers), func(t *testing.T) {
				opts := append([]StreamOption{WithWorkers(workers)}, ev.opts...)
				for _, k := range []int{1, 700, len(tr.Events)} {
					first, err := Open(ev.engine, opts...)
					if err != nil {
						t.Fatal(err)
					}
					var ck bytes.Buffer
					if err := first.Feed(tr.Events[:k]); err != nil {
						t.Fatal(err)
					}
					if err := first.Snapshot(&ck); err != nil {
						t.Fatal(err)
					}
					first.Close()
					second, err := Open(ev.engine, append(opts, ResumeFrom(bytes.NewReader(ck.Bytes())))...)
					if err != nil {
						t.Fatal(err)
					}
					var again bytes.Buffer
					if err := second.Snapshot(&again); err != nil {
						t.Fatal(err)
					}
					second.Close()
					if !bytes.Equal(again.Bytes(), ck.Bytes()) {
						t.Errorf("snapshot at %d: re-saved %d bytes differ from the %d restored", k, again.Len(), ck.Len())
					}
				}
			})
		}
	}
}
