package core

import (
	"bytes"
	"math/rand"
	"testing"

	"treeclock/internal/ckpt"
	"treeclock/internal/vt"
)

// loadBytes decodes a clock framed by saveBytes.
func loadBytes(t *testing.T, b []byte) *TreeClock {
	t.Helper()
	c := New(0, nil)
	d := ckpt.NewDec(bytes.NewReader(b))
	d.Begin("clock")
	c.Load(d)
	d.End()
	if err := d.Err(); err != nil {
		t.Fatalf("load: %v", err)
	}
	return c
}

// TestSaveLoadRoundTrip pins the checkpoint codec against the hlist
// records: Save writes prv derived from pprev and Load rebuilds pprev
// from prv, so Load→Save must reproduce the bytes exactly — including
// the stale sibling links a root promoted by MonotoneCopy carries, and
// the scrubbed record of a released slot. The restored clocks must
// also behave like the originals: the same operations applied to both
// keep their trees and bytes equal.
func TestSaveLoadRoundTrip(t *testing.T) {
	const k, l = 6, 3
	r := rand.New(rand.NewSource(5))
	threads := make([]*TreeClock, k)
	for i := range threads {
		threads[i] = New(k, nil)
		threads[i].Init(vt.TID(i))
	}
	locks := make([]*TreeClock, l)
	for i := range locks {
		locks[i] = New(k, nil)
	}
	for i := 0; i < 200; i++ {
		sync(threads, locks, r.Intn(k), r.Intn(l))
	}
	// A released slot: thread 0 forgets thread 5.
	threads[0].ReleaseSlot(5)

	stale := 0
	for _, c := range locks {
		if c.prvOf(c.root) != none || c.nxtOf(c.root) != none {
			stale++
		}
	}
	if stale == 0 {
		t.Fatal("no lock clock has a promoted root with stale sibling links; the scenario no longer covers them")
	}
	if threads[0].parOf(5) != notIn {
		t.Fatal("released slot still present")
	}

	all := append(append([]*TreeClock{}, threads...), locks...)
	restored := make([]*TreeClock, len(all))
	for i, c := range all {
		b := saveBytes(c.Save)
		restored[i] = loadBytes(t, b)
		if got := saveBytes(restored[i].Save); !bytes.Equal(got, b) {
			t.Fatalf("clock %d: Load→Save changed the bytes\n%s", i, c)
		}
		if err := restored[i].Validate(); err != nil {
			t.Fatalf("clock %d: restored clock invalid: %v", i, err)
		}
	}
	// Thread 0 (which released 5) and thread 5 sit the rest out.
	rt, rl := restored[:k], restored[k:]
	for i := 0; i < 200; i++ {
		th, lk := 1+r.Intn(k-2), r.Intn(l)
		sync(threads, locks, th, lk)
		sync(rt, rl, th, lk)
	}
	for i := range all {
		if err := all[i].Validate(); err != nil {
			t.Fatalf("clock %d invalid: %v", i, err)
		}
		if a, b := all[i].String(), restored[i].String(); a != b {
			t.Fatalf("clock %d diverges after restore:\n%s\nvs\n%s", i, a, b)
		}
		if !bytes.Equal(saveBytes(all[i].Save), saveBytes(restored[i].Save)) {
			t.Fatalf("clock %d: bytes diverge after restore", i)
		}
	}
}

// TestJoinFromCorruptRestoreNoPanic pins Load's contract on structural
// garbage that survives the checksum: a restored clock whose parent
// fields disagree with its child lists is wrong, but joining it into
// another clock must not panic. Every internal node's parent is
// corrupted in turn, so the walk climbs out of each corrupted node.
func TestJoinFromCorruptRestoreNoPanic(t *testing.T) {
	const k = 6
	r := rand.New(rand.NewSource(3))
	threads := make([]*TreeClock, k-1)
	for i := range threads {
		threads[i] = New(k, nil)
		threads[i].Init(vt.TID(i))
	}
	locks := []*TreeClock{New(k, nil), New(k, nil)}
	for i := 0; i < 60; i++ {
		sync(threads, locks, r.Intn(k-1), r.Intn(2))
	}
	src := threads[0]
	good := saveBytes(src.Save)
	corrupted := 0
	for v := vt.TID(0); v < k-1; v++ {
		if v == src.root || src.headOf(v) == none {
			continue
		}
		bad := loadBytes(t, good)
		bad.sh[rec(v)+fPar] = int32(notIn)
		o := loadBytes(t, saveBytes(bad.Save))
		c := New(k, nil)
		c.Init(k - 1)
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("join from a restore with a corrupt parent of t%d panicked: %v", v, p)
				}
			}()
			c.Join(o)
		}()
		corrupted++
	}
	if corrupted == 0 {
		t.Fatal("source clock has no internal node below the root")
	}
}
