package main

import (
	"bytes"
	"slices"
	"testing"

	"treeclock"
	"treeclock/internal/oracle"
	"treeclock/internal/vt"
)

// smallInput sets up a workload at a test-sized pass.
func smallInput(t *testing.T, w workload, events int, seed int64) (*workload, input) {
	t.Helper()
	w.events = events
	tr := w.generate(events, seed)
	data, err := w.encode(tr)
	if err != nil {
		t.Fatal(err)
	}
	return &w, input{data, tr.Len()}
}

func runPass(t *testing.T, w *workload, in input, engine string) *treeclock.StreamResult {
	t.Helper()
	res, err := treeclock.RunStream(engine, bytes.NewReader(in.data), w.streamOptions()...)
	if err != nil {
		t.Fatalf("%s: %v", engine, err)
	}
	return res
}

// clone deep-copies a result so a test can alter it.
func clone(r *treeclock.StreamResult) *treeclock.StreamResult {
	c := *r
	c.Samples = slices.Clone(r.Samples)
	c.Timestamps = make([]vt.Vector, len(r.Timestamps))
	for i, v := range r.Timestamps {
		c.Timestamps[i] = v.Clone()
	}
	return &c
}

// alterations each change one field of a result the output check
// covers.
var alterations = []struct {
	name  string
	alter func(*treeclock.StreamResult)
}{
	{"event count", func(r *treeclock.StreamResult) { r.Events-- }},
	{"race total", func(r *treeclock.StreamResult) { r.Summary.Total++ }},
	{"racy variables", func(r *treeclock.StreamResult) { r.Summary.Vars++ }},
	{"sample", func(r *treeclock.StreamResult) { r.Samples[0].Access.Clk += 1 << 20 }},
	{"dropped sample", func(r *treeclock.StreamResult) { r.Samples = r.Samples[1:] }},
	{"timestamp", func(r *treeclock.StreamResult) { r.Timestamps[len(r.Timestamps)-1][0]++ }},
	{"missing thread", func(r *treeclock.StreamResult) { r.Timestamps = r.Timestamps[:len(r.Timestamps)-1] }},
}

func TestResultCheckerRejectsAlteredResult(t *testing.T) {
	w, in := smallInput(t, workloads[1], 20000, 2)
	for _, order := range []string{"hb", "shb", "maz", "wcp"} {
		tree := runPass(t, w, in, order+"-tree")
		vcRes := runPass(t, w, in, order+"-vc")
		if len(tree.Samples) == 0 {
			t.Fatalf("%s: no race samples to alter", order)
		}
		var tl tally
		c := newResultChecker(in.events)
		tl.record("tree", c.check(order+"-tree", tree))
		tl.record("vc", c.check(order+"-vc", vcRes))
		if tl.failed != 0 {
			t.Fatalf("%s: the checker rejects agreeing results", order)
		}
		for _, a := range alterations {
			bad := clone(vcRes)
			a.alter(bad)
			if tl.record(a.name, c.check(order+"-vc", bad)) {
				t.Errorf("%s: the checker accepts a result with an altered %s", order, a.name)
			}
		}
		if tl.failed != len(alterations) || tl.attempted != 2+len(alterations) {
			t.Errorf("%s: tally %+v, want %d failed of %d", order, tl, len(alterations), 2+len(alterations))
		}
	}
}

func TestOracleCheckPassesOnEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		w, in := smallInput(t, w, w.oracleEvents+1000, 7)
		var tl tally
		if err := oracleCheck(w, in.data, &tl); err != nil {
			t.Fatal(err)
		}
		if tl.failed != 0 || tl.attempted != len(treeclock.Engines()) {
			t.Errorf("%s: oracle check %+v, want %d passing", w.name, tl, len(treeclock.Engines()))
		}
	}
}

func TestOracleCheckRejectsAlteredResult(t *testing.T) {
	w, in := smallInput(t, workloads[1], 3000, 2)
	prefix, err := w.decode(in.data, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range []string{"hb", "shb", "maz", "wcp"} {
		po := oracleOrders[order]
		or := oracle.Timestamps(prefix, po)
		for _, engine := range []string{order + "-tree", order + "-vc"} {
			res := runPass(t, w, in, engine)
			if err := againstOracle(prefix, po, or, res); err != nil {
				t.Fatalf("%s: correct result rejected: %v", engine, err)
			}
			for _, a := range alterations {
				if a.name == "dropped sample" || a.name == "race total" {
					continue // the oracle check does not count pairs
				}
				bad := clone(res)
				a.alter(bad)
				if againstOracle(prefix, po, or, bad) == nil {
					t.Errorf("%s: the oracle check accepts an altered %s", engine, a.name)
				}
			}
		}
	}
}
