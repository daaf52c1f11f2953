package registry

import (
	"fmt"
	"testing"

	"treeclock/internal/core"
	"treeclock/internal/gen"
	"treeclock/internal/trace"
	"treeclock/internal/vt"
)

// TestBuildEveryEntry builds every entry under every spec the callers
// use and checks that the tree and vector clock variants of each order
// agree on the pairs, the samples and the final timestamps.
func TestBuildEveryEntry(t *testing.T) {
	tr := gen.Mixed(gen.Config{Name: "reg", Threads: 6, Locks: 3, Vars: 16, Events: 2000, Seed: 4, SyncFrac: 0.3})
	specs := map[string]Spec{
		"plain":    {Analysis: true},
		"no-acc":   {},
		"counting": {Analysis: true, Stats: &vt.WorkStats{}},
		"sharded":  {Analysis: true, Owns: func(x int32) bool { return x%2 == 0 }},
		"flat":     {Analysis: true, FlatWeak: true, SummaryCap: 8},
		"ablation": {Analysis: true, Mode: core.ModeDeepCopy},
	}
	for label, spec := range specs {
		reports := map[string]string{}
		for _, info := range Infos() {
			e, err := Build(info, spec)
			if err != nil {
				t.Fatalf("%s/%s: %v", label, info.Name, err)
			}
			if err := e.ProcessSource(trace.NewReplayer(tr)); err != nil {
				t.Fatal(err)
			}
			if e.Events() != uint64(tr.Len()) {
				t.Errorf("%s/%s: %d events, want %d", label, info.Name, e.Events(), tr.Len())
			}
			if (e.Acc() != nil) != spec.Analysis {
				t.Errorf("%s/%s: accumulator present = %v, analysis = %v", label, info.Name, e.Acc() != nil, spec.Analysis)
			}
			sum, samples, ts := e.Finish()
			report := fmt.Sprintf("%+v %v %v", sum, samples, ts)
			if prev, ok := reports[info.Order]; ok && prev != report {
				t.Errorf("%s/%s: tree and vector clock variants disagree", label, info.Name)
			}
			reports[info.Order] = report
		}
		if spec.Stats != nil && spec.Stats.Changed == 0 {
			t.Errorf("%s: no work counted", label)
		}
	}
}

// TestBuildErrors pins the failures Lookup and Build report instead of
// building.
func TestBuildErrors(t *testing.T) {
	if _, ok := Lookup("hb-sundial"); ok {
		t.Error("Lookup accepted an unregistered name")
	}
	wcpTree, _ := Lookup("wcp-tree")
	if _, err := Build(wcpTree, Spec{SlotReclaim: true}); err == nil {
		t.Error("slot reclamation accepted for an order with thread hooks")
	}
	hbTree, _ := Lookup("hb-tree")
	if _, err := Build(hbTree, Spec{SlotReclaim: true}); err != nil {
		t.Errorf("slot reclamation rejected for hb: %v", err)
	}
	if _, err := Build(Info{Order: "hb", Clock: "sundial"}, Spec{}); err == nil {
		t.Error("unknown clock accepted")
	}
	if _, err := Build(Info{Order: "lamport", Clock: "vc"}, Spec{}); err == nil {
		t.Error("unknown order accepted")
	}
}
