package main

import (
	"bytes"
	"fmt"
	"slices"

	"treeclock"
	"treeclock/internal/oracle"
	"treeclock/internal/trace"
	"treeclock/internal/vt"
)

// tally counts operations and failed operations. An engine pass, a
// set-up oracle check and a kernel-replay fidelity check are each one
// operation; an error or a failed output check fails it.
type tally struct {
	attempted int
	failed    int
}

// record counts one operation and reports err on standard error.
func (t *tally) record(what string, err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		logf("FAILED %s: %v", what, err)
		return false
	}
	return true
}

// sameResult reports the first difference between two results of one
// partial order: the event count, the race summary, the retained
// samples and every thread's final vector time must agree exactly.
func sameResult(got, want *treeclock.StreamResult) error {
	switch {
	case got.Events != want.Events:
		return fmt.Errorf("events %d, want %d", got.Events, want.Events)
	case got.Summary != want.Summary:
		return fmt.Errorf("summary %+v, want %+v", got.Summary, want.Summary)
	case !slices.Equal(got.Samples, want.Samples):
		return fmt.Errorf("samples differ (%d vs %d retained)", len(got.Samples), len(want.Samples))
	case len(got.Timestamps) != len(want.Timestamps):
		return fmt.Errorf("%d thread timestamps, want %d", len(got.Timestamps), len(want.Timestamps))
	}
	for t := range got.Timestamps {
		if !slices.Equal(got.Timestamps[t], want.Timestamps[t]) {
			return fmt.Errorf("thread %d timestamp %v, want %v", t, got.Timestamps[t], want.Timestamps[t])
		}
	}
	return nil
}

// resultChecker holds one reference result per partial order and
// checks every later pass of either clock against it, so the tree and
// vector-clock engines of an order must agree exactly on every pass.
type resultChecker struct {
	events uint64
	ref    map[string]*treeclock.StreamResult
}

func newResultChecker(events int) *resultChecker {
	return &resultChecker{events: uint64(events), ref: make(map[string]*treeclock.StreamResult)}
}

func (c *resultChecker) check(engine string, res *treeclock.StreamResult) error {
	if res.Events != c.events {
		return fmt.Errorf("%s processed %d events, want %d", engine, res.Events, c.events)
	}
	order := engineInfo(engine).Order
	ref := c.ref[order]
	if ref == nil {
		c.ref[order] = res
		return nil
	}
	if err := sameResult(res, ref); err != nil {
		return fmt.Errorf("%s disagrees with %s: %w", engine, ref.Engine, err)
	}
	return nil
}

// engineInfo returns the registry entry of an engine name.
func engineInfo(engine string) treeclock.EngineInfo {
	for _, info := range treeclock.EngineInfos() {
		if info.Name == engine {
			return info
		}
	}
	return treeclock.EngineInfo{}
}

var oracleOrders = map[string]oracle.PO{"hb": oracle.HB, "shb": oracle.SHB, "maz": oracle.MAZ, "wcp": oracle.WCP}

// oracleCheck runs the first w.oracleEvents events of data through
// every registry engine, with the same RunStream options as an
// end-to-end pass, and checks each result against the definition-level
// oracle: every thread's final vector time, the number of racy
// variables, and the soundness of every retained race sample.
func oracleCheck(w *workload, data []byte, t *tally) error {
	prefix, err := w.decode(data, w.oracleEvents)
	if err != nil {
		return err
	}
	pdata, err := w.encode(prefix)
	if err != nil {
		return err
	}
	want := make(map[string]*oracle.Result, len(oracleOrders))
	for name, po := range oracleOrders {
		want[name] = oracle.Timestamps(prefix, po)
	}
	for _, engine := range treeclock.Engines() {
		order := engineInfo(engine).Order
		res, err := treeclock.RunStream(engine, bytes.NewReader(pdata), w.streamOptions()...)
		if err == nil {
			err = againstOracle(prefix, oracleOrders[order], want[order], res)
		}
		t.record(fmt.Sprintf("oracle check %s/%s", w.name, engine), err)
	}
	return nil
}

// againstOracle compares one engine result over tr with the oracle's.
func againstOracle(tr *treeclock.Trace, po oracle.PO, or *oracle.Result, res *treeclock.StreamResult) error {
	if res.Events != uint64(tr.Len()) {
		return fmt.Errorf("processed %d events, want %d", res.Events, tr.Len())
	}
	// The final vector time of a thread is the oracle timestamp of its
	// last event.
	last := make([]int, tr.Meta.Threads)
	for i := range last {
		last[i] = -1
	}
	for i, ev := range tr.Events {
		last[ev.T] = i
	}
	if len(res.Timestamps) != tr.Meta.Threads {
		return fmt.Errorf("%d thread timestamps, want %d", len(res.Timestamps), tr.Meta.Threads)
	}
	for t, i := range last {
		want := vt.NewVector(tr.Meta.Threads)
		if i >= 0 {
			copy(want, or.Post[i])
		}
		if !res.Timestamps[t].Equal(want) {
			return fmt.Errorf("thread %d final timestamp %v, oracle %v", t, res.Timestamps[t], want)
		}
	}
	// HB and WCP report pairs unordered by the final timestamps; SHB
	// and MAZ report pairs unordered before the later access's own
	// variable edge (oracle Pre).
	unordered := func(i, j int) bool { return or.Concurrent(i, j) }
	if po == oracle.SHB || po == oracle.MAZ {
		unordered = func(i, j int) bool { return !or.Post[i].LessEq(or.Pre[j]) }
	}
	racy := racyVars(tr, unordered)
	if res.Summary.Vars != len(racy) {
		return fmt.Errorf("%d racy variables, oracle %d", res.Summary.Vars, len(racy))
	}
	idx := make(map[vt.Epoch]int, tr.Len())
	for i, lt := range tr.LocalTimes() {
		idx[vt.Epoch{T: tr.Events[i].T, Clk: lt}] = i
	}
	for _, p := range res.Samples {
		i, ok1 := idx[p.Prior]
		j, ok2 := idx[p.Access]
		switch {
		case !ok1 || !ok2:
			return fmt.Errorf("sample %v names unknown events", p)
		case !trace.Conflicting(tr.Events[i], tr.Events[j]):
			return fmt.Errorf("sample %v is not a conflicting pair", p)
		case !unordered(i, j):
			return fmt.Errorf("sample %v is ordered", p)
		case !racy[p.Var]:
			return fmt.Errorf("sample %v is on a variable the oracle finds race-free", p)
		}
	}
	return nil
}

// racyVars returns the variables with a conflicting pair the predicate
// leaves unordered.
func racyVars(tr *treeclock.Trace, unordered func(i, j int) bool) map[int32]bool {
	byVar := make(map[int32][]int)
	for i, ev := range tr.Events {
		if ev.Kind.IsAccess() {
			byVar[ev.Obj] = append(byVar[ev.Obj], i)
		}
	}
	racy := make(map[int32]bool)
	for x, idxs := range byVar {
		for a := 0; a < len(idxs) && !racy[x]; a++ {
			for b := a + 1; b < len(idxs); b++ {
				i, j := idxs[a], idxs[b]
				if trace.Conflicting(tr.Events[i], tr.Events[j]) && unordered(i, j) {
					racy[x] = true
					break
				}
			}
		}
	}
	return racy
}
