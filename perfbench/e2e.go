package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"time"

	"treeclock"
)

const (
	// minPasses is the least number of passes each engine makes in an
	// end-to-end run, whatever its time budget.
	minPasses = 3
	// roundShare is the least time one engine gets per round: engines
	// with short passes run several passes in a row.
	roundShare = 250 * time.Millisecond
)

// endToEnd measures the workload's end-to-end metrics. Each pass is
// one treeclock.RunStream from the in-memory bytes to the returned
// result, with default options. Rounds visit every registry engine in
// turn, so each engine's passes spread over the whole budget; each
// engine's throughput is its events over its summed pass time. Every
// pass starts from a collected heap returned to the OS, and its peak
// resident set is read after it; max_rss_mib is the largest per-engine
// median peak. resetup runs at the start of every round that begins
// before the deadline.
func endToEnd(w *workload, in input, budget time.Duration, t *tally, metrics map[string]metric, resetup func() error) error {
	engines := treeclock.Engines()
	opts := w.streamOptions()
	if w.ckptEvery > 0 {
		opts = append(opts, treeclock.WithCheckpoint(w.ckptEvery, &memSink{}))
	}
	check := newResultChecker(in.events)
	rates := make(map[string][]float64, len(engines))
	busy := make(map[string]time.Duration, len(engines))
	passes := make(map[string]int, len(engines))
	peaks := make(map[string][]float64, len(engines))
	deadline := time.Now().Add(budget)
	done := func(engine string) bool { return passes[engine] >= minPasses && time.Now().After(deadline) }
	for ran := true; ran; {
		ran = false
		if !time.Now().After(deadline) {
			if err := resetup(); err != nil {
				return err
			}
		}
		for _, engine := range engines {
			for share := time.Now(); !done(engine) && time.Since(share) < roundShare; {
				ran = true
				passes[engine]++
				debug.FreeOSMemory()
				if err := resetPeakRSS(); err != nil {
					return err
				}
				began := time.Now()
				res, err := treeclock.RunStream(engine, bytes.NewReader(in.data), opts...)
				elapsed := time.Since(began)
				if err == nil {
					err = check.check(engine, res)
				}
				if t.record(fmt.Sprintf("%s pass of %s", engine, w.name), err) {
					rates[engine] = append(rates[engine], float64(in.events)/elapsed.Seconds())
					busy[engine] += elapsed
				}
				rss, err := peakRSSMiB()
				if err != nil {
					return err
				}
				peaks[engine] = append(peaks[engine], rss)
			}
		}
	}
	var maxRSS float64
	for _, engine := range engines {
		r := rates[engine]
		var rate float64
		if len(r) > 0 {
			rate = float64(len(r)*in.events) / busy[engine].Seconds()
			m := median(r) // sorts r
			logf("%-9s %3d passes, ev/s min %.4g median %.4g max %.4g overall %.4g", engine, len(r), r[0], m, r[len(r)-1], rate)
		}
		metrics[engine+".ev_per_s"] = metric{rate, "ev/s"}
		maxRSS = max(maxRSS, median(peaks[engine]))
	}
	metrics["max_rss_mib"] = metric{maxRSS, "MiB"}
	return nil
}

// resetPeakRSS restarts the process's peak resident set size (VmHWM)
// from its current resident set.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// memSink is an in-memory CheckpointSink: each checkpoint replaces the
// previous one in one reused buffer.
type memSink struct {
	bytes.Buffer
}

func (s *memSink) Create(uint64) (io.WriteCloser, error) {
	s.Reset()
	return s, nil
}

func (s *memSink) Close() error { return nil }
