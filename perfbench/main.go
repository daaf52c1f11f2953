// Command perfbench is the repository benchmark: it runs one workload
// through every registry engine via the public streaming API, checks
// every output, and prints the end-to-end metrics (--trace 0) or the
// per-layer metrics of a separate traced run (--trace 1) as one JSON
// object on the last line of standard output. See README.md.
//
//	bash perfbench/run.sh --workload single-lock-k64 --seed 2 --seconds 30 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload name: "+workloadNames())
		seed    = flag.Int64("seed", 2, "workload generator seed")
		seconds = flag.Int("seconds", 30, "measuring time of the end-to-end loop, in seconds")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics of the traced run")
		spans   = flag.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*traced != 0 && *traced != 1) || flag.NArg() > 0 {
		if err == nil {
			err = fmt.Errorf("need --seconds >= 1, --trace 0 or 1, and no positional arguments")
		}
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := run(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *spans); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(w *workload, seed int64, budget time.Duration, traced bool, spanDir string) error {
	var t tally
	in, secs, err := setup(w, seed, &t)
	if err != nil {
		return err
	}
	logf("%s seed %d: %d bytes, setup %.3fs", w.name, seed, len(in.data), secs)

	metrics := make(map[string]metric)
	if traced {
		if err := tracedRun(w, in, seed, budget, spanDir, &t, metrics); err != nil {
			return err
		}
	} else {
		// The set-up is timed again at the start of every round of the
		// end-to-end loop, so its samples spread over the whole run the
		// way the passes do; host speed drifts over tens of seconds, and
		// set-ups timed back to back would all catch the same moment.
		setups := []float64{secs}
		resetup := func() error {
			again, secs, err := setup(w, seed, &t)
			if err == nil && !bytes.Equal(again.data, in.data) {
				err = fmt.Errorf("%s seed %d: set-up made different bytes the second time", w.name, seed)
			}
			setups = append(setups, secs)
			return err
		}
		if err := endToEnd(w, in, budget, &t, metrics, resetup); err != nil {
			return err
		}
		logf("%d set-ups, median %.4gs", len(setups), median(setups))
		metrics["setup_s"] = metric{median(setups), "s"}
	}
	return emit(report{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics})
}

// input is a workload's encoded trace.
type input struct {
	data   []byte
	events int
}

// setup generates and encodes the workload and runs the set-up oracle
// check over its prefix, returning the input and the time it took.
func setup(w *workload, seed int64, t *tally) (input, float64, error) {
	runtime.GC()
	start := time.Now()
	tr := w.generate(w.events, seed)
	n := tr.Len()
	data, err := w.encode(tr)
	if err != nil {
		return input{}, 0, err
	}
	if err := oracleCheck(w, data, t); err != nil {
		return input{}, 0, err
	}
	return input{data, n}, time.Since(start).Seconds(), nil
}

// emit prints the metrics table on standard error and the report as
// the last line of standard output.
func emit(r report) error {
	names := make([]string, 0, len(r.Metrics))
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			logf("metric %s is not finite (%v); reporting 0", name, m.Value)
			r.Metrics[name] = metric{0, m.Unit}
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		logf("%-34s %14.6g %s", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", line)
	return err
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// median returns the median of xs (0 for none); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kib float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kib); err != nil {
				return 0, fmt.Errorf("peak RSS: parse %q: %w", line, err)
			}
			return kib / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
