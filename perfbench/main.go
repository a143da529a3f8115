// Command perfbench is gdsx's benchmark. It drives the public entry
// points from one process on one of three workloads:
//
//	compile  cold builds (Compile, Transform{Guard}, Compile) of the pool
//	run      native, expanded and guarded runs of programs built in set-up
//	serve    seeded multi-tenant traffic through serve.Server's handler
//
// Usage:
//
//	go run . --workload compile --seed 1 --seconds 20 --trace 0
//
// The untraced run (--trace 0) measures the end-to-end metrics. The
// traced run (--trace 1) times each call into a module from this
// package's own files, prints the per-layer table and writes the spans
// as Chrome trace-event JSON (--trace-out). The last line of standard
// output is always one JSON object with the keys correct, attempted,
// failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

var processStart = time.Now()

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is the state of one benchmark run.
type bench struct {
	workload string
	seed     int64
	window   time.Duration
	t        *tracer // nil in the untraced run

	mu                sync.Mutex // guards attempted, failed and failures: serve's callers record concurrently
	attempted, failed int
	failures          []string
	problems          []string // failed checks that are not operations
	metrics           map[string]metric
	counts            map[string]int64 // exact counts, first value seen
	drift             []string
	mirrorChecked     bool // the traced build was compared with gdsx.Transform

	// traced accumulates what the traced run's layer metrics need.
	traced struct {
		builds   int
		accesses int64
		runs     []sample
	}
}

// opDone records one attempted operation (a build, a run or a request)
// and counts it failed when err is not nil.
func (b *bench) opDone(what string, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.failures) < 20 {
			b.failures = append(b.failures, fmt.Sprintf("%s: %v", what, err))
		}
	}
}

// problem records a failed check that is not an operation, such as a
// decomposition that does not add up; it makes the run incorrect.
func (b *bench) problem(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// count records an exact count, which must repeat exactly; a value
// that differs from the first one seen under the same key is reported.
// An op count that differs is a failed check: the traced run's split of
// Program.Run must repeat the untraced run's counts.
func (b *bench) count(key string, v int64) {
	first, ok := b.counts[key]
	if !ok {
		b.counts[key] = v
		return
	}
	if first == v {
		return
	}
	if strings.HasSuffix(key, "/ops") {
		b.problem("%s: op count %d then %d", key, first, v)
	} else if len(b.drift) < 20 {
		b.drift = append(b.drift, fmt.Sprintf("%s: %d then %d", key, first, v))
	}
}

func (b *bench) set(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

// setup runs prepare setupRepeats times and records the median duration
// as setup_s. The first repetition is timed from process start. Only
// the last repetition's state is kept.
func (b *bench) setup(prepare func() error) error {
	var durs []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC() // each repetition starts from a collected heap
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		if err := prepare(); err != nil {
			return err
		}
		durs = append(durs, time.Since(t0).Seconds())
	}
	if b.t == nil {
		b.set("setup_s", median(durs), "s")
	}
	fmt.Printf("setup_s %.3f (median of %d: %s)\n", median(durs), len(durs), fmtFloats(durs, "%.3f"))
	return nil
}

func fmtFloats(xs []float64, f string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(f, x)
	}
	return strings.Join(parts, " ")
}

// peakRSSMB returns the process's maximum resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func main() {
	workload := flag.String("workload", "", "compile, run or serve")
	seed := flag.Int64("seed", 1, "seed for program order and request traffic")
	seconds := flag.Float64("seconds", 20, "length of the measured window")
	traced := flag.Int("trace", 0, "1 for the traced run that prints per-layer metrics")
	traceOut := flag.String("trace-out", "", "Chrome trace JSON path for the traced run (default $CARGO_TARGET_DIR/traces/<workload>-seed<n>.json, with .bench_build for an unset CARGO_TARGET_DIR)")
	flag.Parse()

	run, ok := map[string]func(*bench) error{
		"compile": runCompile,
		"run":     runRun,
		"serve":   runServe,
	}[*workload]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload compile|run|serve --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		metrics:  map[string]metric{},
		counts:   map[string]int64{},
	}
	if *traced == 1 {
		b.t = newTracer()
	}
	fmt.Printf("host nproc=%d GOMAXPROCS=%d go=%s os=%s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Printf("workload=%s seed=%d seconds=%g trace=%d\n", b.workload, b.seed, *seconds, *traced)

	if err := run(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
		os.Exit(1)
	}
	if b.t == nil {
		b.set("peak_rss_mb", peakRSSMB(), "MB")
	} else {
		path := *traceOut
		if path == "" {
			dir := os.Getenv("CARGO_TARGET_DIR")
			if dir == "" {
				dir = ".bench_build"
			}
			path = filepath.Join(dir, "traces", fmt.Sprintf("%s-seed%d.json", b.workload, b.seed))
		}
		if err := b.t.writeChrome(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace written to %s\n", path)
	}
	b.finish()
}

// finish prints the failures, count drift and the metrics, then the
// result line.
func (b *bench) finish() {
	for _, f := range b.failures {
		fmt.Printf("FAIL %s\n", f)
	}
	for _, p := range b.problems {
		fmt.Printf("CHECK FAILED %s\n", p)
	}
	for _, d := range b.drift {
		fmt.Printf("COUNT DRIFT %s\n", d)
	}
	fmt.Printf("fail_ratio %d/%d\n", b.failed, b.attempted)
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-24s %14.4f %s\n", n, b.metrics[n].Value, b.metrics[n].Unit)
	}
	out, err := json.Marshal(map[string]any{
		"correct":   b.failed == 0 && len(b.problems) == 0 && b.attempted > 0,
		"attempted": b.attempted,
		"failed":    b.failed,
		"metrics":   b.metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
