package bench

// Guard overhead: what the guarded-execution monitor costs on runs
// that never violate — the paper-side question being whether runtime
// dependence checking is cheap enough to leave on when the profiled
// inputs may not cover production behavior. Like the engine
// comparison, this measures host wall-clock time: the monitor adds no
// simulated operations (it observes through hooks), so its cost is
// invisible to the schedule simulator.

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"gdsx"
	"gdsx/internal/workloads"
)

// GuardRow is one workload's unguarded-vs-guarded measurement. Both
// runs execute the same guard-transformed program (markers included)
// in parallel; the guarded run additionally carries the access monitor
// and its end-of-region replay.
type GuardRow struct {
	Workload   string  `json:"workload"`
	BaseNS     int64   `json:"base_ns"`
	GuardedNS  int64   `json:"guarded_ns"`
	Overhead   float64 `json:"overhead"`
	Violations int     `json:"violations"`
}

// GuardReport is the full guard-overhead measurement, serialized to
// BENCH_guard.json by gdsxbench -guard.
type GuardReport struct {
	GoVersion string     `json:"go_version"`
	Scale     string     `json:"scale"`
	Threads   int        `json:"threads"`
	Reps      int        `json:"reps"`
	Rows      []GuardRow `json:"rows"`
	Geomean   float64    `json:"geomean_overhead"`
}

const guardReps = 5

// GuardQuickWorkloads is the subset the CI smoke gate measures
// (gdsxbench -guard -quick): the workload whose monitor overhead was
// historically worst (mpeg2-encoder: dense small-loop access traffic),
// plus a hash kernel and a block compressor for diversity. All three
// are DOALL-dominated: the DOACROSS workloads (dijkstra) spin-wait on
// cross-iteration posts, and on an oversubscribed CI host their
// unguarded baseline swings by an order of magnitude with goroutine
// scheduling luck, which no best-of repetition count tames.
var GuardQuickWorkloads = []string{"md5", "mpeg2-encoder", "256.bzip2"}

// GeomeanOver recomputes the report's geomean overhead over the named
// subset of its rows, so a quick measurement can be compared against
// the matching rows of a full checked-in report. Returns false if any
// name has no row.
func (r *GuardReport) GeomeanOver(names []string) (float64, bool) {
	logSum := 0.0
	for _, name := range names {
		found := false
		for _, row := range r.Rows {
			if row.Workload == name {
				logSum += math.Log(row.Overhead)
				found = true
				break
			}
		}
		if !found {
			return 0, false
		}
	}
	return math.Exp(logSum / float64(len(names))), true
}

// GuardOverhead measures every workload's guard-transformed program
// with and without the monitor attached. Runs use the harness scale
// and the largest configured thread count; every guarded run must
// complete without a violation (the standard workloads' profiles cover
// their inputs) and match the unguarded output. quick restricts the
// sweep to GuardQuickWorkloads.
func (h *Harness) GuardOverhead(quick bool) (*GuardReport, error) {
	threads := h.cfg.Threads[len(h.cfg.Threads)-1]
	rep := &GuardReport{
		GoVersion: runtime.Version(),
		Scale:     scaleName(h.cfg.Scale),
		Threads:   threads,
		Reps:      guardReps,
	}
	ws := workloads.All()
	if quick {
		ws = ws[:0:0]
		for _, name := range GuardQuickWorkloads {
			ws = append(ws, workloads.ByName(name))
		}
	}
	logSum := 0.0
	for _, w := range ws {
		src := w.Source(h.cfg.Scale)
		psrc := w.Source(workloads.ProfileScale)
		if h.cfg.Scale == workloads.ProfileScale || h.cfg.Scale == workloads.Test {
			psrc = src
		}
		prog, err := gdsx.Compile(w.Name+".c", src)
		if err != nil {
			return nil, fmt.Errorf("%s: compile: %w", w.Name, err)
		}
		tr, err := gdsx.Transform(prog, gdsx.TransformOptions{
			Guard:         true,
			ProfileSource: psrc,
			ProfileOpts:   h.run(gdsx.RunOptions{}),
		})
		if err != nil {
			return nil, fmt.Errorf("%s: transform: %w", w.Name, err)
		}
		opts := h.run(gdsx.RunOptions{Threads: threads})

		row := GuardRow{Workload: w.Name}
		// Warm the Go heap once (see OptComparison), then alternate
		// unguarded and guarded runs within each repetition. GuardedRun
		// recompiles the transformed source on every call, so the
		// unguarded baseline does too — the delta is purely the monitor.
		if _, err := gdsx.RunSource(w.Name+"-g.c", tr.Source, opts); err != nil {
			return nil, fmt.Errorf("%s (warmup): %w", w.Name, err)
		}
		bestBase := time.Duration(math.MaxInt64)
		bestGuard := time.Duration(math.MaxInt64)
		var baseOut, guardOut string
		for i := 0; i < guardReps; i++ {
			start := time.Now()
			res, err := gdsx.RunSource(w.Name+"-g.c", tr.Source, opts)
			if d := time.Since(start); err == nil && d < bestBase {
				bestBase = d
			}
			if err != nil {
				return nil, fmt.Errorf("%s (base): %w", w.Name, err)
			}
			baseOut = res.Output

			start = time.Now()
			gres, err := gdsx.GuardedRun(prog, tr, opts)
			if d := time.Since(start); err == nil && d < bestGuard {
				bestGuard = d
			}
			if err != nil {
				return nil, fmt.Errorf("%s (guarded): %w", w.Name, err)
			}
			if gres.FellBack || gres.Violation != nil {
				row.Violations = gres.Violation.Total
				return nil, fmt.Errorf("%s: guard fired on a profiled input:\n%s",
					w.Name, gres.Violation)
			}
			guardOut = gres.Result.Output
		}
		if baseOut != guardOut {
			return nil, fmt.Errorf("%s: guarded output diverges from unguarded", w.Name)
		}
		row.BaseNS = bestBase.Nanoseconds()
		row.GuardedNS = bestGuard.Nanoseconds()
		row.Overhead = float64(row.GuardedNS) / float64(row.BaseNS)
		logSum += math.Log(row.Overhead)
		rep.Rows = append(rep.Rows, row)
	}
	rep.Geomean = math.Exp(logSum / float64(len(rep.Rows)))
	return rep, nil
}

// Render formats the guard-overhead report as a text table.
func (r *GuardReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Guard overhead (wall clock, %s scale, %d threads, best of %d, %s)\n",
		r.Scale, r.Threads, r.Reps, r.GoVersion)
	fmt.Fprintf(&b, "%-16s %12s %12s %9s\n", "workload", "unguarded", "guarded", "overhead")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-16s %12v %12v %8.2fx\n", row.Workload,
			time.Duration(row.BaseNS).Round(time.Microsecond),
			time.Duration(row.GuardedNS).Round(time.Microsecond),
			row.Overhead)
	}
	fmt.Fprintf(&b, "%-16s %12s %12s %8.2fx\n", "geomean", "", "", r.Geomean)
	return b.String()
}
