package bench

// Optimization-pipeline comparison: wall-clock time of the compiled
// engine with its optimization passes (register promotion,
// superinstruction fusion, profile-guided site specialization) against
// the same engine with the pipeline disabled. Unlike the paper's
// experiments, which report simulated operation counts, this measures
// host time — the passes change dispatch cost only; output and counters stay identical (see the opt-parity
// tests at the repository root). Each workload is first profiled at
// the smaller profile scale with the hot-site profiler, and the
// resulting site weights drive the specializer during the measured
// runs — the same two-step flow as `gdsx pipeline -hotspots-json`
// followed by `-opt-profile`.

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"gdsx"
	"gdsx/internal/workloads"
)

// OptRow is one workload's noopt-vs-opt wall-clock measurement.
type OptRow struct {
	Workload string  `json:"workload"`
	NoOptNS  int64   `json:"noopt_ns"`
	OptNS    int64   `json:"opt_ns"`
	Speedup  float64 `json:"speedup"`
}

// OptReport is the full optimization comparison, serialized to
// BENCH_opt.json by gdsxbench -bench-opt.
type OptReport struct {
	GoVersion string   `json:"go_version"`
	Scale     string   `json:"scale"`
	Threads   int      `json:"threads"`
	Reps      int      `json:"reps"`
	Rows      []OptRow `json:"rows"`
	Geomean   float64  `json:"geomean_speedup"`
}

// optReps is how many times each (workload, level) pair runs; the
// minimum wall-clock of the repetitions is reported, which discards
// one-off scheduler and GC noise.
const optReps = 3

// OptQuickWorkloads is the subset the CI smoke gate measures
// (gdsxbench -bench-opt -quick): enough diversity — pointer chasing,
// bit twiddling, block transforms — to catch a pipeline regression
// without rerunning the full suite.
var OptQuickWorkloads = []string{"dijkstra", "256.bzip2", "md5"}

// GeomeanOver recomputes the report's geomean speedup over the named
// subset of its rows, so a quick measurement can be compared against
// the matching rows of a full checked-in report. Returns false if any
// name has no row.
func (r *OptReport) GeomeanOver(names []string) (float64, bool) {
	logSum := 0.0
	for _, name := range names {
		found := false
		for _, row := range r.Rows {
			if row.Workload == name {
				logSum += math.Log(row.Speedup)
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

// hotProfile collects a workload's hot-site weights at profile scale.
func hotProfile(w *workloads.Workload, memSize int64) (*gdsx.SiteProfile, error) {
	prog, err := gdsx.Compile(w.Name+".c", w.Source(workloads.ProfileScale))
	if err != nil {
		return nil, err
	}
	o := gdsx.NewObserver(true)
	if _, err := prog.Run(gdsx.RunOptions{Threads: 1, MemSize: memSize, Obs: o}); err != nil {
		return nil, err
	}
	return gdsx.SiteProfileFromReports(o.Hot.Report()), nil
}

// OptComparison measures every workload's native program under the
// unoptimized and optimized compiled engine at the harness scale,
// single-threaded. quick restricts the sweep to OptQuickWorkloads.
func (h *Harness) OptComparison(quick bool) (*OptReport, error) {
	rep := &OptReport{
		GoVersion: runtime.Version(),
		Scale:     scaleName(h.cfg.Scale),
		Threads:   1,
		Reps:      optReps,
	}
	ws := workloads.All()
	if quick {
		ws = ws[:0:0]
		for _, name := range OptQuickWorkloads {
			ws = append(ws, workloads.ByName(name))
		}
	}
	logSum := 0.0
	for _, w := range ws {
		prog, err := gdsx.Compile(w.Name+".c", w.Source(h.cfg.Scale))
		if err != nil {
			return nil, fmt.Errorf("%s: compile: %w", w.Name, err)
		}
		sites, err := hotProfile(w, h.cfg.MemSize)
		if err != nil {
			return nil, fmt.Errorf("%s: hot profile: %w", w.Name, err)
		}
		timeOpt := func(opt gdsx.OptLevel, sp *gdsx.SiteProfile) (time.Duration, error) {
			start := time.Now()
			_, err := prog.Run(gdsx.RunOptions{
				Threads: 1, MemSize: h.cfg.MemSize, Opt: opt, OptProfile: sp,
			})
			return time.Since(start), err
		}
		// One untimed run dirties the Go heap (the simulated memory's
		// first allocation gets pre-zeroed pages from the OS; reruns pay
		// a memclr), then the levels alternate within each repetition —
		// otherwise whichever runs first is systematically cheaper and
		// the comparison is biased.
		if _, err := timeOpt(gdsx.OptDefault, sites); err != nil {
			return nil, fmt.Errorf("%s (warmup): %w", w.Name, err)
		}
		bestNoOpt := time.Duration(math.MaxInt64)
		bestOpt := time.Duration(math.MaxInt64)
		for i := 0; i < optReps; i++ {
			d, err := timeOpt(gdsx.OptNone, nil)
			if err != nil {
				return nil, fmt.Errorf("%s (noopt): %w", w.Name, err)
			}
			if d < bestNoOpt {
				bestNoOpt = d
			}
			if d, err = timeOpt(gdsx.OptDefault, sites); err != nil {
				return nil, fmt.Errorf("%s (opt): %w", w.Name, err)
			}
			if d < bestOpt {
				bestOpt = d
			}
		}
		row := OptRow{
			Workload: w.Name,
			NoOptNS:  bestNoOpt.Nanoseconds(),
			OptNS:    bestOpt.Nanoseconds(),
		}
		row.Speedup = float64(row.NoOptNS) / float64(row.OptNS)
		logSum += math.Log(row.Speedup)
		rep.Rows = append(rep.Rows, row)
	}
	rep.Geomean = math.Exp(logSum / float64(len(rep.Rows)))
	return rep, nil
}

// Render formats the comparison as a text table.
func (r *OptReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Optimization pipeline (wall clock, %s scale, %d thread, best of %d, %s)\n",
		r.Scale, r.Threads, r.Reps, r.GoVersion)
	fmt.Fprintf(&b, "%-16s %12s %12s %9s\n", "workload", "noopt", "opt", "speedup")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-16s %12v %12v %8.2fx\n", row.Workload,
			time.Duration(row.NoOptNS).Round(time.Microsecond),
			time.Duration(row.OptNS).Round(time.Microsecond),
			row.Speedup)
	}
	fmt.Fprintf(&b, "%-16s %12s %12s %8.2fx\n", "geomean", "", "", r.Geomean)
	return b.String()
}
