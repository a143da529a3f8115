package bench

// Observability overhead: like the optimization comparison, this
// measures host wall-clock time — the simulated operation counts are identical
// with and without an Observer attached (observability must never
// change what the program does). Each workload's expanded program runs
// at 4 simulated threads in four configurations: no observer (the
// nil-check fast path), the standard observer (event tracer + metrics
// registry, per-region cost only — the leave-on tier), per-iteration
// trace spans on top (two clock reads per iteration, what `gdsx
// pipeline -trace` enables), and the hot-site profiler on top of that,
// which routes every sited memory access through the interpreter's
// hook path — a cost class shared with the guard monitor, not a fixed
// tax of tracing.

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"gdsx"
	"gdsx/internal/workloads"
)

// ObsRow is one workload's observability-overhead measurement.
type ObsRow struct {
	Workload string `json:"workload"`
	// BaseNS is the median run with no observer attached.
	BaseNS int64 `json:"base_ns"`
	// ObsNS is the median run with the standard observer (event tracer
	// + metrics registry, no per-iteration instrumentation).
	ObsNS int64 `json:"obs_ns"`
	// SpansNS adds per-iteration trace spans (0 when skipped).
	SpansNS int64 `json:"spans_ns,omitempty"`
	// HotNS adds the per-access hot-site profiler (0 when skipped).
	HotNS int64 `json:"hot_ns,omitempty"`
	// Overhead is ObsNS/BaseNS - 1.
	Overhead float64 `json:"overhead"`
	// SpansOverhead is SpansNS/BaseNS - 1 (0 when skipped).
	SpansOverhead float64 `json:"spans_overhead,omitempty"`
	// HotOverhead is HotNS/BaseNS - 1 (0 when skipped).
	HotOverhead float64 `json:"hot_overhead,omitempty"`
}

// ObsReport is the full overhead measurement, serialized to
// BENCH_obs.json by gdsxbench -obs.
type ObsReport struct {
	GoVersion string   `json:"go_version"`
	Scale     string   `json:"scale"`
	Threads   int      `json:"threads"`
	Reps      int      `json:"reps"`
	Quick     bool     `json:"quick,omitempty"`
	Rows      []ObsRow `json:"rows"`
	// GeomeanOverhead is the geometric mean of the per-workload
	// obs/base ratios, minus one.
	GeomeanOverhead float64 `json:"geomean_overhead"`
	// GeomeanSpansOverhead covers the iteration-span tier (0 when
	// skipped).
	GeomeanSpansOverhead float64 `json:"geomean_spans_overhead,omitempty"`
	// GeomeanHotOverhead covers the hot-profiler tier (0 when skipped).
	GeomeanHotOverhead float64 `json:"geomean_hot_overhead,omitempty"`
	// ServeBaseNS/ServeObsNS are the median wall-clock times of one
	// request batch against a DisableObs server vs. the default
	// configuration (registry + head-sampled tracing + trace
	// retention), and ServeOverhead their ratio minus one — the
	// service-layer leave-on observability tax the CI gate bounds.
	ServeBaseNS   int64   `json:"serve_base_ns,omitempty"`
	ServeObsNS    int64   `json:"serve_obs_ns,omitempty"`
	ServeOverhead float64 `json:"serve_overhead,omitempty"`
}

const (
	obsReps    = 5
	obsThreads = 4
	// obsWarmups is the number of untimed steady-state runs before
	// measurement starts (see ObsOverhead).
	obsWarmups = 2
	// obsQuickWorkloads bounds the -quick smoke run (CI gate).
	obsQuickWorkloads = 3
)

// obsConfig names one observer configuration under measurement.
type obsConfig int

const (
	obsOff   obsConfig = iota // nil observer: the disabled fast path
	obsOn                     // tracer + metrics (the leave-on tier)
	obsSpans                  // obsOn plus per-iteration trace spans
	obsHot                    // obsSpans plus the per-access hot-site profiler
)

// timeObs runs the expanded program once under the given observer
// configuration and returns the wall-clock duration. A fresh Observer
// is built per run — reusing one would make later runs pay for earlier
// runs' trace buffers.
func timeObs(exp *gdsx.Program, cfg obsConfig, memSize int64) (time.Duration, error) {
	var o *gdsx.Observer
	switch cfg {
	case obsOn:
		o = gdsx.NewObserver(false)
	case obsSpans:
		o = gdsx.NewObserver(false)
		o.IterSpans = true
	case obsHot:
		o = gdsx.NewObserver(true)
		o.IterSpans = true
	}
	start := time.Now()
	_, err := exp.Run(gdsx.RunOptions{
		Threads: obsThreads, MemSize: memSize, Obs: o,
	})
	return time.Since(start), err
}

// ObsOverhead measures the observability tax on every workload's
// expanded parallel run. With quick set, only the first few workloads
// run and the expensive hot-profiler configuration is skipped — the CI
// smoke gate uses this variant.
func (h *Harness) ObsOverhead(quick bool) (*ObsReport, error) {
	rep := &ObsReport{
		GoVersion: runtime.Version(),
		Scale:     scaleName(h.cfg.Scale),
		Threads:   obsThreads,
		Reps:      obsReps,
		Quick:     quick,
	}
	configs := []obsConfig{obsOff, obsOn, obsSpans, obsHot}
	wls := workloads.All()
	if quick {
		configs = configs[:2]
		if len(wls) > obsQuickWorkloads {
			wls = wls[:obsQuickWorkloads]
		}
	}
	logSum, logSumSpans, logSumHot := 0.0, 0.0, 0.0
	for _, w := range wls {
		prog, err := gdsx.Compile(w.Name+".c", w.Source(h.cfg.Scale))
		if err != nil {
			return nil, fmt.Errorf("%s: compile: %w", w.Name, err)
		}
		topts := gdsx.TransformOptions{}
		if h.cfg.Scale != workloads.ProfileScale && h.cfg.Scale != workloads.Test {
			topts.ProfileSource = w.Source(workloads.ProfileScale)
		}
		tr, err := gdsx.Transform(prog, topts)
		if err != nil {
			return nil, fmt.Errorf("%s: transform: %w", w.Name, err)
		}
		exp, err := gdsx.Compile(w.Name+" (expanded).c", tr.Source)
		if err != nil {
			return nil, fmt.Errorf("%s: compile expanded: %w", w.Name, err)
		}
		// The first few runs of a process execute on a fresh heap and can
		// be several times faster than steady state (the 256 MiB simulated
		// memory dominates the Go heap; reruns pay GC and memclr debt), so
		// a couple of untimed warmups bring the process to steady state
		// first. The configuration order then rotates each repetition and the
		// per-config median is reported — a min would hand any residual
		// fresh-heap outlier to whichever configuration happened to run
		// early.
		for i := 0; i < obsWarmups; i++ {
			if _, err := timeObs(exp, obsOff, h.cfg.MemSize); err != nil {
				return nil, fmt.Errorf("%s (warmup): %w", w.Name, err)
			}
		}
		samples := map[obsConfig][]time.Duration{}
		for i := 0; i < obsReps; i++ {
			for j := range configs {
				c := configs[(i+j)%len(configs)]
				d, err := timeObs(exp, c, h.cfg.MemSize)
				if err != nil {
					return nil, fmt.Errorf("%s (config %d): %w", w.Name, c, err)
				}
				samples[c] = append(samples[c], d)
			}
		}
		row := ObsRow{
			Workload: w.Name,
			BaseNS:   median(samples[obsOff]).Nanoseconds(),
			ObsNS:    median(samples[obsOn]).Nanoseconds(),
		}
		row.Overhead = float64(row.ObsNS)/float64(row.BaseNS) - 1
		logSum += math.Log(float64(row.ObsNS) / float64(row.BaseNS))
		if !quick {
			row.SpansNS = median(samples[obsSpans]).Nanoseconds()
			row.SpansOverhead = float64(row.SpansNS)/float64(row.BaseNS) - 1
			logSumSpans += math.Log(float64(row.SpansNS) / float64(row.BaseNS))
			row.HotNS = median(samples[obsHot]).Nanoseconds()
			row.HotOverhead = float64(row.HotNS)/float64(row.BaseNS) - 1
			logSumHot += math.Log(float64(row.HotNS) / float64(row.BaseNS))
		}
		rep.Rows = append(rep.Rows, row)
	}
	n := float64(len(rep.Rows))
	rep.GeomeanOverhead = math.Exp(logSum/n) - 1
	if !quick {
		rep.GeomeanSpansOverhead = math.Exp(logSumSpans/n) - 1
		rep.GeomeanHotOverhead = math.Exp(logSumHot/n) - 1
	}
	if err := serveObsTier(rep); err != nil {
		return nil, fmt.Errorf("serve tier: %w", err)
	}
	return rep, nil
}

// median returns the middle sample (sorted); the mean of the two
// middles for even counts.
func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Render formats the overhead report as a text table.
func (r *ObsReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Observability overhead (wall clock, %s scale, %d threads, median of %d, %s)\n",
		r.Scale, r.Threads, r.Reps, r.GoVersion)
	fmt.Fprintf(&b, "%-16s %12s %12s %9s %9s %9s\n",
		"workload", "base", "obs", "ovhd", "+spans", "+hot")
	pct := func(ns int64, ov float64) string {
		if ns == 0 {
			return "-"
		}
		return fmt.Sprintf("%+.1f%%", ov*100)
	}
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-16s %12v %12v %8.1f%% %9s %9s\n", row.Workload,
			time.Duration(row.BaseNS).Round(time.Microsecond),
			time.Duration(row.ObsNS).Round(time.Microsecond),
			row.Overhead*100,
			pct(row.SpansNS, row.SpansOverhead),
			pct(row.HotNS, row.HotOverhead))
	}
	fmt.Fprintf(&b, "%-16s %12s %12s %8.1f%%", "geomean", "", "", r.GeomeanOverhead*100)
	if !r.Quick {
		fmt.Fprintf(&b, " %8.1f%% %8.1f%%", r.GeomeanSpansOverhead*100, r.GeomeanHotOverhead*100)
	}
	b.WriteString("\n")
	if r.ServeObsNS > 0 {
		fmt.Fprintf(&b, "%-16s %12v %12v %8.1f%%\n", "serve",
			time.Duration(r.ServeBaseNS).Round(time.Microsecond),
			time.Duration(r.ServeObsNS).Round(time.Microsecond),
			r.ServeOverhead*100)
	}
	return b.String()
}
