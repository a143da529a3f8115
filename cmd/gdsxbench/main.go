// Command gdsxbench regenerates every table and figure of the paper's
// evaluation section (§4) over the eight workload programs and prints
// them as text tables. Results are deterministic: timing comes from
// the schedule simulator's operation counts, memory from the simulated
// allocator.
//
// Usage:
//
//	gdsxbench [-scale test|profile|bench] [-exp all|table4|table5|fig8|...|fig14]
//	gdsxbench -bench-opt [-quick] [-scale ...] [-o BENCH_opt.json]
//	gdsxbench -guard [-quick] [-scale ...] [-o BENCH_guard.json]
//	gdsxbench -recovery [-scale ...] [-o BENCH_recovery.json]
//	gdsxbench -obs [-quick] [-scale ...] [-o BENCH_obs.json]
//	gdsxbench -sched [-scale ...] [-o BENCH_sched.json]
//	gdsxbench -adapt [-quick] [-scale ...] [-o BENCH_adapt.json]
//	gdsxbench -serve-load [-quick] [-o BENCH_serve.json]
//
// The -bench-opt mode instead measures host wall-clock time of each
// workload under the engine with its optimization pipeline on versus
// off and writes the comparison as JSON; -bench-opt -quick is the CI
// smoke variant, which measures a workload subset and exits nonzero
// when the geomean speedup regresses more than 5% against the
// matching rows of the checked-in BENCH_opt.json. The -guard mode measures the
// guarded-execution monitor's overhead on violation-free parallel runs
// (use -scale profile: the monitor logs every access, so bench-scale
// inputs need log memory proportional to their operation count);
// -guard -quick is the CI smoke variant, which measures a workload
// subset and exits nonzero when the geomean overhead regresses more
// than 5% against the matching rows of the checked-in BENCH_guard.json. The
// -recovery mode compares region rollback-and-resume against the
// whole-program fallback on the violating adversarial inputs, and
// measures the region-snapshot overhead on violation-free runs. The
// -obs mode measures the observability layer's wall-clock overhead on
// expanded parallel runs plus a serve tier (request batches against a
// DisableObs gdsxd server vs. the default registry + head-sampled
// tracing configuration); -quick is the CI smoke variant (few
// workloads, no hot-profiler configuration) that exits nonzero when
// either the geomean runtime overhead or the serve-tier leave-on
// overhead exceeds 15%. The -sched mode replays the traced
// workloads through the schedule simulator under both DOALL dispatch
// policies (static chunking vs work stealing) and writes the scaling
// curves; the numbers are deterministic operation counts, so the JSON
// is stable across hosts. The -adapt mode measures the adaptive
// speculation ladder: the guard-sampling check cut on clean regions
// (deterministic event counts; must stay at 2x or better), the
// runtime re-expansion win over a stuck recovery baseline, and the
// commutative-privatization speedup over sequential execution;
// -adapt -quick is the CI smoke variant, which skips the wall-clock
// acceptance checks and exits nonzero when the check cut regresses
// more than 5% against the checked-in BENCH_adapt.json. The
// -serve-load mode drives the gdsxd service layer (internal/serve)
// with closed-loop concurrent HTTP clients across steady, mixed,
// burst and chaos scenarios and records p50/p99 latency, throughput,
// shed rate and cache hit rate; -serve-load -quick is the CI smoke
// variant, which runs the steady and burst scenarios at half volume
// and exits nonzero when the geomean p50 regresses more than 10% (or
// p99 more than 50%) against the matching rows of the checked-in
// BENCH_serve.json.
//
// With -http ADDR, any mode also serves expvar (including the live
// gdsx metrics registry under the "gdsx" variable) and net/http/pprof
// on ADDR for the duration of the run:
//
//	gdsxbench -http :8080 ...   # /debug/vars, /debug/pprof
package main

import (
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"time"

	"gdsx"
	"gdsx/internal/bench"
	"gdsx/internal/serve"
	"gdsx/internal/workloads"
)

func main() {
	scale := flag.String("scale", "bench", "input scale: test, profile or bench")
	exp := flag.String("exp", "all", "experiment: all, table4, table5, fig8..fig14")
	benchOpt := flag.Bool("bench-opt", false,
		"measure the compiled engine's optimization pipeline (on vs off) and write JSON")
	benchGuard := flag.Bool("guard", false,
		"measure guarded-execution monitor overhead on violation-free runs and write JSON")
	benchRecovery := flag.Bool("recovery", false,
		"measure region rollback-and-resume vs whole-program fallback, plus"+
			" no-violation snapshot overhead, and write JSON")
	benchObs := flag.Bool("obs", false,
		"measure observability-layer overhead on expanded parallel runs and write JSON")
	benchSched := flag.Bool("sched", false,
		"simulate DOALL scheduler scaling (static vs work-stealing) and write JSON")
	benchAdapt := flag.Bool("adapt", false,
		"measure the adaptive speculation ladder (guard-sampling check cut,"+
			" runtime re-expansion, commutative privatization) and write JSON")
	serveLoad := flag.Bool("serve-load", false,
		"drive the gdsxd service layer with closed-loop concurrent clients"+
			" (steady/mixed/burst/chaos) and write latency, shed-rate and"+
			" cache-hit-rate JSON")
	quick := flag.Bool("quick", false,
		"with -obs: CI smoke variant — few workloads, no hot-profiler config,"+
			" nonzero exit when geomean overhead exceeds 15%."+
			" With -bench-opt: measure the smoke subset and gate against"+
			" the checked-in BENCH_opt.json."+
			" With -guard: measure the smoke subset and gate against"+
			" the checked-in BENCH_guard.json."+
			" With -adapt: skip the wall-clock acceptance checks and gate"+
			" the sampling check cut against the checked-in BENCH_adapt.json."+
			" With -serve-load: run the steady and burst scenarios at half"+
			" volume and gate p50/p99 against the checked-in BENCH_serve.json")
	httpAddr := flag.String("http", "",
		"serve expvar (live gdsx metrics) and net/http/pprof on this address"+
			" during the run, e.g. :8080")
	outFile := flag.String("o", "", "output file (default BENCH_<mode>.json, e.g. BENCH_opt.json)")
	flag.Parse()

	cfg := bench.DefaultConfig()
	switch *scale {
	case "test":
		cfg.Scale = workloads.Test
	case "profile":
		cfg.Scale = workloads.ProfileScale
	case "bench":
		cfg.Scale = workloads.BenchScale
	default:
		fmt.Fprintln(os.Stderr, "gdsxbench: unknown scale", *scale)
		os.Exit(2)
	}
	if *httpAddr != "" {
		// A metrics-only observer: every harness run publishes into one
		// registry, served live at /debug/vars; an event tracer here
		// would only accumulate memory across a long bench run.
		o := &gdsx.Observer{Metrics: gdsx.NewRegistry()}
		cfg.Obs = o
		expvar.Publish("gdsx", expvar.Func(func() any { return o.Metrics.Snapshot() }))
		// The hardened server (header/read/write/idle timeouts) shared
		// with gdsxd, drained gracefully when the run finishes instead of
		// dying mid-response with the process.
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gdsxbench: http:", err)
			os.Exit(1)
		}
		stop := make(chan struct{})
		done := make(chan error, 1)
		go func() {
			done <- serve.ServeGraceful(serve.NewHTTPServer(*httpAddr, http.DefaultServeMux),
				ln, stop, 5*time.Second, nil)
		}()
		defer func() {
			close(stop)
			if err := <-done; err != nil {
				fmt.Fprintln(os.Stderr, "gdsxbench: http:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "gdsxbench: serving expvar and pprof on %s"+
			" (/debug/vars, /debug/pprof)\n", ln.Addr())
	}
	fmt.Fprintf(os.Stderr, "gdsxbench: scale=%s %s %s/%s\n",
		*scale, runtime.Version(), runtime.GOOS, runtime.GOARCH)
	h := bench.New(cfg)
	start := time.Now()

	if *serveLoad {
		rep, err := bench.ServeLoad(*quick)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gdsxbench:", err)
			os.Exit(1)
		}
		fmt.Print(rep.Render())
		if *quick {
			gateServeRegression(rep, *outFile)
			return
		}
		writeJSON(rep, *outFile, "BENCH_serve.json", "serve-load measurement", start)
		return
	}

	if *benchObs {
		rep, err := h.ObsOverhead(*quick)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gdsxbench:", err)
			os.Exit(1)
		}
		fmt.Print(rep.Render())
		if !*quick || *outFile != "" {
			writeJSON(rep, *outFile, "BENCH_obs.json", "observability overhead", start)
		}
		if *quick && rep.GeomeanOverhead > 0.15 {
			fmt.Fprintf(os.Stderr, "gdsxbench: FAIL: geomean observability overhead"+
				" %.1f%% exceeds the 15%% smoke budget\n", rep.GeomeanOverhead*100)
			os.Exit(1)
		}
		if *quick && rep.ServeOverhead > 0.15 {
			fmt.Fprintf(os.Stderr, "gdsxbench: FAIL: serve-tier leave-on observability"+
				" overhead %.1f%% exceeds the 15%% smoke budget\n", rep.ServeOverhead*100)
			os.Exit(1)
		}
		return
	}

	if *benchOpt {
		rep, err := h.OptComparison(*quick)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gdsxbench:", err)
			os.Exit(1)
		}
		fmt.Print(rep.Render())
		if *quick {
			gateOptRegression(rep, *outFile)
			return
		}
		writeJSON(rep, *outFile, "BENCH_opt.json", "optimization comparison", start)
		return
	}

	if *benchGuard {
		if cfg.Scale == workloads.BenchScale {
			fmt.Fprintln(os.Stderr, "gdsxbench: note: the monitor logs every access;"+
				" bench-scale inputs need gigabytes of log memory. -scale profile"+
				" is the intended operating point.")
		}
		rep, err := h.GuardOverhead(*quick)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gdsxbench:", err)
			os.Exit(1)
		}
		fmt.Print(rep.Render())
		if *quick {
			gateGuardRegression(rep, *outFile)
			return
		}
		writeJSON(rep, *outFile, "BENCH_guard.json", "guard overhead", start)
		return
	}

	if *benchAdapt {
		if cfg.Scale == workloads.BenchScale {
			fmt.Fprintln(os.Stderr, "gdsxbench: note: adaptive runs are guarded, so"+
				" the monitor logs every access; -scale profile is the intended"+
				" operating point for the smoke gate.")
		}
		rep, err := h.Adapt(*quick)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gdsxbench:", err)
			os.Exit(1)
		}
		fmt.Print(rep.Render())
		if *quick {
			gateAdaptRegression(rep, *outFile)
			return
		}
		writeJSON(rep, *outFile, "BENCH_adapt.json", "adaptive-ladder measurement", start)
		return
	}

	if *benchSched {
		rep, err := h.SchedScaling()
		if err != nil {
			fmt.Fprintln(os.Stderr, "gdsxbench:", err)
			os.Exit(1)
		}
		fmt.Print(rep.Render())
		writeJSON(rep, *outFile, "BENCH_sched.json", "scheduler scaling", start)
		return
	}

	if *benchRecovery {
		if cfg.Scale == workloads.BenchScale {
			fmt.Fprintln(os.Stderr, "gdsxbench: note: recovery runs are guarded, so"+
				" the monitor logs every access; -scale profile is the intended"+
				" operating point.")
		}
		rep, err := h.Recovery()
		if err != nil {
			fmt.Fprintln(os.Stderr, "gdsxbench:", err)
			os.Exit(1)
		}
		fmt.Print(rep.Render())
		writeJSON(rep, *outFile, "BENCH_recovery.json", "recovery comparison", start)
		return
	}

	if *exp == "all" {
		rep, err := h.RunAll()
		if err != nil {
			fmt.Fprintln(os.Stderr, "gdsxbench:", err)
			os.Exit(1)
		}
		fmt.Print(rep.Render())
		fmt.Fprintf(os.Stderr, "\n(all experiments regenerated in %v at %s scale)\n",
			time.Since(start).Round(time.Millisecond), *scale)
		return
	}

	rep := &bench.Report{Threads: h.Threads()}
	var err error
	switch *exp {
	case "table4":
		rep.Table4, err = h.Table4()
	case "table5":
		rep.Table5, err = h.Table5()
	case "fig8":
		rep.Fig8, err = h.Figure8()
	case "fig9":
		rep.Fig9, rep.Fig9HMUn, rep.Fig9HMOp, err = h.Figure9()
	case "fig10":
		rep.Fig10, err = h.Figure10()
	case "fig11":
		rep.Fig11, rep.Fig11HM, err = h.Figure11()
	case "fig12":
		rep.Fig12, err = h.Figure12()
	case "fig13":
		rep.Fig13, err = h.Figure13()
	case "fig14":
		rep.Fig14, err = h.Figure14()
	case "ablation":
		var sync []bench.AblationSyncRow
		var hoist []bench.AblationHoistRow
		var layout []bench.AblationLayoutRow
		var chunk []bench.AblationChunkRow
		if sync, err = h.AblationSync(); err == nil {
			if hoist, err = h.AblationHoist(); err == nil {
				if layout, err = h.AblationLayout(); err == nil {
					chunk, err = h.AblationChunk()
				}
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "gdsxbench:", err)
			os.Exit(1)
		}
		fmt.Print(bench.RenderAblations(sync, hoist))
		fmt.Print(bench.RenderLayoutAblation(layout))
		fmt.Print(bench.RenderChunkAblation(chunk))
		fmt.Fprintf(os.Stderr, "\n(regenerated in %v)\n", time.Since(start).Round(time.Millisecond))
		return
	default:
		fmt.Fprintln(os.Stderr, "gdsxbench: unknown experiment", *exp)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gdsxbench:", err)
		os.Exit(1)
	}
	fmt.Print(rep.RenderPartial())
	fmt.Fprintf(os.Stderr, "\n(regenerated in %v)\n", time.Since(start).Round(time.Millisecond))
}

// gateGuardRegression compares a quick -guard measurement against the
// matching rows of the checked-in BENCH_guard.json (or the -o
// override) and exits nonzero when the geomean overhead grew more than
// 5%. Guard overhead is lower-is-better (1.0x = free monitor), so the
// gate direction is inverted relative to gateOptRegression: it catches
// a change that reintroduces shared-cache-line traffic on the
// no-violation path, whose signature is the ratio climbing back toward
// the pre-epoch-buffer multiples.
func gateGuardRegression(rep *bench.GuardReport, baseFile string) {
	if baseFile == "" {
		baseFile = "BENCH_guard.json"
	}
	data, err := os.ReadFile(baseFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gdsxbench:", err)
		os.Exit(1)
	}
	var base bench.GuardReport
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "gdsxbench: %s: %v\n", baseFile, err)
		os.Exit(1)
	}
	var names []string
	for _, row := range rep.Rows {
		names = append(names, row.Workload)
	}
	want, ok := base.GeomeanOver(names)
	if !ok {
		fmt.Fprintf(os.Stderr, "gdsxbench: FAIL: %s lacks rows for the smoke subset %v\n",
			baseFile, names)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "gdsxbench: quick geomean %.2fx vs checked-in %.2fx (same subset)\n",
		rep.Geomean, want)
	if rep.Geomean > want*1.05 {
		fmt.Fprintf(os.Stderr, "gdsxbench: FAIL: guard-monitor overhead regressed more"+
			" than 5%% against %s\n", baseFile)
		os.Exit(1)
	}
}

// gateAdaptRegression compares a quick -adapt measurement against the
// matching sampling rows of the checked-in BENCH_adapt.json (or the -o
// override) and exits nonzero when the geomean check cut fell more
// than 5%. The cut counts monitor events, not nanoseconds, so it is
// stable across hosts; a fall means the tier ladder stopped promoting
// clean regions (or the suspicion path started escalating them), whose
// signature is the ratio collapsing toward 1.0x.
func gateAdaptRegression(rep *bench.AdaptReport, baseFile string) {
	if baseFile == "" {
		baseFile = "BENCH_adapt.json"
	}
	data, err := os.ReadFile(baseFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gdsxbench:", err)
		os.Exit(1)
	}
	var base bench.AdaptReport
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "gdsxbench: %s: %v\n", baseFile, err)
		os.Exit(1)
	}
	var names []string
	for _, row := range rep.Sampling {
		names = append(names, row.Workload)
	}
	want, ok := base.GeomeanOver(names)
	if !ok {
		fmt.Fprintf(os.Stderr, "gdsxbench: FAIL: %s lacks sampling rows for the smoke subset %v\n",
			baseFile, names)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "gdsxbench: quick check cut %.2fx vs checked-in %.2fx (same subset)\n",
		rep.SampleGeomean, want)
	if rep.SampleGeomean < want*0.95 {
		fmt.Fprintf(os.Stderr, "gdsxbench: FAIL: guard-sampling check cut regressed more"+
			" than 5%% against %s\n", baseFile)
		os.Exit(1)
	}
}

// gateOptRegression compares a quick -bench-opt measurement against
// the matching rows of the checked-in BENCH_opt.json (or the -o
// override) and exits nonzero on a >5% geomean regression. Wall-clock
// speedups on shared CI machines are noisy per workload; the geomean
// over the subset with a 5% allowance holds steady while still
// catching a disabled or broken pass, whose signature is the ratio
// collapsing toward 1.0x.
func gateOptRegression(rep *bench.OptReport, baseFile string) {
	if baseFile == "" {
		baseFile = "BENCH_opt.json"
	}
	data, err := os.ReadFile(baseFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gdsxbench:", err)
		os.Exit(1)
	}
	var base bench.OptReport
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "gdsxbench: %s: %v\n", baseFile, err)
		os.Exit(1)
	}
	var names []string
	for _, row := range rep.Rows {
		names = append(names, row.Workload)
	}
	want, ok := base.GeomeanOver(names)
	if !ok {
		fmt.Fprintf(os.Stderr, "gdsxbench: FAIL: %s lacks rows for the smoke subset %v\n",
			baseFile, names)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "gdsxbench: quick geomean %.2fx vs checked-in %.2fx (same subset)\n",
		rep.Geomean, want)
	if rep.Geomean < want*0.95 {
		fmt.Fprintf(os.Stderr, "gdsxbench: FAIL: optimized-engine speedup regressed more"+
			" than 5%% against %s\n", baseFile)
		os.Exit(1)
	}
}

// gateServeRegression compares a quick -serve-load measurement against
// the matching scenarios of the checked-in BENCH_serve.json (or the -o
// override) and exits nonzero when the geomean p50 latency grew more
// than 10% or the geomean p99 more than 50%. What this catches is a
// structural regression — a lost cache hit path, admission doing work
// before shedding, the drain barrier serializing requests — whose
// signature is latency multiplying, not drifting: every one of those
// moves the median, which run-to-run is stable within a few percent.
// The p99 of a 48-request closed-loop scenario is its max sample, an
// extreme-value statistic whose noise on shared CI machines exceeds
// any threshold tight enough to be useful, so it gets only the
// multiplied-latency backstop.
func gateServeRegression(rep *bench.ServeLoadReport, baseFile string) {
	if baseFile == "" {
		baseFile = "BENCH_serve.json"
	}
	data, err := os.ReadFile(baseFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gdsxbench:", err)
		os.Exit(1)
	}
	var base bench.ServeLoadReport
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "gdsxbench: %s: %v\n", baseFile, err)
		os.Exit(1)
	}
	var names []string
	for _, row := range rep.Rows {
		names = append(names, row.Scenario)
	}
	want99, ok := base.GeomeanOver(names)
	if !ok {
		fmt.Fprintf(os.Stderr, "gdsxbench: FAIL: %s lacks rows for the smoke subset %v\n",
			baseFile, names)
		os.Exit(1)
	}
	want50, _ := base.GeomeanP50Over(names)
	got99, _ := rep.GeomeanOver(names)
	got50, _ := rep.GeomeanP50Over(names)
	fmt.Fprintf(os.Stderr, "gdsxbench: quick geomean p50 %.1fms vs checked-in %.1fms,"+
		" p99 %.1fms vs %.1fms (same subset)\n", got50, want50, got99, want99)
	if got50 > want50*1.10 {
		fmt.Fprintf(os.Stderr, "gdsxbench: FAIL: serve p50 latency regressed more"+
			" than 10%% against %s\n", baseFile)
		os.Exit(1)
	}
	if got99 > want99*1.50 {
		fmt.Fprintf(os.Stderr, "gdsxbench: FAIL: serve p99 latency regressed more"+
			" than 50%% against %s\n", baseFile)
		os.Exit(1)
	}
}

// writeJSON serializes a report to out (or the mode's default file).
func writeJSON(rep any, out, deflt, what string, start time.Time) {
	if out == "" {
		out = deflt
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "gdsxbench:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "gdsxbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "\n(%s written to %s in %v)\n",
		what, out, time.Since(start).Round(time.Millisecond))
}
