// Command gdsxbench regenerates every table and figure of the paper's
// evaluation section (§4) over the eight workload programs and prints
// them as text tables, and measures the repository's host wall-time
// claims.
//
// Usage:
//
//	gdsxbench [-scale test|profile|bench] [-exp all|table4|table5|fig8|...|fig14|ablation]
//	gdsxbench -sched [-scale ...] [-o BENCH_sched.json]
//	gdsxbench -suite opt|guard|recovery|obs|adapt|all [-quick] [-scale ...] [-o FILE]
//
// The experiments (-exp) and the scheduler scaling curves (-sched) are
// deterministic: timing comes from the schedule simulator's operation
// counts, memory from the simulated allocator, so their output is the
// same on any host. The -sched mode replays the traced workloads under
// both DOALL dispatch policies (static chunking vs work stealing) and
// writes the scaling curves.
//
// The -suite mode measures host wall time instead, as suites of paired
// cases under one runner (internal/bench): warmups, paired samples in
// alternating order, a collection and a reset arena outside every
// sample, and the median and IQR/median spread of each case's paired
// ratios. The families: opt, the compiled engine with its optimization
// pipeline off vs on; guard, the guarded-execution monitor on
// violation-free parallel runs; recovery, region rollback vs the
// whole-program fallback on violating inputs and the snapshot cost on
// clean ones; obs, the observability tiers on expanded parallel runs
// and on gdsxd request batches (serve.Config.DisableObs vs default);
// adapt, the commutative-privatization speedup. A full run writes
// BENCH_<family>.json, or -o with a single family. Measure at -scale
// profile: guarded runs log every access, so bench-scale inputs need
// gigabytes of log memory, and the checked-in files are at profile
// scale.
//
// With -quick, each family measures only its gate subset and is held
// to the checked-in BENCH_<family>.json (or -o) by one rule: a gated
// suite fails when its geomean is worse than the baseline's, over the
// same cases, by more than max(5%, 2 × the larger of the two suites'
// spreads). A baseline at another scale or thread count, one lacking a
// case, or one gating a suite the run did not produce, is an error.
// Recovery has no gate subset and is
// skipped. The exit status is nonzero on any failure; CI runs
// `gdsxbench -suite all -quick -scale profile`.
//
// With -http ADDR, any mode also serves expvar (including the live
// gdsx metrics registry under the "gdsx" variable) and net/http/pprof
// on ADDR for the duration of the run:
//
//	gdsxbench -http :8080 ...   # /debug/vars, /debug/pprof
package main

import (
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"strings"
	"time"

	"gdsx"
	"gdsx/internal/bench"
	"gdsx/internal/serve"
	"gdsx/internal/workloads"
)

func main() {
	scale := flag.String("scale", "bench", "input scale: test, profile or bench")
	exp := flag.String("exp", "all", "experiment: all, table4, table5, fig8..fig14")
	benchSched := flag.Bool("sched", false,
		"simulate DOALL scheduler scaling (static vs work-stealing) and write JSON")
	suite := flag.String("suite", "",
		"measure the host wall time of a suite family ("+strings.Join(bench.Families, ", ")+
			", or all) and write BENCH_<family>.json")
	quick := flag.Bool("quick", false,
		"with -suite: measure each family's gate subset and gate it against"+
			" the checked-in BENCH_<family>.json (or -o)")
	httpAddr := flag.String("http", "",
		"serve expvar (live gdsx metrics) and net/http/pprof on this address"+
			" during the run, e.g. :8080")
	outFile := flag.String("o", "",
		"output file (default BENCH_<name>.json); with -suite -quick, the baseline to gate against")
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

	if *suite != "" {
		if err := runSuites(h, *suite, *quick, *outFile); err != nil {
			fmt.Fprintln(os.Stderr, "gdsxbench:", err)
			os.Exit(1)
		}
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

// runSuites measures the selected families; with quick it gates each
// against its checked-in baseline instead of writing it.
func runSuites(h *bench.Harness, which string, quick bool, out string) error {
	families := []string{which}
	if which == "all" {
		if out != "" {
			return errors.New("-o names one file; use it with a single -suite")
		}
		families = bench.Families
	}
	failed := false
	for _, f := range families {
		start := time.Now()
		rep, err := h.Measure(f, quick)
		if err != nil {
			return err
		}
		if len(rep.Suites) == 0 {
			fmt.Fprintf(os.Stderr, "gdsxbench: %s has no gate subset; skipped\n", f)
			continue
		}
		fmt.Print(rep.Render())
		file := out
		if file == "" {
			file = "BENCH_" + f + ".json"
		}
		if !quick {
			writeJSON(rep, file, file, f+" suites", start)
			continue
		}
		data, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		var base bench.SuiteReport
		if err := json.Unmarshal(data, &base); err != nil {
			return fmt.Errorf("%s: %w", file, err)
		}
		if stale := bench.Stale(rep, &base); len(stale) > 0 {
			return fmt.Errorf("gate against %s: the baseline gates suites this run did not produce: %v",
				file, stale)
		}
		verdicts, err := bench.Gate(rep, &base)
		if err != nil {
			return fmt.Errorf("gate against %s: %w", file, err)
		}
		for _, v := range verdicts {
			fmt.Fprintln(os.Stderr, "gdsxbench:", v)
			failed = failed || !v.Pass()
		}
	}
	if failed {
		return errors.New("FAIL: a gated suite regressed against its checked-in baseline")
	}
	return nil
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
