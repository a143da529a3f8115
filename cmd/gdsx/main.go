// Command gdsx is the driver for the general data structure expansion
// pipeline: it runs MiniC programs, profiles loop-level data
// dependences, prints Definition 5 classifications, and applies the
// expansion transformation, printing the transformed source.
//
// Usage:
//
//	gdsx run     [-threads N] [-seq] [-engine E] file.c  run a program
//	gdsx profile [-loop ID] [-json] file.c        profile dependences
//	gdsx expand  [-unopt] [-interleaved|-adaptive] file.c  transform and print
//	gdsx pipeline [-threads N] [-guard] file.c    transform, then run
//
// With -guard, the pipeline runs under the dependence-violation
// monitor: accesses are checked at each parallel region's end against
// the expansion's assumptions, and on violation the run falls back to
// sequential re-execution of the native program (see
// gdsx.GuardedRunPrecompiled).
// Adding -recover upgrades the fallback to region-scoped rollback: the
// violating (or faulting, or -region-timeout-exceeding) region alone
// re-executes sequentially and the rest of the run stays parallel.
// -adapt runs the whole adaptive ladder (gdsx.AdaptiveRun): recovery
// and — on repeated violations at one site pair — runtime re-expansion
// with a flipped copy layout or a halved copy count; with -metrics, the
// ladder's strikes, re-expansions and final layout land in the
// registry output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"gdsx"
	"gdsx/internal/ddg"
	"gdsx/internal/expand"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "run":
		err = runCmd(args)
	case "profile":
		err = profileCmd(args)
	case "expand":
		err = expandCmd(args)
	case "pipeline":
		err = pipelineCmd(args)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gdsx:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  gdsx run      [-threads N] [-seq] [-engine compiled|compiled-noopt] file.c
  gdsx profile  [-loop ID] [-json] file.c
  gdsx expand   [-unopt] [-interleaved|-adaptive] file.c
  gdsx pipeline [-threads N] [-engine compiled|compiled-noopt] [-guard]
                [-recover] [-adapt] [-region-timeout D]
                [-profile-input train.c]
                [-hotspots] [-hotspots-json sites.json] file.c`)
	os.Exit(2)
}

func compileArg(fs *flag.FlagSet) (*gdsx.Program, error) {
	if fs.NArg() != 1 {
		return nil, fmt.Errorf("expected exactly one source file")
	}
	file := fs.Arg(0)
	src, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	return gdsx.Compile(file, string(src))
}

// engineFlag parses the -engine flag value ("compiled" or
// "compiled-noopt") into the optimization level it selects.
func engineFlag(name string) (gdsx.OptLevel, error) {
	opt, ok := gdsx.OptFromEngine(name)
	if !ok {
		return opt, fmt.Errorf("unknown engine %q (want compiled or compiled-noopt)", name)
	}
	return opt, nil
}

func runCmd(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	threads := fs.Int("threads", 1, "simulated thread count")
	seq := fs.Bool("seq", false, "force sequential execution of parallel loops")
	engineName := fs.String("engine", "compiled", "execution engine: compiled or compiled-noopt")
	fs.Parse(args)
	opt, err := engineFlag(*engineName)
	if err != nil {
		return err
	}
	prog, err := compileArg(fs)
	if err != nil {
		return err
	}
	res, err := prog.Run(gdsx.RunOptions{Threads: *threads, ForceSequential: *seq, Opt: opt})
	if err != nil {
		return err
	}
	fmt.Print(res.Output)
	fmt.Fprintf(os.Stderr, "exit=%d ops=%d mem-high-water=%d\n",
		res.Exit, res.Counters[0], res.MemStats.HighWaterData)
	return nil
}

func profileCmd(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	loopID := fs.Int("loop", 0, "loop ID to profile (default: every parallel loop)")
	asJSON := fs.Bool("json", false, "emit the dependence graphs as JSON for programmer verification")
	fs.Parse(args)
	prog, err := compileArg(fs)
	if err != nil {
		return err
	}
	loops := prog.ParallelLoops()
	if *loopID != 0 {
		loops = []int{*loopID}
	}
	if len(loops) == 0 {
		return fmt.Errorf("no parallel loops; annotate one with 'parallel for'")
	}
	if *asJSON {
		graphs := map[int]*ddg.Graph{}
		for _, id := range loops {
			pr, err := prog.ProfileLoop(id, gdsx.RunOptions{})
			if err != nil {
				return err
			}
			graphs[id] = pr.Graph
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(graphs)
	}
	for _, id := range loops {
		pr, cls, err := prog.ClassifyLoop(id, gdsx.RunOptions{})
		if err != nil {
			return err
		}
		li, _ := prog.Loop(id)
		fmt.Printf("loop %d in %s (%s), %d iterations profiled\n",
			id, li.Func.Name, li.Par, pr.Iterations)
		fmt.Print(pr.Graph.String())
		for _, c := range cls.Classes {
			kind := "shared"
			if c.Private {
				kind = "PRIVATE"
			}
			fmt.Printf("  class %d (%s): sites %v\n", c.ID, kind, c.Sites)
			for _, s := range c.Sites {
				as := prog.Info.Accesses[s]
				if as != nil {
					rw := "load"
					if as.IsStore {
						rw = "store"
					}
					fmt.Printf("    %4d %-5s %-24s %s\n", s, rw, as.Text, as.Pos)
				}
			}
		}
		b := ddg.BreakdownOf(pr.Graph, cls)
		fmt.Printf("  dynamic accesses: %d free / %d expandable / %d carried (of %d)\n\n",
			b.Free, b.Expandable, b.Carried, b.Total)
	}
	return nil
}

func expandOpts(unopt, interleaved, adaptive *bool) *expand.Options {
	opts := expand.Optimized()
	if *unopt {
		opts = expand.Unoptimized()
	}
	if *interleaved {
		opts.Layout = expand.Interleaved
	}
	if *adaptive {
		opts.Layout = expand.Adaptive
	}
	return &opts
}

func expandCmd(args []string) error {
	fs := flag.NewFlagSet("expand", flag.ExitOnError)
	unopt := fs.Bool("unopt", false, "disable the §3.4 optimizations")
	inter := fs.Bool("interleaved", false, "use the interleaved copy layout")
	adaptive := fs.Bool("adaptive", false, "choose the copy layout automatically (paper §6)")
	fs.Parse(args)
	prog, err := compileArg(fs)
	if err != nil {
		return err
	}
	tr, err := gdsx.Transform(prog, gdsx.TransformOptions{Expand: expandOpts(unopt, inter, adaptive)})
	if err != nil {
		return err
	}
	fmt.Print(tr.Source)
	for _, rep := range tr.Reports {
		fmt.Fprintf(os.Stderr, "loops %v: %d structures expanded (%s layout), %d pointers promoted, "+
			"%d span stores (+%d elided), ordered sections in loops %v\n",
			rep.LoopIDs, rep.Structures, rep.LayoutUsed, len(rep.Promoted),
			rep.SpanStores, rep.SpanStoresElided, rep.SyncPlaced)
		var objs []string
		for _, o := range rep.Expanded {
			objs = append(objs, o.String())
		}
		sort.Strings(objs)
		fmt.Fprintf(os.Stderr, "expanded: %v\npromoted: %v\n", objs, rep.Promoted)
	}
	return nil
}

func pipelineCmd(args []string) error {
	fs := flag.NewFlagSet("pipeline", flag.ExitOnError)
	threads := fs.Int("threads", 4, "simulated thread count")
	engineName := fs.String("engine", "compiled", "execution engine: compiled or compiled-noopt")
	guarded := fs.Bool("guard", false,
		"run under the dependence-violation monitor with sequential fallback")
	recoverRegions := fs.Bool("recover", false,
		"with -guard: roll back and re-execute a violating region sequentially "+
			"instead of discarding the whole run")
	adapt := fs.Bool("adapt", false,
		"adaptive guarded execution: region recovery and runtime re-expansion "+
			"(layout flip, copy-count halving) on repeated violations at one "+
			"site pair (implies -guard -recover)")
	regionTimeout := fs.Duration("region-timeout", 0,
		"with -recover: watchdog limit per parallel region (e.g. 500ms; 0 = unbounded)")
	profileInput := fs.String("profile-input", "",
		"alternate source file for the profiling runs (train/ref input split)")
	traceOut := fs.String("trace", "",
		"write a Chrome trace-event JSON of the expanded run (load in Perfetto)")
	metricsOut := fs.String("metrics", "",
		"write the run's metrics registry as text ('-' for stderr)")
	hotspots := fs.Bool("hotspots", false,
		"profile per-access hot sites and print the hottest to stderr (expensive)")
	hotspotsOut := fs.String("hotspots-out", "",
		"with -hotspots: also write the full profile as flamegraph folded stacks")
	hotspotsJSON := fs.String("hotspots-json", "",
		"with -hotspots: write the per-site profile as JSON")
	fs.Parse(args)
	opt, err := engineFlag(*engineName)
	if err != nil {
		return err
	}
	prog, err := compileArg(fs)
	if err != nil {
		return err
	}
	native, err := prog.Run(gdsx.RunOptions{Threads: 1, Opt: opt})
	if err != nil {
		return err
	}
	topts := gdsx.TransformOptions{Guard: *guarded}
	if *profileInput != "" {
		psrc, err := os.ReadFile(*profileInput)
		if err != nil {
			return err
		}
		topts.ProfileSource = string(psrc)
	}
	ropts := gdsx.RunOptions{Threads: *threads, Opt: opt, RegionTimeout: *regionTimeout}
	if *recoverRegions && !*guarded && !*adapt {
		return fmt.Errorf("-recover requires -guard")
	}
	if *recoverRegions {
		ropts.Recover = &gdsx.RecoverySpec{}
	}
	if *hotspotsJSON != "" && !*hotspots {
		return fmt.Errorf("-hotspots-json requires -hotspots")
	}
	if *traceOut != "" || *metricsOut != "" || *hotspots {
		ropts.Obs = gdsx.NewObserver(*hotspots)
		// Per-iteration spans are what make the trace worth looking at
		// in Perfetto; a diagnostic pipeline run accepts their cost.
		ropts.Obs.IterSpans = *traceOut != ""
	}
	var tr *gdsx.TransformResult
	if !*adapt {
		// The adaptive driver transforms internally (and re-transforms on
		// a layout flip); transforming here would be wasted work.
		tr, err = gdsx.Transform(prog, topts)
		if err != nil {
			return err
		}
	}
	var out gdsx.Result
	if *adapt {
		ares, aerr := gdsx.AdaptiveRun(prog, topts, ropts)
		if aerr != nil {
			return aerr
		}
		tr = ares.Transform
		res := ares.Final
		out = res.Result
		fmt.Print(out.Output)
		fmt.Fprintf(os.Stderr, "adapt: %d attempt(s), %d re-expansion(s); final: %s layout, "+
			"%d copies, %d region recover(ies)\n",
			ares.Attempts, len(ares.Reexpansions), ares.Layout, ares.Threads, res.Recovered)
		for _, rx := range ares.Reexpansions {
			if rx.Failed {
				fmt.Fprintf(os.Stderr, "adapt: attempt %d: re-expansion failed: %s\n",
					rx.Attempt, rx.Reason)
				continue
			}
			fmt.Fprintf(os.Stderr, "adapt: attempt %d: loop %d %s sites %d-%d: "+
				"%s -> %s at %d copies\n", rx.Attempt, rx.Loop, rx.Rule,
				rx.Site, rx.OtherSite, rx.From, rx.To, rx.Threads)
		}
		if err := gdsx.RenderHealthReport(os.Stderr, res); err != nil {
			return err
		}
		// Fold the ladder state into the run's registry: region health,
		// residual strikes, re-expansion decisions — what -metrics renders.
		if ropts.Obs != nil && ropts.Obs.Metrics != nil {
			gdsx.PublishRegionStats(ropts.Obs.Metrics, res.Regions)
			gdsx.PublishGuardReports(ropts.Obs.Metrics, res.Violations)
			gdsx.PublishAdaptiveStats(ropts.Obs.Metrics, ares)
		}
	} else if *guarded {
		res, gerr := gdsx.GuardedRunPrecompiled(prog, tr, tr.Expanded, ropts)
		if gerr != nil {
			return gerr
		}
		out = res.Result
		fmt.Print(out.Output)
		switch {
		case res.FellBack:
			fmt.Fprintf(os.Stderr, "guard: dependence violation detected; "+
				"parallel run discarded, output is the sequential re-execution\n%s\n",
				res.Violation)
		case res.Recovered > 0:
			fmt.Fprintf(os.Stderr, "guard: %d region failure(s) recovered by "+
				"rollback; the rest of the run stayed parallel\n", res.Recovered)
		default:
			fmt.Fprintf(os.Stderr, "guard: %d-thread run completed, no violations\n", *threads)
		}
		// Region health and violation-rule summary, rendered through the
		// metrics pipeline (one format for reports, -metrics and expvar).
		if err := gdsx.RenderHealthReport(os.Stderr, res); err != nil {
			return err
		}
		// And into the run's own registry, so -metrics output includes it.
		if ropts.Obs != nil && ropts.Obs.Metrics != nil {
			gdsx.PublishRegionStats(ropts.Obs.Metrics, res.Regions)
			gdsx.PublishGuardReports(ropts.Obs.Metrics, res.Violations)
		}
	} else {
		out, err = tr.Expanded.Run(ropts)
		if err != nil {
			return err
		}
		fmt.Print(out.Output)
	}
	match := out.Output == native.Output
	status := "MATCH"
	if !match {
		status = "MISMATCH"
	}
	kind := ""
	if *guarded {
		kind = "guarded "
	}
	if *adapt {
		kind = "adaptive "
	}
	fmt.Fprintf(os.Stderr, "native vs %s%d-thread expanded: %s (%d structures expanded)\n",
		kind, *threads, status, tr.Reports[0].Structures)
	// The expanded program resolves the hot-site profile's access-site
	// IDs to source positions.
	if err := writeObsOutputs(ropts.Obs, tr.Expanded, *traceOut, *metricsOut, *hotspots, *hotspotsOut, *hotspotsJSON); err != nil {
		return err
	}
	if !match {
		return fmt.Errorf("%s%d-thread expanded output differs from native", kind, *threads)
	}
	return nil
}

// writeObsOutputs emits the observability artifacts the pipeline flags
// requested: the Chrome trace JSON, the metrics registry text, and the
// hot-site profile (top table on stderr, folded stacks or the raw
// per-site JSON to files).
func writeObsOutputs(o *gdsx.Observer, expanded *gdsx.Program, traceOut, metricsOut string, hotspots bool, hotspotsOut, hotspotsJSON string) error {
	if o == nil {
		return nil
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := o.Trace.WriteChrome(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if n := o.Trace.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "trace: %d events dropped (buffer full)\n", n)
		}
		fmt.Fprintf(os.Stderr, "trace: %d events -> %s (open in https://ui.perfetto.dev)\n",
			o.Trace.Len(), traceOut)
	}
	if metricsOut != "" {
		w := os.Stderr
		if metricsOut != "-" {
			f, err := os.Create(metricsOut)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		if err := o.Metrics.Render(w); err != nil {
			return err
		}
	}
	if hotspots && o.Hot != nil {
		frames := func(site int) []string { return nil }
		if expanded != nil {
			frames = gdsx.HotSiteFrames(expanded)
		}
		fmt.Fprintln(os.Stderr, "hot sites (top 20, by access count):")
		if err := gdsx.WriteHotSites(os.Stderr, o.Hot, 20, frames); err != nil {
			return err
		}
		if hotspotsOut != "" {
			f, err := os.Create(hotspotsOut)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := o.Hot.Folded(f, frames); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "hotspots: folded stacks -> %s\n", hotspotsOut)
		}
		if hotspotsJSON != "" {
			data, err := json.MarshalIndent(o.Hot.Report(), "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(hotspotsJSON, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "hotspots: site profile -> %s\n", hotspotsJSON)
		}
	}
	return nil
}
