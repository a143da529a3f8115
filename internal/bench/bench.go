// Package bench is the evaluation harness: it regenerates every table
// and figure of the paper's evaluation section (§4) over the eight
// workload programs. Timing numbers are simulated operation counts
// from the deterministic schedule simulator (package schedule), so the
// harness produces identical results on any host; memory numbers come
// from the simulated allocator's high-water mark.
package bench

import (
	"fmt"

	"gdsx"
	"gdsx/internal/expand"
	"gdsx/internal/schedule"
	"gdsx/internal/workloads"
)

// Config controls the harness.
type Config struct {
	// Scale is the input size of the measured runs (profiling always
	// uses workloads.ProfileScale inputs, like the paper's train/ref
	// split).
	Scale workloads.Scale
	// Threads are the simulated core counts of Figures 11/13/14.
	Threads []int
	// Model is the simulated machine (see schedule.Model).
	Model schedule.Model
	// MemSize for program runs.
	MemSize int64
	// Obs, when set, attaches an observer to every harness run — the
	// gdsxbench -http endpoint uses a metrics-only observer here so
	// expvar serves live counters while experiments execute. Timed
	// suite samples (Measure) never carry it.
	Obs *gdsx.Observer
}

// DefaultConfig measures at bench scale on 1,2,4,8 simulated cores.
func DefaultConfig() Config {
	return Config{
		Scale:   workloads.BenchScale,
		Threads: []int{1, 2, 4, 8},
		Model:   schedule.DefaultModel(),
		MemSize: 256 << 20,
	}
}

// wlData caches everything the experiments need about one workload.
type wlData struct {
	w    *workloads.Workload
	src  string
	psrc string // profile-scale source

	// Traced sequential runs (deterministic op counts + loop traces).
	native gdsx.Result // original program
	opt    gdsx.Result // expanded, §3.4 optimizations on
	unopt  gdsx.Result // expanded, optimizations off
	rt     gdsx.Result // original under runtime privatization

	optTR   *gdsx.TransformResult
	unoptTR *gdsx.TransformResult
	rtStats gdsx.RtStats

	// nativeMem is the allocator high water of the untransformed run.
	nativeMem int64
	// expMem / rtMem are high-water marks per thread count.
	expMem map[int]int64
	rtMem  map[int]int64
}

// Harness runs experiments, computing each workload's data lazily and
// caching it across experiments.
type Harness struct {
	cfg  Config
	data map[string]*wlData
	// arena is the simulated memory every suite sample runs on, Reset
	// before each (see measureCase).
	arena *gdsx.Memory
}

// New creates a harness.
func New(cfg Config) *Harness {
	if len(cfg.Threads) == 0 {
		cfg.Threads = []int{1, 2, 4, 8}
	}
	if cfg.MemSize == 0 {
		cfg.MemSize = 256 << 20
	}
	if cfg.Model == (schedule.Model{}) {
		cfg.Model = schedule.DefaultModel()
	}
	return &Harness{cfg: cfg, data: map[string]*wlData{}}
}

func (h *Harness) run(opts gdsx.RunOptions) gdsx.RunOptions {
	opts.MemSize = h.cfg.MemSize
	opts.Obs = h.cfg.Obs
	return opts
}

// scaleName names a workload scale for reports.
func scaleName(s workloads.Scale) string {
	switch s {
	case workloads.Test:
		return "test"
	case workloads.ProfileScale:
		return "profile"
	case workloads.BenchScale:
		return "bench"
	}
	return fmt.Sprintf("scale(%d)", int(s))
}

// Data computes (or returns cached) measurements for one workload.
func (h *Harness) Data(w *workloads.Workload) (*wlData, error) {
	if d, ok := h.data[w.Name]; ok {
		return d, nil
	}
	d := &wlData{
		w:      w,
		src:    w.Source(h.cfg.Scale),
		psrc:   w.Source(workloads.ProfileScale),
		expMem: map[int]int64{},
		rtMem:  map[int]int64{},
	}
	if h.cfg.Scale == workloads.ProfileScale || h.cfg.Scale == workloads.Test {
		d.psrc = d.src // same scale: profile directly
	}

	prog, err := gdsx.Compile(w.Name+".c", d.src)
	if err != nil {
		return nil, fmt.Errorf("%s: compile: %w", w.Name, err)
	}
	d.native, err = prog.Run(h.run(gdsx.RunOptions{Threads: 1, Trace: true}))
	if err != nil {
		return nil, fmt.Errorf("%s: native run: %w", w.Name, err)
	}
	d.nativeMem = d.native.MemStats.HighWaterData

	topts := gdsx.TransformOptions{ProfileSource: d.psrc, ProfileOpts: h.run(gdsx.RunOptions{})}
	d.optTR, err = gdsx.Transform(prog, topts)
	if err != nil {
		return nil, fmt.Errorf("%s: transform: %w", w.Name, err)
	}
	un := expand.Unoptimized()
	uopts := topts
	uopts.Expand = &un
	d.unoptTR, err = gdsx.Transform(prog, uopts)
	if err != nil {
		return nil, fmt.Errorf("%s: transform (unoptimized): %w", w.Name, err)
	}

	d.opt, err = d.optTR.Expanded.Run(h.run(gdsx.RunOptions{Threads: 1, Trace: true}))
	if err != nil {
		return nil, fmt.Errorf("%s: expanded run: %w", w.Name, err)
	}
	d.unopt, err = d.unoptTR.Expanded.Run(h.run(gdsx.RunOptions{Threads: 1, Trace: true}))
	if err != nil {
		return nil, fmt.Errorf("%s: unoptimized run: %w", w.Name, err)
	}
	if d.opt.Output != d.native.Output || d.unopt.Output != d.native.Output {
		return nil, fmt.Errorf("%s: transformed output diverges from native", w.Name)
	}

	// Runtime privatization (traced; private sites from the profile-
	// scale program, whose site numbering matches).
	pprog, err := gdsx.Compile(w.Name+"-p.c", d.psrc)
	if err != nil {
		return nil, fmt.Errorf("%s: compile profile input: %w", w.Name, err)
	}
	sites, err := pprog.PrivateSites(h.run(gdsx.RunOptions{}))
	if err != nil {
		return nil, fmt.Errorf("%s: private sites: %w", w.Name, err)
	}
	rprog, err := gdsx.Compile(w.Name+".c", d.src)
	if err != nil {
		return nil, err
	}
	d.rt, d.rtStats, err = rprog.RunRuntimePrivatized(sites,
		h.run(gdsx.RunOptions{Threads: 1, Trace: true}))
	if err != nil {
		return nil, fmt.Errorf("%s: runtime privatization: %w", w.Name, err)
	}
	if d.rt.Output != d.native.Output {
		return nil, fmt.Errorf("%s: runtime-privatized output diverges", w.Name)
	}

	// Memory use per thread count (paper Figure 14). Expansion: the
	// transformed program with __nthreads = n. Runtime privatization:
	// the monitor's per-thread copies during real parallel execution.
	for _, n := range h.cfg.Threads {
		res, err := d.optTR.Expanded.Run(h.run(gdsx.RunOptions{Threads: n, ForceSequential: true}))
		if err != nil {
			return nil, fmt.Errorf("%s: memory run N=%d: %w", w.Name, n, err)
		}
		d.expMem[n] = res.MemStats.HighWaterData

		mp, err := gdsx.Compile(w.Name+".c", d.src)
		if err != nil {
			return nil, err
		}
		rres, _, err := mp.RunRuntimePrivatized(sites, h.run(gdsx.RunOptions{Threads: n}))
		if err != nil {
			return nil, fmt.Errorf("%s: rtpriv memory run N=%d: %w", w.Name, n, err)
		}
		d.rtMem[n] = rres.MemStats.HighWaterData
	}

	h.data[w.Name] = d
	return d, nil
}

// loopOps returns the total traced loop ops of a run.
func loopOps(res gdsx.Result) int64 {
	var s int64
	for _, tr := range res.Traces {
		s += tr.Ops()
	}
	return s
}

// loopTime simulates the run's parallel loops at n threads and returns
// the summed makespan plus the aggregate breakdown.
func (h *Harness) loopTime(res gdsx.Result, n int) (int64, schedule.Breakdown) {
	var agg schedule.Breakdown
	for _, tr := range res.Traces {
		agg.Add(schedule.Simulate(tr, n, h.cfg.Model))
	}
	return agg.Time, agg
}

// totalTime simulates the whole program at n threads.
func (h *Harness) totalTime(res gdsx.Result, n int) (int64, error) {
	total, _, _, err := schedule.ProgramTime(res, n, h.cfg.Model)
	return total, err
}
