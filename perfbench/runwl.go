package main

import (
	"fmt"
	"gdsx/internal/workloads"
	"time"
)

// runRun measures repeated runs of programs built during set-up with
// the paper's train/ref split: profiled on the test-scale training
// input, run at profile scale. Each pass runs every program native at
// one thread and guarded at two, and the Table-4 programs also plain
// expanded at two. Set-up builds the pool and makes one checked pass,
// which is also the warm-up. op_ms is the geomean over (program, mode)
// of the median run times; ops_per_s is the runs in a pass over the
// median pass's summed run time. Passes run whole, so the window ends
// at the first pass boundary after --seconds. The traced run alternates
// untraced and traced passes, which gives trace.overhead.
func runRun(b *bench) error {
	ps := pool()
	fmt.Printf("scale=profile (profiled on the test-scale training input), threads native=1 expanded=%d guarded=%d\n", runThreads, runThreads)
	var es []*entry
	if err := b.setup(func() error {
		var err error
		if es, err = b.buildPool(ps, workloads.ProfileScale); err != nil {
			return err
		}
		b.runPass(b.t, es, 0)
		return nil
	}); err != nil {
		return err
	}

	type key struct {
		name string
		m    mode
	}
	times := [2]map[key][]float64{{}, {}} // [untraced, traced], ms
	var passSecs []float64                // untraced passes: summed run time
	perPass := 0
	deadline := time.Now().Add(b.window)
	for pass := 0; time.Now().Before(deadline); pass++ {
		t, slot := (*tracer)(nil), 0
		if b.t != nil && pass%2 == 1 {
			t, slot = b.t, 1
		}
		ss := b.runPass(t, es, rotation(b.seed, pass, len(es)))
		busy := 0.0
		for _, s := range ss {
			k := key{s.e.p.name, s.m}
			times[slot][k] = append(times[slot][k], ms(s.dur))
			busy += s.dur.Seconds()
		}
		if slot == 0 {
			passSecs = append(passSecs, busy)
			perPass = len(ss)
		}
	}

	var classes []float64
	var perMode [numModes][]float64
	fmt.Printf("%-24s %10s %10s %10s %12s %9s %8s\n", "program", "native_ms", "run_ms", "guarded_ms", "ops", "rollbacks", "speedup")
	for _, e := range es {
		var med [numModes]float64
		for _, m := range e.modes() {
			xs := times[0][key{e.p.name, m}]
			if len(xs) == 0 {
				continue
			}
			med[m] = median(xs)
			classes = append(classes, med[m])
			perMode[m] = append(perMode[m], med[m])
		}
		speedup := 0.0
		if med[expanded] > 0 {
			speedup = med[native] / med[expanded]
		}
		pre := e.p.name + "/profile/"
		fmt.Printf("%-24s %10.2f %10.2f %10.2f %12d %9d %8.2f\n", e.p.name, med[native], med[expanded], med[guarded],
			b.counts[pre+"native/ops"], b.counts[pre+"guarded/rollbacks"], speedup)
	}
	fmt.Printf("native_ms %.3f run_ms %.3f guarded_ms %.3f (geomeans of per-program medians)\n",
		geomean(perMode[native]), geomean(perMode[expanded]), geomean(perMode[guarded]))
	if b.t == nil {
		b.set("op_ms", geomean(classes), "ms")
		b.set("ops_per_s", float64(perPass)/median(passSecs), "1/s")
		return nil
	}
	var ratios []float64
	for k, xs := range times[1] {
		if ys := times[0][k]; len(ys) > 0 && len(xs) > 0 {
			ratios = append(ratios, median(xs)/median(ys))
		}
	}
	b.layerMetrics(geomean(ratios) - 1)
	return nil
}
