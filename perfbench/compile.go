package main

import (
	"fmt"
	"time"

	"gdsx/internal/workloads"
)

// rotation is the pool offset a pass starts at: the seed rotates the
// program order, and each pass moves it on by one.
func rotation(seed int64, pass, n int) int {
	r := (seed + int64(pass)) % int64(n)
	if r < 0 {
		r += int64(n)
	}
	return int(r)
}

// runCompile measures cold builds of the eight Table-4 programs and the
// three adversarial training programs at test scale, one after another.
// Set-up builds the pool once and checks each build's native, expanded
// and guarded runs against the references; every measured build must
// then produce the same expanded source (modulo canonical). op_ms is
// the geomean of the per-program median build times; ops_per_s is the
// pool size over the median pass's summed build time. Passes run whole,
// so the window ends at the first pass boundary after --seconds and
// every program is built equally often. The traced run alternates
// untraced and traced passes, which gives trace.overhead.
func runCompile(b *bench) error {
	ps := pool()
	fmt.Println("scale=test (builds profile their own input)")
	var es []*entry
	if err := b.setup(func() error {
		var err error
		if es, err = b.buildPool(ps, workloads.Test); err != nil {
			return err
		}
		b.runPass(b.t, es, 0)
		return nil
	}); err != nil {
		return err
	}

	times := [2]map[string][]float64{{}, {}} // [untraced, traced] per program, ms
	var passSecs []float64                   // untraced passes: summed build time
	deadline := time.Now().Add(b.window)
	for pass := 0; time.Now().Before(deadline); pass++ {
		t, slot := (*tracer)(nil), 0
		if b.t != nil && pass%2 == 1 {
			t, slot = b.t, 1
		}
		off := rotation(b.seed, pass, len(es))
		busy := 0.0
		for i := range es {
			e := es[(i+off)%len(es)]
			_, dur, err := b.buildOnce(t, e.p, workloads.Test, e.b.tr.Source)
			if err != nil {
				continue
			}
			busy += dur.Seconds()
			times[slot][e.p.name] = append(times[slot][e.p.name], ms(dur))
		}
		if slot == 0 {
			passSecs = append(passSecs, busy)
		}
	}

	fmt.Printf("%-24s %8s %10s %12s\n", "program", "builds", "build_ms", "accesses")
	var meds []float64
	for _, p := range ps {
		xs := times[0][p.name]
		if len(xs) == 0 {
			continue
		}
		meds = append(meds, median(xs))
		fmt.Printf("%-24s %8d %10.2f %12d\n", p.name, len(xs), median(xs), b.counts[p.name+"/test/profile.accesses"])
	}
	buildMs := geomean(meds)
	fmt.Printf("build_ms %.3f (geomean of %d per-program medians)\n", buildMs, len(meds))
	if b.t == nil {
		b.set("op_ms", buildMs, "ms")
		b.set("ops_per_s", float64(len(es))/median(passSecs), "1/s")
		return nil
	}
	var tmeds []float64
	for _, p := range ps {
		if len(times[0][p.name]) > 0 && len(times[1][p.name]) > 0 {
			tmeds = append(tmeds, median(times[1][p.name])/median(times[0][p.name]))
		}
	}
	b.layerMetrics(geomean(tmeds) - 1)
	return nil
}
