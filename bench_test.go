package gdsx_test

// One testing.B benchmark per table and figure of the paper's
// evaluation section. Each benchmark regenerates its experiment through
// the harness (deterministic, simulated timing) and reports the
// headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's evaluation end to end. Workload data is
// computed once and shared across benchmarks; iterations after the
// first hit the harness cache. Benchmarks run at profile scale so the
// whole suite stays fast; `go run ./cmd/gdsxbench` regenerates the same
// tables at full bench scale.

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"gdsx"
	"gdsx/internal/bench"
	"gdsx/internal/workloads"
)

var (
	harnessOnce sync.Once
	harness     *bench.Harness
)

func sharedHarness(b *testing.B) *bench.Harness {
	harnessOnce.Do(func() {
		cfg := bench.DefaultConfig()
		cfg.Scale = workloads.ProfileScale
		harness = bench.New(cfg)
	})
	return harness
}

func BenchmarkTable4Characteristics(b *testing.B) {
	h := sharedHarness(b)
	var pct float64
	for i := 0; i < b.N; i++ {
		rows, err := h.Table4()
		if err != nil {
			b.Fatal(err)
		}
		pct = 0
		for _, r := range rows {
			pct += r.TimePct
		}
		pct /= float64(len(rows))
	}
	b.ReportMetric(pct, "mean-loop-%time")
}

func BenchmarkTable5Privatized(b *testing.B) {
	h := sharedHarness(b)
	var total int
	for i := 0; i < b.N; i++ {
		rows, err := h.Table5()
		if err != nil {
			b.Fatal(err)
		}
		total = 0
		for _, r := range rows {
			total += r.Privatized
		}
	}
	b.ReportMetric(float64(total), "structures")
}

func BenchmarkFigure8AccessBreakdown(b *testing.B) {
	h := sharedHarness(b)
	var expandable float64
	for i := 0; i < b.N; i++ {
		rows, err := h.Figure8()
		if err != nil {
			b.Fatal(err)
		}
		expandable = 0
		for _, r := range rows {
			expandable += r.Expandable
		}
		expandable /= float64(len(rows))
	}
	b.ReportMetric(expandable, "mean-expandable-%")
}

func BenchmarkFigure9Overhead(b *testing.B) {
	h := sharedHarness(b)
	var un, op float64
	for i := 0; i < b.N; i++ {
		var err error
		_, un, op, err = h.Figure9()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(un, "hm-slowdown-unopt")
	b.ReportMetric(op, "hm-slowdown-opt")
}

func BenchmarkFigure10VsRuntimePriv(b *testing.B) {
	h := sharedHarness(b)
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := h.Figure10()
		if err != nil {
			b.Fatal(err)
		}
		ratio = 0
		for _, r := range rows {
			ratio += r.Runtime / r.Expansion
		}
		ratio /= float64(len(rows))
	}
	b.ReportMetric(ratio, "rtpriv/expansion-overhead")
}

func BenchmarkFigure11Speedup(b *testing.B) {
	h := sharedHarness(b)
	var hm4, hm8 float64
	for i := 0; i < b.N; i++ {
		_, hm, err := h.Figure11()
		if err != nil {
			b.Fatal(err)
		}
		hm4, hm8 = hm[4], hm[8]
	}
	b.ReportMetric(hm4, "hm-total-speedup@4")
	b.ReportMetric(hm8, "hm-total-speedup@8")
}

func BenchmarkFigure12Breakdown(b *testing.B) {
	h := sharedHarness(b)
	var wait float64
	for i := 0; i < b.N; i++ {
		rows, err := h.Figure12()
		if err != nil {
			b.Fatal(err)
		}
		wait = 0
		for _, r := range rows {
			wait += r.Wait
		}
		wait /= float64(len(rows))
	}
	b.ReportMetric(wait, "mean-wait-%@8")
}

func BenchmarkFigure13RuntimePrivSpeedup(b *testing.B) {
	h := sharedHarness(b)
	var mean float64
	for i := 0; i < b.N; i++ {
		rows, err := h.Figure13()
		if err != nil {
			b.Fatal(err)
		}
		mean = 0
		for _, r := range rows {
			mean += r.Speedup[8]
		}
		mean /= float64(len(rows))
	}
	b.ReportMetric(mean, "mean-speedup@8")
}

func BenchmarkFigure14Memory(b *testing.B) {
	h := sharedHarness(b)
	var exp8 float64
	for i := 0; i < b.N; i++ {
		rows, err := h.Figure14()
		if err != nil {
			b.Fatal(err)
		}
		exp8 = 0
		for _, r := range rows {
			exp8 += r.Expansion[8]
		}
		exp8 /= float64(len(rows))
	}
	b.ReportMetric(exp8, "mean-exp-mem-multiple@8")
}

func BenchmarkAblationSyncPlacement(b *testing.B) {
	h := sharedHarness(b)
	var coarse8 float64
	for i := 0; i < b.N; i++ {
		rows, err := h.AblationSync()
		if err != nil {
			b.Fatal(err)
		}
		coarse8 = 0
		for _, r := range rows {
			coarse8 += r.CoarseSpeedup8
		}
		coarse8 /= float64(len(rows))
	}
	b.ReportMetric(coarse8, "mean-coarse-speedup@8")
}

func BenchmarkAblationBaseHoisting(b *testing.B) {
	h := sharedHarness(b)
	var flat float64
	for i := 0; i < b.N; i++ {
		rows, err := h.AblationHoist()
		if err != nil {
			b.Fatal(err)
		}
		flat = 0
		for _, r := range rows {
			flat += r.Unhoisted
		}
		flat /= float64(len(rows))
	}
	b.ReportMetric(flat, "mean-unhoisted-slowdown")
}

// BenchmarkWallClockParallel measures REAL wall-clock execution of a
// transformed workload at 1 vs GOMAXPROCS threads. On a multi-core
// host the ratio approaches the simulated speedups; on a single-core
// host it stays near 1. The evaluation uses the schedule simulator so
// that its numbers do not depend on the host at all.
func BenchmarkWallClockParallel(b *testing.B) {
	w := workloads.ByName("md5")
	prog, err := gdsx.Compile("md5.c", w.Source(workloads.ProfileScale))
	if err != nil {
		b.Fatal(err)
	}
	tr, err := gdsx.Transform(prog, gdsx.TransformOptions{})
	if err != nil {
		b.Fatal(err)
	}
	threads := runtime.GOMAXPROCS(0)
	xprog, err := gdsx.Compile("md5-x.c", tr.Source)
	if err != nil {
		b.Fatal(err)
	}
	var seq, par time.Duration
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := xprog.Run(gdsx.RunOptions{Threads: 1}); err != nil {
			b.Fatal(err)
		}
		seq += time.Since(t0)
		t1 := time.Now()
		if _, err := xprog.Run(gdsx.RunOptions{Threads: threads}); err != nil {
			b.Fatal(err)
		}
		par += time.Since(t1)
	}
	b.ReportMetric(float64(seq)/float64(par), "wallclock-speedup")
	b.ReportMetric(float64(threads), "gomaxprocs")
}
