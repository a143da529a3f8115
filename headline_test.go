package gdsx

// The paper's headline claim, asserted end-to-end on one benchmark:
// general data structure expansion removes the spurious dependences of
// a dynamic data structure at a few percent sequential overhead,
// yielding real parallel speedup, while runtime privatization's
// per-access monitoring costs more than its parallelism recovers
// (paper Figures 9–13 in one test).
//
// The full workflow of the paper's Figure 7 runs here: dependence
// profiling, Definition 5 classification, expansion, parallel
// execution, and the SpiceC-style baseline.

import (
	"testing"

	"gdsx/internal/schedule"
	"gdsx/internal/workloads"
)

func TestHeadlineExpansionBeatsRuntimePrivatization(t *testing.T) {
	if testing.Short() {
		t.Skip("headline integration test is not short")
	}
	w := workloads.ByName("256.bzip2") // the zptr benchmark of §3.1
	src := w.Source(workloads.ProfileScale)

	prog, err := Compile("bzip2.c", src)
	if err != nil {
		t.Fatal(err)
	}
	native, err := prog.Run(RunOptions{Threads: 1, Trace: true})
	if err != nil {
		t.Fatal(err)
	}

	// Expansion: transform, verify output, measure.
	tr, err := Transform(prog, TransformOptions{})
	if err != nil {
		t.Fatal(err)
	}
	expanded, err := tr.Expanded.Run(RunOptions{Threads: 1, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if expanded.Output != native.Output {
		t.Fatal("expansion changed the program output")
	}

	// Runtime privatization baseline on the original program.
	sites, err := prog.PrivateSites(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rprog, _ := Compile("bzip2.c", src)
	rt, _, err := rprog.RunRuntimePrivatized(sites, RunOptions{Threads: 1, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Output != native.Output {
		t.Fatal("runtime privatization changed the program output")
	}

	nativeOps := float64(native.Counters[0])
	expansionOverhead := float64(expanded.Counters[0]) / nativeOps
	rtOverhead := float64(rt.Counters[0]) / nativeOps

	// Figure 9b: expansion costs a few percent.
	if expansionOverhead > 1.10 {
		t.Errorf("expansion overhead %.2fx exceeds the paper's few-percent band", expansionOverhead)
	}
	// Figure 10: runtime privatization costs much more.
	if rtOverhead < 2*expansionOverhead {
		t.Errorf("runtime privatization (%.2fx) should cost far more than expansion (%.2fx)",
			rtOverhead, expansionOverhead)
	}

	// Figures 11 vs 13 at 8 threads: expansion yields real speedup;
	// runtime privatization recovers less than it spends.
	model := schedule.DefaultModel()
	loopTime := func(res Result, n int) float64 {
		var total int64
		for _, trc := range res.Traces {
			total += schedule.Simulate(trc, n, model).Time
		}
		return float64(total)
	}
	nativeLoop := loopTime(native, 1)
	expSpeedup := nativeLoop / loopTime(expanded, 8)
	rtSpeedup := nativeLoop / loopTime(rt, 8)
	if expSpeedup < 2.0 {
		t.Errorf("expansion loop speedup %.2fx at 8 threads is below the paper's band", expSpeedup)
	}
	if rtSpeedup > 1.0 {
		t.Errorf("runtime privatization should yield nearly no speedup, got %.2fx", rtSpeedup)
	}
	if expSpeedup <= rtSpeedup {
		t.Errorf("expansion (%.2fx) must beat runtime privatization (%.2fx)", expSpeedup, rtSpeedup)
	}
	t.Logf("overheads: expansion %.2fx, rtpriv %.2fx; 8-thread loop speedups: expansion %.2fx, rtpriv %.2fx",
		expansionOverhead, rtOverhead, expSpeedup, rtSpeedup)
}
