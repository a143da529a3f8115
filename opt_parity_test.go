package gdsx

// Differential parity between the engine's two configurations: the
// unoptimized closures (-engine compiled-noopt, the reference) and the
// full optimization pipeline (-engine compiled). The optimized engine
// must be observationally identical to the unoptimized one:
// byte-identical program output, identical exit codes, identical
// instruction-category counters, identical dependence graphs and loop
// traces, and identical runtime faults — for every workload, under
// every expansion configuration, at every thread count. Spin counts
// (CatWait) depend on real scheduling and are only compared at one
// thread, where no ordered-section waiting can occur. Memory-op counts
// are exempt: register promotion deliberately removes the memory
// traffic of scalar locals (allocator statistics still match exactly:
// promoted variables keep their stack slots).
//
// The workload matrix is split between two tests so that no variant
// runs twice: TestOptEngineParity covers the default expansion, and
// TestEngineCrossValidation the native program and the unoptimized
// expansion.

import (
	"fmt"
	"testing"

	"gdsx/internal/expand"
	"gdsx/internal/interp"
	"gdsx/internal/workloads"
)

// optLevels are the engine configurations the parity tests compare,
// named by the -engine flag value that selects them; the first is the
// reference.
var optLevels = []struct {
	name string
	opt  OptLevel
}{{"compiled-noopt", OptNone}, {"compiled", OptDefault}}

// nativeProgram compiles w's test-scale program.
func nativeProgram(t *testing.T, w *workloads.Workload) *Program {
	t.Helper()
	prog, err := Compile(w.Name+".c", w.Source(workloads.Test))
	if err != nil {
		t.Fatalf("%s: compile: %v", w.Name, err)
	}
	return prog
}

// expandedProgram returns w's test-scale program expanded under eopts
// (nil selects the default, optimized expansion).
func expandedProgram(t *testing.T, w *workloads.Workload, eopts *expand.Options) *Program {
	t.Helper()
	tr, err := Transform(nativeProgram(t, w), TransformOptions{Expand: eopts})
	if err != nil {
		t.Fatalf("%s: transform: %v", w.Name, err)
	}
	return tr.Expanded
}

// checkOptParity runs prog under both optimization levels at each
// thread count and requires identical output, exit code, counters and
// allocator statistics.
func checkOptParity(t *testing.T, vname string, prog *Program, threads []int) {
	t.Helper()
	for _, n := range threads {
		var res [2]Result
		for i, lv := range optLevels {
			r, err := prog.Run(RunOptions{Threads: n, Opt: lv.opt})
			if err != nil {
				t.Fatalf("%s/%s/N=%d: %v", vname, lv.name, n, err)
			}
			res[i] = r
		}
		ref, got := res[0], res[1]
		label := fmt.Sprintf("%s/N=%d", vname, n)
		if got.Output != ref.Output {
			t.Errorf("%s: output diverges (%d vs %d bytes)",
				label, len(got.Output), len(ref.Output))
		}
		if got.Exit != ref.Exit {
			t.Errorf("%s: exit %d != %d", label, got.Exit, ref.Exit)
		}
		for _, c := range []int{interp.CatWork, interp.CatSync, interp.CatWait} {
			// Spin counts are timing-dependent under real parallel
			// DOACROSS execution; with one thread they must agree.
			if c == interp.CatWait && n > 1 {
				continue
			}
			if got.Counters[c] != ref.Counters[c] {
				t.Errorf("%s: %s counter %d != %d", label, interp.CatNames[c],
					got.Counters[c], ref.Counters[c])
			}
		}
		// End-state allocator statistics are deterministic at any
		// thread count; the high-water marks depend on how
		// concurrent allocations interleave, so they are only
		// required to match for sequential runs.
		if got.MemStats.Live != ref.MemStats.Live ||
			got.MemStats.Allocs != ref.MemStats.Allocs ||
			got.MemStats.Blocks != ref.MemStats.Blocks {
			t.Errorf("%s: allocator stats %+v != %+v", label,
				got.MemStats, ref.MemStats)
		}
		if n == 1 && got.MemStats != ref.MemStats {
			t.Errorf("%s: allocator high water %+v != %+v", label,
				got.MemStats, ref.MemStats)
		}
	}
}

// TestOptEngineParity is the CI gate (`go test -run Parity -race`): the
// default expansion of every workload.
func TestOptEngineParity(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			checkOptParity(t, "opt", expandedProgram(t, w, nil), parityThreads)
		})
	}
}

// TestEngineCrossValidation covers the rest of the matrix: the native
// program and its unoptimized expansion.
func TestEngineCrossValidation(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			// An un-expanded program with parallel annotations is
			// exactly what the paper calls incorrect: its threads
			// race, so its parallel runs are not deterministic under
			// either configuration. Compare the native variant
			// sequentially only.
			checkOptParity(t, "native", nativeProgram(t, w), []int{1})
			un := expand.Unoptimized()
			checkOptParity(t, "unopt", expandedProgram(t, w, &un), parityThreads)
		})
	}
}

// TestEngineHooksParity runs the dependence profiler — the heaviest
// Hooks consumer — under both configurations and requires identical
// graphs.
func TestEngineHooksParity(t *testing.T) {
	w := workloads.ByName("dijkstra")
	src := w.Source(workloads.Test)
	var graphs [2]string
	for i, lv := range optLevels {
		prog, err := Compile(w.Name+".c", src)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range prog.ParallelLoops() {
			pr, err := prog.ProfileLoop(id, RunOptions{Opt: lv.opt})
			if err != nil {
				t.Fatalf("%s: profile loop %d: %v", lv.name, id, err)
			}
			graphs[i] += fmt.Sprintf("loop %d:\n%s", id, pr.Graph.String())
		}
	}
	if graphs[0] != graphs[1] {
		t.Errorf("dependence graphs diverge:\n%s:\n%s\n%s:\n%s",
			optLevels[0].name, graphs[0], optLevels[1].name, graphs[1])
	}
}

// TestEngineTraceParity compares the schedule-simulator input (loop
// traces) produced by the two configurations.
func TestEngineTraceParity(t *testing.T) {
	w := workloads.ByName("md5")
	src := w.Source(workloads.Test)
	var traces [2][]*interp.LoopTrace
	for i, lv := range optLevels {
		res, err := runSource(w.Name+".c", src, RunOptions{Threads: 1, Trace: true, Opt: lv.opt})
		if err != nil {
			t.Fatalf("%s: %v", lv.name, err)
		}
		traces[i] = res.Traces
	}
	if len(traces[0]) != len(traces[1]) {
		t.Fatalf("trace count %d != %d", len(traces[1]), len(traces[0]))
	}
	for i := range traces[0] {
		a, b := traces[0][i], traces[1][i]
		if a.LoopID != b.LoopID || a.Kind != b.Kind || len(a.Iters) != len(b.Iters) {
			t.Fatalf("trace %d shape diverges", i)
		}
		for j := range a.Iters {
			if a.Iters[j] != b.Iters[j] {
				t.Errorf("trace %d iter %d: %+v != %+v", i, j, b.Iters[j], a.Iters[j])
			}
		}
	}
}

// TestOptEngineFaultParity requires the optimizer to preserve fault
// behavior exactly: the same runtime error, with the same source
// position and message, from both configurations. The cases hit the
// paths the optimizer rewrites — promoted scalars around a faulting
// access, a fused loop condition driving a budget fault, and an
// allocation failure mid-loop.
func TestOptEngineFaultParity(t *testing.T) {
	cases := []struct {
		name string
		src  string
		opts RunOptions
	}{
		{
			// The faulting dereference sits between reads and writes of
			// promoted locals.
			name: "null-deref",
			src: `int main() {
				int a = 3;
				int *p = (int *)0;
				a = a + 1;
				return a + *p;
			}`,
		},
		{
			// A fused compare-and-branch back-edge drives the counter into
			// the budget; the fault must fire after the identical op count.
			name: "budget",
			src: `int main() {
				int i; int s;
				s = 0;
				for (i = 0; i < 1000000; i++) { s = s + i; }
				return s;
			}`,
			opts: RunOptions{MaxOps: 5000},
		},
		{
			// The nth allocation fails while promoted scalars carry loop
			// state.
			name: "failed-alloc",
			src: `int main() {
				int i; long total;
				total = 0;
				for (i = 0; i < 10; i++) {
					int *p = (int *)malloc(64);
					p[0] = i;
					total = total + p[0];
				}
				return (int)total;
			}`,
			opts: RunOptions{FailAlloc: 4},
		},
		{
			// Out-of-bounds past the simulated capacity through a promoted
			// pointer.
			name: "oob",
			src: `int main() {
				long big = 1024L * 1024L * 1024L;
				int *p = (int *)(big * 64L);
				return *p;
			}`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var errs [2]string
			for i, lv := range optLevels {
				o := tc.opts
				o.Opt = lv.opt
				_, rerr := runSource(tc.name+".c", tc.src, o)
				if rerr == nil {
					t.Fatalf("%s: expected a runtime error", lv.name)
				}
				errs[i] = rerr.Error()
			}
			if errs[0] != errs[1] {
				t.Errorf("fault diverges:\n%s: %s\n%s: %s",
					optLevels[0].name, errs[0], optLevels[1].name, errs[1])
			}
		})
	}
}
