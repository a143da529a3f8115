package gdsx

import (
	"reflect"
	"testing"

	"gdsx/internal/schedule"
	"gdsx/internal/workloads"
)

// The zptr program under runtime privatization: the untransformed code
// runs with the monitor, output must match native, and the monitor must
// actually have intercepted accesses and created copies.
func TestRuntimePrivatizationCorrect(t *testing.T) {
	prog, err := Compile("zptr.c", zptrSrc)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	native, err := prog.Run(RunOptions{Threads: 1})
	if err != nil {
		t.Fatalf("native: %v", err)
	}
	sites, err := prog.PrivateSites(RunOptions{})
	if err != nil {
		t.Fatalf("PrivateSites: %v", err)
	}
	if len(sites) == 0 {
		t.Fatalf("no private sites found")
	}
	for _, n := range []int{1, 2, 4, 8} {
		// Fresh compile per run: the monitor binds to one machine.
		prog, err := Compile("zptr.c", zptrSrc)
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		res, st, err := prog.RunRuntimePrivatized(sites, RunOptions{Threads: n})
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		if res.Output != native.Output {
			t.Fatalf("N=%d: output %q != native %q", n, res.Output, native.Output)
		}
		if st.Monitored == 0 || st.Copies == 0 {
			t.Fatalf("N=%d: monitor idle: %+v", n, st)
		}
	}
}

// Runtime privatization must cost more ops than native execution.
func TestRuntimePrivatizationOverhead(t *testing.T) {
	prog, err := Compile("zptr.c", zptrSrc)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	native, err := prog.Run(RunOptions{Threads: 1, ForceSequential: true})
	if err != nil {
		t.Fatalf("native: %v", err)
	}
	sites, err := prog.PrivateSites(RunOptions{})
	if err != nil {
		t.Fatalf("PrivateSites: %v", err)
	}
	prog2, _ := Compile("zptr.c", zptrSrc)
	res, _, err := prog2.RunRuntimePrivatized(sites, RunOptions{Threads: 1})
	if err != nil {
		t.Fatalf("rtpriv: %v", err)
	}
	if res.Counters[0] <= native.Counters[0] {
		t.Fatalf("rtpriv ops %d not above native %d", res.Counters[0], native.Counters[0])
	}
}

// Freed blocks must not leave stale private copies behind.
func TestRuntimePrivatizationFreeInvalidates(t *testing.T) {
	src := `
int main() {
    int *out = (int*)malloc(12 * 4);
    int iter;
    parallel for (iter = 0; iter < 12; iter++) {
        int k;
        int *buf = (int*)malloc(16 * 4);
        for (k = 0; k < 16; k++) {
            buf[k] = iter + k;
        }
        int s = 0;
        for (k = 0; k < 16; k++) {
            s += buf[k];
        }
        free(buf);
        out[iter] = s;
    }
    long total = 0;
    for (iter = 0; iter < 12; iter++) {
        total += out[iter];
    }
    print_long(total);
    free(out);
    return 0;
}`
	prog, err := Compile("freeinv.c", src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	native, err := prog.Run(RunOptions{Threads: 1})
	if err != nil {
		t.Fatalf("native: %v", err)
	}
	sites, err := prog.PrivateSites(RunOptions{})
	if err != nil {
		t.Fatalf("PrivateSites: %v", err)
	}
	prog2, _ := Compile("freeinv.c", src)
	res, _, err := prog2.RunRuntimePrivatized(sites, RunOptions{Threads: 4})
	if err != nil {
		t.Fatalf("rtpriv: %v", err)
	}
	if res.Output != native.Output {
		t.Fatalf("output %q != native %q", res.Output, native.Output)
	}
}

// TestPrivateSitesCallerArena: PrivateSites profiles one loop after
// another in a caller's arena, so it must Reset the arena between loops
// as Transform does. Under a MemLimit a quarter above one run's high
// water, the blocks the first loop's run left live would fail the
// second loop's run.
func TestPrivateSitesCallerArena(t *testing.T) {
	w := workloads.ByName("h263-encoder")
	prog, err := Compile(w.Name+".c", w.Source(workloads.Test))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(prog.ParallelLoops()); n < 2 {
		t.Fatalf("%s has %d parallel loops; the check needs two", w.Name, n)
	}
	res, err := prog.Run(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	limit := res.MemStats.HighWater * 5 / 4
	want, err := prog.PrivateSites(RunOptions{MemLimit: limit})
	if err != nil {
		t.Fatalf("pooled arenas: %v", err)
	}
	got, err := prog.PrivateSites(RunOptions{MemLimit: limit, Memory: NewMemory(0)})
	if err != nil {
		t.Fatalf("caller arena: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("caller arena gives sites %v, pooled arenas %v", got, want)
	}
}

// Traced execution produces loop traces, and the schedule simulator
// derives a speedup > 1 from them for a parallelizable program.
func TestTraceParallelAndSimulate(t *testing.T) {
	prog, err := Compile("zptr.c", zptrSrc)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	tr, err := Transform(prog, TransformOptions{})
	if err != nil {
		t.Fatalf("Transform: %v", err)
	}
	traced, err := tr.Expanded.Run(RunOptions{Threads: 8, Trace: true})
	if err != nil {
		t.Fatalf("traced run: %v", err)
	}
	if len(traced.Traces) == 0 {
		t.Fatalf("no traces recorded")
	}
	model := schedule.DefaultModel()
	t1, _, _, err := schedule.ProgramTime(traced, 1, model)
	if err != nil {
		t.Fatalf("ProgramTime(1): %v", err)
	}
	t8, _, _, err := schedule.ProgramTime(traced, 8, model)
	if err != nil {
		t.Fatalf("ProgramTime(8): %v", err)
	}
	if t8 >= t1 {
		t.Fatalf("no simulated speedup: t1=%d t8=%d", t1, t8)
	}
}
