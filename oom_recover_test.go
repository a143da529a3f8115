package gdsx

// Out-of-memory inside a parallel region must ride the recovery
// ladder like any other worker fault: the region rolls back to its
// entry snapshot — releasing the attempt's allocations, worker stacks
// included — and re-executes sequentially with the quota intact. These
// tests pin that behaviour at the interpreter level, through
// GuardedRunPrecompiled, and across pooled-memory reuse.

import (
	"errors"
	"strings"
	"testing"

	"gdsx/internal/interp"
)

// oomLeakSrc allocates 8KiB per iteration and never frees inside the
// loop, so live bytes grow monotonically through the region: a
// live-byte limit below the loop's total footprint trips OOM
// mid-region under every scheduler, deterministically.
const oomLeakSrc = `
int N = 64;

int main() {
	long *out = (long*)malloc(N * 8);
	int i;
	parallel for (i = 0; i < N; i++) {
		long *scratch = (long*)malloc(8192);
		scratch[0] = (long)i * 17;
		out[i] = scratch[0] + 3;
	}
	long s = 0;
	for (i = 0; i < N; i++) { s = s + out[i]; }
	print_long(s);
	print_char('\n');
	return 0;
}
`

// TestWorkerOOMRecoveredByRegionRollback injects an allocation
// failure into a parallel worker (FailAlloc counts allocations, so the
// fault lands inside the region deterministically) with region
// recovery enabled: the region must roll back once and re-execute
// sequentially, producing native output — with the optimization
// pipeline off and on, under both schedulers.
func TestWorkerOOMRecoveredByRegionRollback(t *testing.T) {
	for _, ps := range parityScheds {
		for _, lv := range optLevels {
			t.Run(ps.name+"/"+lv.name, func(t *testing.T) {
				opts := RunOptions{Threads: 4, Sched: ps.pol, Opt: lv.opt}
				probe, err := runSource("pfault.c", parallelFaultSrc, opts)
				if err != nil {
					t.Fatalf("probe run: %v", err)
				}
				// The run's last 64 allocations are the workers' scratch
				// blocks, so a countdown 5 short of the total fires inside
				// the region no matter how iterations were scheduled.
				opts.FailAlloc = probe.MemStats.Allocs - 5
				opts.Recover = &RecoverySpec{}
				res, err := runSource("pfault.c", parallelFaultSrc, opts)
				if err != nil {
					t.Fatalf("recovered run: %v", err)
				}
				if res.Output != probe.Output {
					t.Fatalf("recovered output %q, want %q", res.Output, probe.Output)
				}
				var rollbacks, seqRuns int
				for _, r := range res.Regions {
					rollbacks += r.Rollbacks
					seqRuns += r.SeqRuns
				}
				if rollbacks != 1 || seqRuns != 1 {
					t.Fatalf("want exactly one rollback + sequential re-run, got %+v", res.Regions)
				}
			})
		}
	}
}

// TestGuardedRunWorkerOOMRecoversInPlace runs the same injection
// through GuardedRunPrecompiled on a cleanly-profiled transform: the
// guarded run must absorb the OOM with a region rollback (no
// whole-program fallback, no violation) and still produce native
// output.
func TestGuardedRunWorkerOOMRecoversInPlace(t *testing.T) {
	native, err := Compile("pfault.c", parallelFaultSrc)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Transform(native, TransformOptions{Guard: true, ProfileSource: parallelFaultSrc})
	if err != nil {
		t.Fatal(err)
	}
	want, err := native.Run(RunOptions{ForceSequential: true})
	if err != nil {
		t.Fatal(err)
	}
	probe, err := tr.Expanded.Run(RunOptions{Threads: 4})
	if err != nil {
		t.Fatalf("probe run: %v", err)
	}
	res, err := GuardedRunPrecompiled(native, tr, tr.Expanded, RunOptions{
		Threads:   4,
		Recover:   &RecoverySpec{},
		FailAlloc: probe.MemStats.Allocs - 5,
	})
	if err != nil {
		t.Fatalf("guarded run: %v", err)
	}
	if res.FellBack {
		t.Fatal("region recovery should have absorbed the OOM without a whole-program fallback")
	}
	if res.Violation != nil {
		t.Fatalf("an OOM fault must not be reported as a guard violation: %v", res.Violation)
	}
	if res.Recovered != 1 {
		t.Fatalf("Recovered = %d, want 1", res.Recovered)
	}
	if res.Result.Output != want.Output {
		t.Fatalf("output %q, want native %q", res.Result.Output, want.Output)
	}
}

// TestMemLimitOOMRecoveredSequentially sets a quota the parallel
// attempt must exceed (4 extra worker stacks plus the leaked scratch)
// but the rolled-back sequential re-execution fits (rollback releases
// the attempt's allocations, worker stacks included): the run must
// succeed with native output on every scheduler.
func TestMemLimitOOMRecoveredSequentially(t *testing.T) {
	want, err := runSource("oomleak.c", oomLeakSrc, RunOptions{ForceSequential: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, ps := range parityScheds {
		t.Run(ps.name, func(t *testing.T) {
			res, err := runSource("oomleak.c", oomLeakSrc, RunOptions{
				Threads:   4,
				Sched:     ps.pol,
				StackSize: 64 << 10,
				// Sequential footprint: one 64KiB stack + 64*8KiB scratch
				// ≈ 580KiB, under the limit. Parallel adds 4 worker stacks
				// (256KiB), so the attempt overshoots mid-region.
				MemLimit: 700 << 10,
				Recover:  &RecoverySpec{},
			})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.Output != want.Output {
				t.Fatalf("output %q, want native %q", res.Output, want.Output)
			}
			var rollbacks, seqRuns int
			for _, r := range res.Regions {
				rollbacks += r.Rollbacks
				seqRuns += r.SeqRuns
			}
			if rollbacks != 1 || seqRuns != 1 {
				t.Fatalf("quota OOM must cause exactly one rollback + seq re-run: %+v", res.Regions)
			}
		})
	}
}

// TestMemLimitOOMLeavesMemoryPoolable: a hard OOM abort (no recovery)
// must surface as a structured runtime error and leave a pooled
// memory fully reusable after Reset — the service's per-request
// lifecycle under quota kills.
func TestMemLimitOOMLeavesMemoryPoolable(t *testing.T) {
	pool := NewMemory(8 << 20)
	_, err := runSource("oomleak.c", oomLeakSrc, RunOptions{
		Threads:   4,
		StackSize: 64 << 10,
		MemLimit:  500 << 10, // below even the sequential footprint
		Memory:    pool,
	})
	if err == nil {
		t.Fatal("expected a quota OOM")
	}
	var re interp.RuntimeError
	if !errors.As(err, &re) {
		t.Fatalf("error is %T, want interp.RuntimeError: %v", err, err)
	}
	if !strings.Contains(re.Msg, "out of memory") {
		t.Fatalf("message %q lacks the OOM cause", re.Msg)
	}

	pool.Reset()
	want, err := runSource("oomleak.c", oomLeakSrc, RunOptions{ForceSequential: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runSource("oomleak.c", oomLeakSrc, RunOptions{
		Threads:   4,
		StackSize: 64 << 10,
		Memory:    pool,
		Recover:   &RecoverySpec{},
	})
	if err != nil {
		t.Fatalf("run on reset pooled memory: %v", err)
	}
	if res.Output != want.Output {
		t.Fatalf("pooled rerun output %q, want %q", res.Output, want.Output)
	}
}
