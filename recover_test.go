package gdsx

// End-to-end tests of region-scoped checkpoint/rollback recovery: a
// violating region must be rolled back and re-executed sequentially
// while the rest of the run keeps its parallelism, stuck regions must
// be reclaimed by the watchdog, repeat offenders must be demoted, and
// the whole-program fallback must keep caller hooks and disarm fault
// injection.

import (
	"fmt"
	"testing"
	"time"

	"gdsx/internal/interp"
	"gdsx/internal/workloads"
)

// TestRecoverMultiRegion: three chained parallel regions of which only
// the middle one violates. With recovery enabled the run must not fall
// back: region 2 alone is rolled back and re-executed sequentially,
// regions 1 and 3 commit their parallel runs, and the output is
// byte-identical to native sequential execution — at every thread
// count, with the optimization pipeline off and on.
func TestRecoverMultiRegion(t *testing.T) {
	a := workloads.AdversarialMultiRegion()
	native, tr := guardTransform(t, a)
	want := sequentialOutput(t, native)
	for _, lv := range optLevels {
		for _, nt := range guardThreads {
			t.Run(fmt.Sprintf("engine=%s/threads=%d", lv.name, nt), func(t *testing.T) {
				var starts int // ParallelStart runs on the spawning thread only
				hooks := &interp.Hooks{ParallelStart: func(loop, nthreads int) { starts++ }}
				res, err := GuardedRunPrecompiled(native, tr, tr.Expanded, RunOptions{
					Threads: nt,
					Opt:     lv.opt,
					Recover: &RecoverySpec{},
					Hooks:   hooks,
				})
				if err != nil {
					t.Fatalf("guarded run: %v", err)
				}
				if res.FellBack {
					t.Fatal("recovery must contain the violation without whole-program fallback")
				}
				if res.Result.Output != want {
					t.Fatalf("output %q, want native %q", res.Result.Output, want)
				}
				if nt < 2 {
					// Single-threaded runs take the plain sequential path:
					// no regions, no recovery machinery.
					if res.Recovered != 0 || len(res.Regions) != 0 {
						t.Fatalf("threads=1 must not engage recovery: %+v", res.Regions)
					}
					return
				}
				if res.Recovered != 1 || len(res.Violations) != 1 || res.Violation == nil {
					t.Fatalf("want exactly one recovered violation, got Recovered=%d Violations=%d",
						res.Recovered, len(res.Violations))
				}
				if starts != 3 {
					t.Fatalf("all three regions must attempt parallel execution, saw %d starts", starts)
				}
				if len(res.Regions) != 3 {
					t.Fatalf("want 3 region records, got %+v", res.Regions)
				}
				for i, r := range res.Regions {
					if i == 1 { // the middle region (records sort by loop ID)
						if r.Rollbacks != 1 || r.Violations != 1 || r.SeqRuns != 1 || r.ParallelRuns != 0 {
							t.Fatalf("region 2 must roll back once and re-run sequentially: %+v", r)
						}
						if r.RollbackPages == 0 || r.RollbackBytes == 0 {
							t.Fatalf("rollback restored no pages: %+v", r)
						}
					} else if r.Rollbacks != 0 || r.ParallelRuns != 1 || r.SeqRuns != 0 {
						t.Fatalf("region %d must stay parallel: %+v", i+1, r)
					}
				}
			})
		}
	}
}

// TestRecoverStuckRegionWatchdog: the stuck workload's exposing input
// spins every worker but thread 0 forever — no safe point is ever
// reached. The region watchdog must cancel the region, roll it back,
// and complete it sequentially with native output, with the
// optimization pipeline off and on.
func TestRecoverStuckRegionWatchdog(t *testing.T) {
	a := workloads.AdversarialStuck()
	native, tr := guardTransform(t, a)
	want := sequentialOutput(t, native)
	for _, lv := range optLevels {
		t.Run("engine="+lv.name, func(t *testing.T) {
			res, err := GuardedRunPrecompiled(native, tr, tr.Expanded, RunOptions{
				Threads:       4,
				Opt:           lv.opt,
				Recover:       &RecoverySpec{},
				RegionTimeout: 150 * time.Millisecond,
			})
			if err != nil {
				t.Fatalf("guarded run: %v", err)
			}
			if res.FellBack {
				t.Fatal("watchdog recovery must not fall back to a whole-program re-run")
			}
			if res.Result.Output != want {
				t.Fatalf("output %q, want native %q", res.Result.Output, want)
			}
			if res.Recovered != 1 {
				t.Fatalf("want one recovered region, got %d", res.Recovered)
			}
			found := false
			for _, r := range res.Regions {
				if r.Timeouts == 1 && r.Rollbacks == 1 && r.SeqRuns == 1 {
					found = true
					if r.LastFailure == "" {
						t.Fatalf("timeout rollback lacks a failure record: %+v", r)
					}
				}
			}
			if !found {
				t.Fatalf("no region recorded a watchdog timeout: %+v", res.Regions)
			}
		})
	}
}

// demotionSource wraps a violating stencil kernel in an outer
// sequential loop, so the same parallel region executes R times per
// run and the recovery controller's strike/demotion/cooldown policy
// becomes observable.
func demotionSource(stride int) string {
	return fmt.Sprintf(`
int N = 96;
int R = 8;
int STRIDE = %d;

long tmp[8];

void kernel(long *out) {
    int i;
    parallel for (i = 0; i < N; i++) {
        tmp[i %% 8] = (long)i * 2654435761 + 17;
        out[i] = tmp[(i + STRIDE) %% 8] %% 65536;
    }
}

int main() {
    long *out = (long*)malloc(N * 8);
    long s = 0;
    int r;
    int i;
    for (r = 0; r < R; r++) {
        kernel(out);
        for (i = 0; i < N; i++) {
            s = s * 31 + out[i];
        }
    }
    print_str("demotion ");
    print_long(s);
    print_char('\n');
    free(out);
    return 0;
}
`, stride)
}

func demotionTransform(t *testing.T) (*Program, *TransformResult) {
	t.Helper()
	native, err := Compile("demotion.c", demotionSource(1))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Transform(native, TransformOptions{Guard: true, ProfileSource: demotionSource(0)})
	if err != nil {
		t.Fatal(err)
	}
	return native, tr
}

// TestRecoverDemotion: a region violating on every parallel attempt
// accumulates strikes and is demoted to sequential-only execution
// after MaxStrikes, stopping the rollback churn for the remaining
// outer iterations.
func TestRecoverDemotion(t *testing.T) {
	native, tr := demotionTransform(t)
	want := sequentialOutput(t, native)
	res, err := GuardedRunPrecompiled(native, tr, tr.Expanded, RunOptions{
		Threads: 4,
		Recover: &RecoverySpec{MaxStrikes: 2},
	})
	if err != nil {
		t.Fatalf("guarded run: %v", err)
	}
	if res.FellBack || res.Result.Output != want {
		t.Fatalf("fellback=%v output %q, want native %q", res.FellBack, res.Result.Output, want)
	}
	if len(res.Regions) != 1 {
		t.Fatalf("want 1 region record, got %+v", res.Regions)
	}
	r := res.Regions[0]
	// 8 outer iterations: 2 rolled-back attempts (strikes), then 6
	// demoted sequential runs; every execution after demotion skips the
	// snapshot, so no further rollback cost accrues.
	if r.Rollbacks != 2 || r.Violations != 2 || !r.Demoted || r.ParallelRuns != 0 {
		t.Fatalf("unexpected demotion stats: %+v", r)
	}
	if r.SeqRuns != 8 {
		t.Fatalf("SeqRuns = %d, want 8 (2 recoveries + 6 demoted)", r.SeqRuns)
	}
	if res.Recovered != 2 || len(res.Violations) != 2 {
		t.Fatalf("want 2 recovered violations, got Recovered=%d Violations=%d",
			res.Recovered, len(res.Violations))
	}
}

// TestRecoverCooldownRepromotion: with a cooldown, a demoted region is
// periodically re-promoted for another parallel attempt (with one
// remaining strike), so a region whose violating phase ends could
// regain its parallelism. Here the region always violates, so every
// re-promotion costs exactly one more rollback before demoting again.
func TestRecoverCooldownRepromotion(t *testing.T) {
	native, tr := demotionTransform(t)
	want := sequentialOutput(t, native)
	res, err := GuardedRunPrecompiled(native, tr, tr.Expanded, RunOptions{
		Threads: 4,
		Recover: &RecoverySpec{MaxStrikes: 2, Cooldown: 2},
	})
	if err != nil {
		t.Fatalf("guarded run: %v", err)
	}
	if res.FellBack || res.Result.Output != want {
		t.Fatalf("fellback=%v output %q, want native %q", res.FellBack, res.Result.Output, want)
	}
	r := res.Regions[0]
	// Runs 1,2: rollback+demote. Runs 3,4: cooldown. Run 5: re-promoted
	// rollback, demote. Runs 6,7: cooldown. Run 8: re-promoted rollback.
	if r.Repromotions != 2 || r.Rollbacks != 4 || r.SeqRuns != 8 {
		t.Fatalf("unexpected cooldown stats: %+v", r)
	}
}

// TestGuardedRunKeepsUserHooks: caller-supplied hooks now compose with
// the monitor's (monitor first). The user's hooks must observe both
// the parallel attempt and — on the whole-program fallback — the
// sequential re-execution.
func TestGuardedRunKeepsUserHooks(t *testing.T) {
	a := workloads.AdversarialStencil()
	native, tr := guardTransform(t, a)

	// ParallelStart fires on the spawning thread, so a plain counter is
	// safe even while workers run; it proves the user saw the attempt.
	var regionStarts int
	res, err := GuardedRunPrecompiled(native, tr, tr.Expanded, RunOptions{Threads: 2, Hooks: &interp.Hooks{
		ParallelStart: func(loop, nthreads int) { regionStarts++ },
	}})
	if err != nil {
		t.Fatalf("guarded run: %v", err)
	}
	if !res.FellBack {
		t.Fatal("expected the stencil to fall back")
	}
	if regionStarts == 0 {
		t.Fatal("user hooks did not observe the parallel attempt")
	}

	// Load/Store hooks fire on every sited access; a single-threaded
	// guarded run keeps them race-free and must leave them installed
	// alongside the monitor's.
	var loads, stores int64
	res2, err := GuardedRunPrecompiled(native, tr, tr.Expanded, RunOptions{Threads: 1, Hooks: &interp.Hooks{
		Load:  func(site int, addr, size int64) { loads++ },
		Store: func(site int, addr, size int64) { stores++ },
	}})
	if err != nil {
		t.Fatalf("guarded run: %v", err)
	}
	if res2.FellBack {
		t.Fatal("single-threaded guarded run must not fall back")
	}
	if loads == 0 || stores == 0 {
		t.Fatalf("user memory hooks silent: loads=%d stores=%d", loads, stores)
	}
}

// failAllocSource: a violating kernel followed by many post-loop
// allocations, so a fault-injection countdown can be chosen that the
// parallel attempt never reaches but a whole-program sequential
// fallback would — the skew that used to break the fallback before
// GuardedRunPrecompiled disarmed the injection.
func failAllocSource(stride int) string {
	return fmt.Sprintf(`
int N = 96;
int STRIDE = %d;

long tmp[8];

void kernel(long *out) {
    int i;
    parallel for (i = 0; i < N; i++) {
        tmp[i %% 8] = (long)i * 40503 + 3;
        out[i] = tmp[(i + STRIDE) %% 8] %% 65536;
    }
}

int main() {
    long *out = (long*)malloc(N * 8);
    kernel(out);
    long s = 0;
    int j;
    for (j = 0; j < 200; j++) {
        long *p = (long*)malloc(64);
        p[0] = (long)j + 1;
        s = s + p[0];
        free(p);
    }
    int i;
    for (i = 0; i < N; i++) {
        s = s * 31 + out[i];
    }
    print_str("failalloc ");
    print_long(s);
    print_char('\n');
    free(out);
    return 0;
}
`, stride)
}

// TestGuardedFallbackDisarmsFailAlloc: a FailAlloc countdown elapsing
// against the parallel attempt's allocation sequence must not be
// replayed against the sequential fallback's — the fallback completes
// even though the same countdown would kill a fresh sequential run.
func TestGuardedFallbackDisarmsFailAlloc(t *testing.T) {
	checkFallbackDisarmsFailAlloc(t, nil)
}

// TestGuardedFallbackDisarmsFailAllocCallerArena is the same check on a
// caller-supplied arena: the countdown lives in the arena, so the
// fallback must start from a Reset one rather than from the abandoned
// attempt's, and its allocator stats must match a fresh arena's.
func TestGuardedFallbackDisarmsFailAllocCallerArena(t *testing.T) {
	fresh := checkFallbackDisarmsFailAlloc(t, nil)
	pooled := checkFallbackDisarmsFailAlloc(t, NewMemory(0))
	if pooled.Result.MemStats != fresh.Result.MemStats {
		t.Fatalf("fallback MemStats on a caller arena %+v, want the fresh arena's %+v",
			pooled.Result.MemStats, fresh.Result.MemStats)
	}
}

func checkFallbackDisarmsFailAlloc(t *testing.T, arena *Memory) *GuardedResult {
	t.Helper()
	native, err := Compile("failalloc.c", failAllocSource(1))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Transform(native, TransformOptions{Guard: true, ProfileSource: failAllocSource(0)})
	if err != nil {
		t.Fatal(err)
	}
	want := sequentialOutput(t, native)

	// Measure the expanded program's allocation count at the same thread
	// count; the guarded attempt aborts at the region's safe point, so
	// its allocations are this total minus the 200 post-loop ones.
	exp, err := tr.Expanded.Run(RunOptions{Threads: 4})
	if err != nil {
		t.Fatalf("expanded run: %v", err)
	}
	attemptAllocs := exp.MemStats.Allocs - 200
	n := attemptAllocs + 100

	// The countdown bites within a plain sequential run of the native
	// program — which is exactly what the fallback executes, so the old
	// pass-through behavior would have failed it.
	if _, err := native.Run(RunOptions{ForceSequential: true, FailAlloc: n}); err == nil {
		t.Fatalf("countdown %d too large to fire in a sequential run; test is vacuous", n)
	}

	res, err := GuardedRunPrecompiled(native, tr, tr.Expanded, RunOptions{Threads: 4, FailAlloc: n, Memory: arena})
	if err != nil {
		t.Fatalf("guarded run with FailAlloc=%d: %v", n, err)
	}
	if !res.FellBack || res.Violation == nil {
		t.Fatal("expected a violation-driven fallback")
	}
	if res.Result.Output != want {
		t.Fatalf("fallback output %q, want native %q", res.Result.Output, want)
	}
	return res
}
