package gdsx

import (
	"runtime"
	"testing"

	"gdsx/internal/workloads"
)

// TestGuardHeapPerLoggedAccess bounds the Go heap the guard monitor
// spends per logged access: the TotalAlloc of a guarded run, minus that
// of the same expansion run unguarded with Recover, over the run's
// guard.events_logged. Each logged access costs an 8-byte record; the
// rest is its share of segment headers, the order index (one entry per
// 64 accesses), shadow pages and the page filter's stamps.
func TestGuardHeapPerLoggedAccess(t *testing.T) {
	const bound = 16 // bytes per logged access
	for _, name := range []string{"456.hmmer", "dijkstra"} {
		t.Run(name, func(t *testing.T) {
			w := workloads.ByName(name)
			native, err := Compile(name+".c", w.Source(workloads.ProfileScale))
			if err != nil {
				t.Fatal(err)
			}
			tr, err := Transform(native, TransformOptions{Guard: true, ProfileSource: w.Source(workloads.Test)})
			if err != nil {
				t.Fatal(err)
			}
			opts := RunOptions{Threads: 2, Recover: &RecoverySpec{}}
			guarded := func(o *Observer) {
				gopts := opts
				gopts.Obs = o
				res, err := GuardedRunPrecompiled(native, tr, tr.Expanded, gopts)
				if err != nil || res.Violation != nil {
					t.Fatalf("guarded run: %v, violation %v", err, res.Violation)
				}
			}
			o := NewObserver(false)
			guarded(o)
			logged := o.Metrics.Counter("guard.events_logged").Value()
			if logged == 0 {
				t.Fatal("the guarded run logged no access")
			}
			g := minAlloc(func() { guarded(nil) })
			p := minAlloc(func() {
				if _, err := tr.Expanded.Run(opts); err != nil {
					t.Fatal(err)
				}
			})
			per := (float64(g) - float64(p)) / float64(logged)
			t.Logf("%d accesses logged; guarded %d B, unguarded %d B: %.1f B per logged access", logged, g, p, per)
			if per > bound {
				t.Errorf("the guard allocates %.1f bytes per logged access, want at most %d", per, bound)
			}
		})
	}
}

// minAlloc returns the fewest heap bytes run allocated over three runs.
func minAlloc(run func()) uint64 {
	var least uint64
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; i == 0 || d < least {
			least = d
		}
	}
	return least
}
