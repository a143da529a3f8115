package gdsx

// Observability parity between the engine's two configurations
// (optimization pipeline off and on). They already agree on output and
// counters (opt_parity_test.go); these tests extend the contract to
// the observability layer: both must emit the same canonical event
// stream and the same deterministic metrics for the same program at
// the same thread count. Canonical form erases what legitimately
// differs between runs — timestamps, durations, emitting thread,
// allocation base addresses, checkpoint page sets and schedule-
// dependent violation totals (see obs.Event schemas).

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"gdsx/internal/obs"
	"gdsx/internal/workloads"
)

// obsRun executes src at the given optimization level with a fully
// enabled (non-hot) observer and returns the observer.
func obsRun(t *testing.T, name, src string, opt OptLevel, threads int) *Observer {
	t.Helper()
	o := NewObserver(false)
	o.IterSpans = true
	_, err := runSource(name, src, RunOptions{Threads: threads, Opt: opt, Obs: o})
	if err != nil {
		t.Fatalf("%s (opt %d, %d threads): %v", name, opt, threads, err)
	}
	return o
}

// deterministicCounters filters a metrics snapshot down to the
// counters that must match between configurations: spin counts (wait
// ops) and work-stealing steal counts depend on real host scheduling,
// everything else is simulated and exact.
func deterministicCounters(s obs.Snapshot) map[string]int64 {
	out := map[string]int64{}
	for name, v := range s.Counters {
		if name == "interp.ops.wait" || name == "sched.steals" {
			continue
		}
		out[name] = v
	}
	return out
}

func TestObsEngineParity(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			prog, err := Compile(w.Name+".c", w.Source(workloads.Test))
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			tr, err := Transform(prog, TransformOptions{})
			if err != nil {
				t.Fatalf("transform: %v", err)
			}
			for _, n := range []int{1, 2, 4} {
				// The expanded program is the one whose parallel runs are
				// deterministic; the native source races at n > 1 (see
				// opt_parity_test.go).
				name := fmt.Sprintf("%s-x.c", w.Name)
				refObs := obsRun(t, name, tr.Source, optLevels[0].opt, n)
				gotObs := obsRun(t, name, tr.Source, optLevels[1].opt, n)

				refEvents := refObs.Trace.Canonical()
				gotEvents := gotObs.Trace.Canonical()
				if !reflect.DeepEqual(refEvents, gotEvents) {
					t.Fatalf("N=%d: canonical event streams differ\n%s (%d):\n%s\n%s (%d):\n%s",
						n, optLevels[0].name, len(refEvents), strings.Join(refEvents, "\n"),
						optLevels[1].name, len(gotEvents), strings.Join(gotEvents, "\n"))
				}
				// Single-threaded runs take the plain sequential path and
				// emit no region events; parallel runs must.
				if n > 1 && len(refEvents) == 0 {
					t.Fatalf("N=%d: expected events from an expanded parallel run", n)
				}

				refM := deterministicCounters(refObs.Metrics.Snapshot())
				gotM := deterministicCounters(gotObs.Metrics.Snapshot())
				if !reflect.DeepEqual(refM, gotM) {
					t.Fatalf("N=%d: deterministic metrics differ\n%s: %v\n%s: %v",
						n, optLevels[0].name, refM, optLevels[1].name, gotM)
				}
			}
		})
	}
}

// TestObserverKeepsPromotion pins which observers cost the optimizer
// its register promotion, read off Result.MemOps (promoted reads skip
// the cache model). The standard observer sees only region-level
// events, so the optimized run keeps its no-observer count; the hot-
// site profiler's per-access Observe hook turns promotion off, so the
// count rises to the unoptimized one.
func TestObserverKeepsPromotion(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			exp := expandedProgram(t, w, nil)
			for _, n := range []int{1, 2} {
				memOps := func(opt OptLevel, o *Observer) int64 {
					t.Helper()
					res, err := exp.Run(RunOptions{Threads: n, Opt: opt, Obs: o})
					if err != nil {
						t.Fatalf("N=%d, opt %d: %v", n, opt, err)
					}
					return res.MemOps
				}
				bare, noopt := memOps(OptDefault, nil), memOps(OptNone, nil)
				if bare >= noopt {
					t.Fatalf("N=%d: promotion saved no memory ops (%d optimized, %d unoptimized)", n, bare, noopt)
				}
				if got := memOps(OptDefault, NewObserver(false)); got != bare {
					t.Errorf("N=%d: MemOps with the standard observer = %d, without = %d", n, got, bare)
				}
				if got := memOps(OptDefault, NewObserver(true)); got != noopt {
					t.Errorf("N=%d: MemOps with the hot-site profiler = %d, unoptimized = %d", n, got, noopt)
				}
			}
		})
	}
}

// guardVerdicts lists a trace's guard-verdict events with their
// violation totals, which canonical form leaves out.
func guardVerdicts(o *Observer) []string {
	var out []string
	for _, ev := range o.Trace.Events() {
		if ev.Name == "guard-verdict" {
			out = append(out, fmt.Sprintf("loop=%d label=%s violations=%d", ev.Loop, ev.Label, ev.V2))
		}
	}
	sort.Strings(out)
	return out
}

// TestObsGuardedParity extends event-stream parity to guarded runs
// with recovery on the multi-region adversarial program: guard
// verdicts, rollbacks, checkpoint commits and the recovery ladder's
// step must appear identically with the optimization pipeline off and
// on. The middle region's one rollback narrows it from 4 workers to 2,
// and demotes it at 2. A verdict's violation total depends on which
// iterations share a worker, so it is only pinned under static
// scheduling, where the placement is fixed.
func TestObsGuardedParity(t *testing.T) {
	a := workloads.AdversarialMultiRegion()
	native, err := Compile(a.Name+".c", a.Expose(workloads.Test))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	tr, err := Transform(native, TransformOptions{
		Guard:         true,
		ProfileSource: a.Profile(workloads.Test),
	})
	if err != nil {
		t.Fatalf("transform: %v", err)
	}
	guarded := func(opts RunOptions) *Observer {
		t.Helper()
		o := NewObserver(false)
		o.IterSpans = true
		opts.Recover, opts.Obs = &RecoverySpec{}, o
		res, err := GuardedRunPrecompiled(native, tr, tr.Expanded, opts)
		if err != nil {
			t.Fatalf("guarded run (%+v): %v", opts, err)
		}
		if res.FellBack {
			t.Fatalf("opt %d, %d threads: recovery must contain the violation", opts.Opt, opts.Threads)
		}
		return o
	}
	// The verdicts the static schedule's replays reach, per thread
	// count: only the middle region violates.
	staticVerdicts := map[int][]string{}
	for n, total := range map[int]int{2: 7, 4: 21} {
		staticVerdicts[n] = []string{
			"loop=1 label=clean violations=0",
			fmt.Sprintf("loop=2 label=carried-flow violations=%d", total),
			"loop=3 label=clean violations=0",
		}
	}
	for _, n := range []int{2, 4} {
		var streams [2][]string
		for i, lv := range optLevels {
			streams[i] = guarded(RunOptions{Threads: n, Opt: lv.opt}).Trace.Canonical()
		}
		if !reflect.DeepEqual(streams[0], streams[1]) {
			t.Fatalf("N=%d: guarded canonical streams differ\n%s:\n%s\n%s:\n%s",
				n, optLevels[0].name, strings.Join(streams[0], "\n"),
				optLevels[1].name, strings.Join(streams[1], "\n"))
		}
		joined := strings.Join(streams[0], "\n")
		for _, want := range []string{"guard-verdict", "rollback", "checkpoint-commit", "region"} {
			if !strings.Contains(joined, want) {
				t.Fatalf("N=%d: guarded stream lacks %q events:\n%s", n, want, joined)
			}
		}
		step := map[int]string{
			4: "narrow/i loop=2 iter=-1 label= v1=4 v2=2",
			2: "demote/i loop=2 iter=-1 label= v1=1 v2=0",
		}[n]
		if !slices.Contains(streams[0], step) {
			t.Fatalf("N=%d: guarded stream lacks %q:\n%s", n, step, joined)
		}

		// Repeated static runs of both configurations must all reach
		// exactly the pinned verdicts.
		for rep := 0; rep < 2; rep++ {
			for _, lv := range optLevels {
				got := guardVerdicts(guarded(RunOptions{Threads: n, Opt: lv.opt, Sched: SchedStatic}))
				if want := staticVerdicts[n]; !reflect.DeepEqual(got, want) {
					t.Fatalf("N=%d static, %s run %d: guard verdicts\n%s\nwant:\n%s",
						n, lv.name, rep, strings.Join(got, "\n"), strings.Join(want, "\n"))
				}
			}
		}
	}
}
