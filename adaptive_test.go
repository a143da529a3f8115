package gdsx

// End-to-end tests of the adaptive speculation ladder: tiered guard
// sampling must let violations escape only between sample points and
// still converge to a sequential-identical final state; runtime
// re-expansion must resolve copy-count-shaped violation patterns; and
// commutative-update privatization must run reduction loops clean and
// parallel. Chaos injection (FaultPlan) exercises the same ladder with
// synthetic faults.

import (
	"strings"
	"testing"

	"gdsx/internal/ddg"
	"gdsx/internal/expand"
	"gdsx/internal/sema"
	"gdsx/internal/workloads"
)

// adaptCompile compiles an adversarial pair's exposing program and its
// native sequential reference output.
func adaptCompile(t *testing.T, a *workloads.Adversarial) (*Program, string) {
	t.Helper()
	prog, err := Compile(a.Name+".c", a.Expose(workloads.Test))
	if err != nil {
		t.Fatalf("compile %s: %v", a.Name, err)
	}
	want, err := prog.Run(RunOptions{ForceSequential: true})
	if err != nil {
		t.Fatalf("native run %s: %v", a.Name, err)
	}
	return prog, want.Output
}

// TestCommSiteDetection checks the semantic tagging of
// reduction-shaped updates: integer +=/-=/++/-- and the guarded
// min/max assignment patterns must be marked with their operator, and
// non-commutative shapes must not.
func TestCommSiteDetection(t *testing.T) {
	count := func(src string, op ddg.CommOp) int {
		t.Helper()
		prog, err := Compile("comm.c", src)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		n := 0
		for _, o := range sema.CommSites(prog.Info) {
			if o == op {
				n++
			}
		}
		return n
	}
	// += on an integer tags load and store of the accumulator.
	if n := count(`long t; int main() { t += 3; return 0; }`, ddg.CommAdd); n != 2 {
		t.Errorf("+= tagged %d sites, want 2", n)
	}
	if n := count(`int c; int main() { c++; return 0; }`, ddg.CommAdd); n != 2 {
		t.Errorf("++ tagged %d sites, want 2", n)
	}
	// Guarded max: if (v > hi) hi = v; tags the store and the
	// condition's matching loads.
	if n := count(`long hi; int main() { long v = 9; if (v > hi) { hi = v; } return 0; }`,
		ddg.CommMax); n == 0 {
		t.Error("guarded max pattern not tagged")
	}
	if n := count(`long lo; int main() { long v = 9; if (v < lo) { lo = v; } return 0; }`,
		ddg.CommMin); n == 0 {
		t.Error("guarded min pattern not tagged")
	}
	// Floating-point addition is not associative: never tagged.
	if n := count(`double s; int main() { s += 0.5; return 0; }`, ddg.CommAdd); n != 0 {
		t.Errorf("float += tagged %d sites, want 0", n)
	}
	// A guarded assignment whose value is unrelated to the condition is
	// not a min/max.
	if n := count(`long hi; int main() { long v = 9; if (v > hi) { hi = v + 1; } return 0; }`,
		ddg.CommMax); n != 0 {
		t.Errorf("non-minmax guarded store tagged %d sites, want 0", n)
	}
}

// TestCommutativePrivatization runs the reduction workload guarded
// with commutative privatization: the three accumulators (sum,
// histogram, max) must be detected as commutative classes, the region
// must stay violation-free at every thread count with the optimization
// pipeline off and on, and the output must match the native
// sequential run. The privatizer's stats prove the mechanism actually
// engaged.
func TestCommutativePrivatization(t *testing.T) {
	w := workloads.CommReduce()
	prog, wantOut := adaptCompile(t, w)
	eopts := expand.Optimized()
	eopts.Commutative = true
	tr, err := Transform(prog, TransformOptions{
		Guard:         true,
		ProfileSource: w.Profile(workloads.Test),
		Expand:        &eopts,
	})
	if err != nil {
		t.Fatalf("transform: %v", err)
	}
	classes := 0
	var notes []string
	for _, r := range tr.Reports {
		classes += r.CommClasses
		notes = append(notes, r.CommNotes...)
	}
	if classes != 3 {
		t.Fatalf("commutative classes = %d, want 3 (total, hist, hi):\n%s",
			classes, strings.Join(notes, "\n"))
	}
	for _, e := range optLevels {
		for _, nt := range []int{1, 2, 4, 8} {
			res, err := GuardedRunPrecompiled(prog, tr, tr.Expanded, RunOptions{Threads: nt, Opt: e.opt})
			if err != nil {
				t.Fatalf("%s threads=%d: %v", e.name, nt, err)
			}
			if res.FellBack || res.Violation != nil {
				t.Fatalf("%s threads=%d: privatized reduction still violates:\n%v",
					e.name, nt, res.Violation)
			}
			if res.Result.Output != wantOut {
				t.Fatalf("%s threads=%d: output %q, want %q",
					e.name, nt, res.Result.Output, wantOut)
			}
			if res.Comm == nil {
				t.Fatalf("%s threads=%d: no commutative runtime stats", e.name, nt)
			}
			// Single-thread parallel loops run inline without region
			// hooks — sequential semantics need no privatization.
			if nt >= 2 && (res.Comm.Redirected == 0 || res.Comm.Merged == 0) {
				t.Fatalf("%s threads=%d: privatizer never engaged: %+v",
					e.name, nt, res.Comm)
			}
		}
	}
}

// TestSampledGuardEscapeWindow drives the escape workload — one
// violating access per region execution, appearing only after the
// region earned a sampled tier — through tiered guard sampling with
// region recovery. The violation must escape detection on executions
// whose sampling phase misses it (committing a corrupt but
// self-healing state), be picked up as a suspicion when the rotating
// phase aligns, escalate the region back to full guarding, and leave
// a final state byte-identical to the native sequential run. Pinned
// to SchedStatic: the violating iteration's thread placement is what
// makes detection deterministic.
func TestSampledGuardEscapeWindow(t *testing.T) {
	a := workloads.AdversarialEscape()
	prog, wantOut := adaptCompile(t, a)
	tr, err := Transform(prog, TransformOptions{
		Guard:         true,
		ProfileSource: a.Profile(workloads.Test),
	})
	if err != nil {
		t.Fatalf("transform: %v", err)
	}
	for _, e := range optLevels {
		for _, nt := range []int{1, 2, 4, 8} {
			res, err := GuardedRunPrecompiled(prog, tr, tr.Expanded, RunOptions{
				Threads: nt, Sched: SchedStatic, Opt: e.opt,
				Recover: &RecoverySpec{}, Sample: &TierSpec{},
			})
			if err != nil {
				t.Fatalf("%s threads=%d: %v", e.name, nt, err)
			}
			if res.Result.Output != wantOut {
				t.Fatalf("%s threads=%d: final state diverges: %q, want %q",
					e.name, nt, res.Result.Output, wantOut)
			}
			if res.FellBack {
				t.Fatalf("%s threads=%d: whole-program fallback despite region recovery", e.name, nt)
			}
			if nt < 2 {
				continue // single-thread placement reads its own copy: clean
			}
			if res.Suspicions < 1 {
				t.Errorf("%s threads=%d: sampled tier raised no suspicion", e.name, nt)
			}
			if res.Recovered < 1 {
				t.Errorf("%s threads=%d: no region was rolled back", e.name, nt)
			}
			esc := 0
			for _, ts := range res.Tiers {
				esc += ts.Escalations
			}
			if esc < 1 {
				t.Errorf("%s threads=%d: tier never escalated back to full guarding: %+v",
					e.name, nt, res.Tiers)
			}
		}
	}
}

// TestAdaptiveReexpansion drives the window workload — violations
// confined to one chunk-boundary-straddling window — through the
// adaptive driver at 4 threads. The same site pair strikes on every
// region execution, so the driver re-expands: the layout flip cannot
// help (the window is a placement problem, not a layout problem), the
// copy-count halving can — at 2 threads the window sits inside one
// chunk and the region runs clean and parallel.
func TestAdaptiveReexpansion(t *testing.T) {
	a := workloads.AdversarialWindow()
	prog, wantOut := adaptCompile(t, a)
	res, err := AdaptiveRun(prog, TransformOptions{ProfileSource: a.Profile(workloads.Test)},
		RunOptions{Threads: 4, Sched: SchedStatic})
	if err != nil {
		t.Fatalf("adaptive run: %v", err)
	}
	if res.Final.Result.Output != wantOut {
		t.Fatalf("final output %q, want %q", res.Final.Result.Output, wantOut)
	}
	if res.Threads != 2 {
		t.Fatalf("final copy count = %d, want 2 (halved from 4); decisions: %+v",
			res.Threads, res.Reexpansions)
	}
	if res.Attempts != 3 {
		t.Errorf("attempts = %d, want 3 (strike out, flip layout, halve copies)", res.Attempts)
	}
	if len(res.Reexpansions) != 2 {
		t.Errorf("re-expansion decisions = %d, want 2: %+v", len(res.Reexpansions), res.Reexpansions)
	}
	if len(res.Final.Violations) != 0 {
		t.Errorf("final attempt still violates: %v", res.Final.Violations)
	}
	if len(res.Strikes) != 0 {
		t.Errorf("final attempt still strikes: %v", res.Strikes)
	}
}

// TestAdaptiveRunCallerArena: every attempt after the first must start
// from a Reset caller arena, so the final attempt's allocator stats are
// those of a run on a fresh one.
func TestAdaptiveRunCallerArena(t *testing.T) {
	a := workloads.AdversarialWindow()
	prog, _ := adaptCompile(t, a)
	run := func(arena *Memory) *AdaptiveResult {
		t.Helper()
		res, err := AdaptiveRun(prog, TransformOptions{ProfileSource: a.Profile(workloads.Test)},
			RunOptions{Threads: 4, Sched: SchedStatic, Memory: arena})
		if err != nil {
			t.Fatalf("adaptive run: %v", err)
		}
		return res
	}
	fresh, pooled := run(nil), run(NewMemory(0))
	if pooled.Attempts != fresh.Attempts || pooled.Attempts < 2 {
		t.Fatalf("attempts: caller arena %d, fresh %d (want equal and at least 2)",
			pooled.Attempts, fresh.Attempts)
	}
	if got, want := pooled.Final.Result.MemStats, fresh.Final.Result.MemStats; got != want {
		t.Fatalf("final MemStats on a caller arena %+v, want the fresh arena's %+v", got, want)
	}
}

// TestAdaptiveReexpandInjectedFailure checks the chaos hook on the
// re-expansion path: with FaultPlan.FailReexpand every decision is
// injected to fail, so the driver stops after the first attempt with
// the failure recorded — and the output is still correct, because
// each attempt's region recovery never depended on the adaptation.
func TestAdaptiveReexpandInjectedFailure(t *testing.T) {
	a := workloads.AdversarialWindow()
	prog, wantOut := adaptCompile(t, a)
	res, err := AdaptiveRun(prog, TransformOptions{ProfileSource: a.Profile(workloads.Test)},
		RunOptions{Threads: 4, Sched: SchedStatic, FaultPlan: &FaultPlan{FailReexpand: 1}})
	if err != nil {
		t.Fatalf("adaptive run: %v", err)
	}
	if res.Final.Result.Output != wantOut {
		t.Fatalf("final output %q, want %q", res.Final.Result.Output, wantOut)
	}
	if res.Attempts != 1 {
		t.Errorf("attempts = %d, want 1 (re-expansion injected to fail)", res.Attempts)
	}
	if len(res.Reexpansions) != 1 || !res.Reexpansions[0].Failed {
		t.Fatalf("want one failed re-expansion decision, got %+v", res.Reexpansions)
	}
	if !strings.Contains(res.Reexpansions[0].Reason, "fault plan") {
		t.Errorf("failure reason %q does not name the fault plan", res.Reexpansions[0].Reason)
	}
}

// TestChaosFaultPlanConvergence injects spurious suspicions and forced
// rollbacks into perfectly healthy guarded runs: the recovery ladder
// must absorb every injected fault — rollback, sequential re-execution,
// possibly demotion — and still finish with native-identical output,
// without inventing violation reports (the injections are not guard
// evidence) and without the whole-program fallback.
func TestChaosFaultPlanConvergence(t *testing.T) {
	victims := []*workloads.Adversarial{
		workloads.AdversarialEscape(),
		workloads.AdversarialWindow(),
	}
	for _, a := range victims {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			// The Profile variant is the healthy program: every region
			// execution is clean, so every fault below is injected.
			src := a.Profile(workloads.Test)
			prog, err := Compile(a.Name+".c", src)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			want, err := prog.Run(RunOptions{ForceSequential: true})
			if err != nil {
				t.Fatalf("native run: %v", err)
			}
			tr, err := Transform(prog, TransformOptions{Guard: true, ProfileSource: src})
			if err != nil {
				t.Fatalf("transform: %v", err)
			}
			res, err := GuardedRunPrecompiled(prog, tr, tr.Expanded, RunOptions{
				Threads: 4,
				Recover: &RecoverySpec{},
				Sample:  &TierSpec{},
				FaultPlan: &FaultPlan{
					SuspectEvery:  2,
					RollbackEvery: 3,
				},
			})
			if err != nil {
				t.Fatalf("guarded run: %v", err)
			}
			if res.Result.Output != want.Output {
				t.Fatalf("output diverges under chaos: %q, want %q",
					res.Result.Output, want.Output)
			}
			if res.FellBack {
				t.Fatal("whole-program fallback despite region recovery")
			}
			if res.Suspicions < 1 {
				t.Error("no injected suspicion was observed")
			}
			if res.Recovered < 1 {
				t.Error("no injected fault rolled a region back")
			}
			if len(res.Violations) != 0 {
				t.Errorf("injected faults must not produce guard reports: %v", res.Violations)
			}
		})
	}
}
