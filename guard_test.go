package gdsx

// End-to-end tests of guarded parallel execution: the access monitor
// must detect dependence violations that an input exposes against the
// training profile, fall back to sequential re-execution with
// byte-identical native output, and stay silent (and overhead-only) on
// inputs the profile covers.

import (
	"strings"
	"testing"

	"gdsx/internal/guard"
	"gdsx/internal/workloads"
)

var guardThreads = []int{1, 2, 4, 8}

// guardTransform compiles the exposing program and transforms it with
// guard markers, profiling on the training source.
func guardTransform(t *testing.T, a *workloads.Adversarial) (*Program, *TransformResult) {
	t.Helper()
	native, err := Compile(a.Name+".c", a.Expose(workloads.Test))
	if err != nil {
		t.Fatalf("compile %s: %v", a.Name, err)
	}
	tr, err := Transform(native, TransformOptions{
		Guard:         true,
		ProfileSource: a.Profile(workloads.Test),
	})
	if err != nil {
		t.Fatalf("transform %s: %v", a.Name, err)
	}
	return native, tr
}

func sequentialOutput(t *testing.T, p *Program) string {
	t.Helper()
	out, err := p.Run(RunOptions{ForceSequential: true})
	if err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	return out.Output
}

// TestGuardDetectsExposedDependence: the adversarial workloads run
// under -guard with the dependence-exposing input must trip the
// monitor on every multi-threaded run, fall back to sequential
// re-execution, and produce byte-identical native output at every
// thread count.
func TestGuardDetectsExposedDependence(t *testing.T) {
	for _, a := range workloads.AdversarialAll() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			native, tr := guardTransform(t, a)
			want := sequentialOutput(t, native)
			for _, nt := range guardThreads {
				res, err := GuardedRun(native, tr, RunOptions{Threads: nt})
				if err != nil {
					t.Fatalf("threads=%d: guarded run: %v", nt, err)
				}
				if res.Result.Output != want {
					t.Fatalf("threads=%d: output %q, want native %q (fellback=%v)",
						nt, res.Result.Output, want, res.FellBack)
				}
				if nt >= 2 {
					if !res.FellBack || res.Violation == nil {
						t.Fatalf("threads=%d: expected a dependence violation, got none", nt)
					}
					if res.Violation.Total == 0 || len(res.Violation.Violations) == 0 {
						t.Fatalf("threads=%d: empty violation report", nt)
					}
				}
			}
		})
	}
}

// TestGuardViolationReportNamesSites: the report must identify the
// true conflicting accesses of the stencil — the tmp[] write and the
// strided tmp[] read — with positions, iterations and threads.
func TestGuardViolationReportNamesSites(t *testing.T) {
	a := workloads.AdversarialStencil()
	native, tr := guardTransform(t, a)
	res, err := GuardedRun(native, tr, RunOptions{Threads: 4})
	if err != nil {
		t.Fatalf("guarded run: %v", err)
	}
	if res.Violation == nil {
		t.Fatalf("expected a violation report")
	}
	found := false
	for _, v := range res.Violation.Violations {
		if v.Rule != guard.RuleCarriedFlow {
			continue
		}
		// The expanded program may rename the buffer (hoisted bases), but
		// the subscripts identify the true site pair: the strided read
		// against the per-iteration write.
		if !strings.Contains(v.Text, "(i + STRIDE) % 8") || !strings.Contains(v.OtherText, "i % 8") {
			continue
		}
		if v.Pos == "-" || v.OtherPos == "-" {
			t.Fatalf("carried-flow violation lacks source positions: %+v", v)
		}
		if v.Iter == v.OtherIter {
			t.Fatalf("carried-flow violation within one iteration: %+v", v)
		}
		found = true
	}
	if !found {
		t.Fatalf("no carried-flow violation naming the tmp site pair; report:\n%s", res.Violation)
	}
}

// TestGuardSilentOnProfiledInput: the same programs run under -guard
// with the training input must complete in parallel with zero
// violations and native-identical output.
func TestGuardSilentOnProfiledInput(t *testing.T) {
	for _, a := range workloads.AdversarialAll() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			native, err := Compile(a.Name+".c", a.Profile(workloads.Test))
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			tr, err := Transform(native, TransformOptions{Guard: true})
			if err != nil {
				t.Fatalf("transform: %v", err)
			}
			want := sequentialOutput(t, native)
			for _, nt := range guardThreads {
				res, err := GuardedRun(native, tr, RunOptions{Threads: nt})
				if err != nil {
					t.Fatalf("threads=%d: %v", nt, err)
				}
				if res.FellBack || res.Violation != nil {
					t.Fatalf("threads=%d: unexpected violation:\n%s", nt, res.Violation)
				}
				if res.Result.Output != want {
					t.Fatalf("threads=%d: output %q, want %q", nt, res.Result.Output, want)
				}
			}
		})
	}
}

// TestGuardStandardWorkloadsClean: the eight paper workloads transform
// with guard markers and run guarded with zero violations and
// unchanged output — the guard must not misfire on correct expansions.
func TestGuardStandardWorkloadsClean(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			native, err := Compile(w.Name+".c", w.Source(workloads.Test))
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			tr, err := Transform(native, TransformOptions{Guard: true})
			if err != nil {
				t.Fatalf("transform: %v", err)
			}
			want := sequentialOutput(t, native)
			res, err := GuardedRun(native, tr, RunOptions{Threads: 4})
			if err != nil {
				t.Fatalf("guarded run: %v", err)
			}
			if res.FellBack || res.Violation != nil {
				t.Fatalf("unexpected violation:\n%s", res.Violation)
			}
			if res.Result.Output != want {
				t.Fatalf("output %q, want %q", res.Result.Output, want)
			}
		})
	}
}

// TestGuardBothEngines: the monitor attaches at the shared hook layer,
// so both engine configurations (optimization pipeline off and on) must
// detect the same violation and produce the same fallback output.
func TestGuardBothEngines(t *testing.T) {
	a := workloads.AdversarialStencil()
	native, tr := guardTransform(t, a)
	want := sequentialOutput(t, native)
	for _, lv := range optLevels {
		res, err := GuardedRun(native, tr, RunOptions{Threads: 4, Opt: lv.opt})
		if err != nil {
			t.Fatalf("%s: %v", lv.name, err)
		}
		if !res.FellBack || res.Violation == nil {
			t.Fatalf("%s: expected a violation", lv.name)
		}
		if res.Result.Output != want {
			t.Fatalf("%s: output %q, want %q", lv.name, res.Result.Output, want)
		}
	}
}
