package gdsx

// Scheduler parity: the three parallel-loop schedulers (static
// chunking, dynamic self-scheduling, work stealing) must agree on
// everything the program can observe — output bytes, work/sync
// instruction accounting, fault positions, and whether a guarded run
// is clean or violating. Only load balance (and therefore CatWait spin
// counts and steal counts) may differ. The guard comparison is
// deliberately status-only: a violation report's rule labels and
// iteration attribution depend on the iteration-to-thread mapping the
// scheduler chose (the copy mapping follows the schedule), so reports
// are schedule-dependent even though detection is not. Dynamic
// self-scheduling has no placement guarantee of its own — a
// slow-starting worker can hand every iteration to its sibling and
// honestly hide a cross-thread dependence — so guarded regions
// override it to work stealing (with a Result.Warnings entry), and
// the must-detect assertion holds for all three policies (see
// TestSchedulerGuardVerdictParity).

import (
	"errors"
	"strings"
	"testing"

	"gdsx/internal/interp"
	"gdsx/internal/workloads"
)

var parityScheds = []struct {
	name string
	pol  SchedPolicy
}{
	{"static", SchedStatic},
	{"dynamic", SchedDynamic},
	{"stealing", SchedStealing},
}

var parityThreads = []int{1, 2, 4, 8}

// TestSchedulerOutputAndCounterParity transforms every standard
// workload and runs it under each scheduler at 1/2/4/8 threads: output
// must match the native sequential run byte for byte, CatWork must be
// identical across schedulers (the same iterations execute the same
// ops, wherever they land), and CatSync must be identical between
// static and stealing (stealing charges one dispatch per worker
// exactly like static; self-scheduling legitimately charges per chunk
// grab instead).
func TestSchedulerOutputAndCounterParity(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			src := w.Source(workloads.Test)
			prog, err := Compile(w.Name+".c", src)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			want, err := prog.Run(RunOptions{ForceSequential: true})
			if err != nil {
				t.Fatalf("native run: %v", err)
			}
			tr, err := Transform(prog, TransformOptions{ProfileSource: src})
			if err != nil {
				t.Fatalf("transform: %v", err)
			}
			for _, nt := range parityThreads {
				counters := make([][interp.NumCats]int64, len(parityScheds))
				for i, ps := range parityScheds {
					res, err := tr.Expanded.Run(RunOptions{Threads: nt, Sched: ps.pol})
					if err != nil {
						t.Fatalf("%s threads=%d: %v", ps.name, nt, err)
					}
					if res.Output != want.Output {
						t.Fatalf("%s threads=%d: output diverges from native", ps.name, nt)
					}
					counters[i] = res.Counters
				}
				for i, ps := range parityScheds[1:] {
					if counters[i+1][interp.CatWork] != counters[0][interp.CatWork] {
						t.Errorf("threads=%d: CatWork %d under %s, %d under %s",
							nt, counters[i+1][interp.CatWork], ps.name,
							counters[0][interp.CatWork], parityScheds[0].name)
					}
				}
				static, stealing := counters[0], counters[2]
				if static[interp.CatSync] != stealing[interp.CatSync] {
					t.Errorf("threads=%d: CatSync %d under stealing, %d under static",
						nt, stealing[interp.CatSync], static[interp.CatSync])
				}
			}
		})
	}
}

// TestSchedulerGuardVerdictParity checks the clean-vs-violating
// verdict across schedulers: profiled inputs stay violation-free and
// produce native output under every scheduler, and the adversarial
// exposing inputs trip the monitor on every multi-threaded run and
// fall back to byte-identical native output, no matter how iterations
// were placed on threads.
func TestSchedulerGuardVerdictParity(t *testing.T) {
	clean := []string{"md5", "256.bzip2"}
	for _, name := range clean {
		name := name
		t.Run("clean/"+name, func(t *testing.T) {
			w := workloads.ByName(name)
			src := w.Source(workloads.Test)
			prog, err := Compile(name+".c", src)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			tr, err := Transform(prog, TransformOptions{Guard: true, ProfileSource: src})
			if err != nil {
				t.Fatalf("transform: %v", err)
			}
			want, err := prog.Run(RunOptions{ForceSequential: true})
			if err != nil {
				t.Fatalf("native run: %v", err)
			}
			for _, ps := range parityScheds {
				for _, nt := range parityThreads {
					res, err := GuardedRunPrecompiled(prog, tr, tr.Expanded, RunOptions{Threads: nt, Sched: ps.pol})
					if err != nil {
						t.Fatalf("%s threads=%d: %v", ps.name, nt, err)
					}
					if res.FellBack || res.Violation != nil {
						t.Fatalf("%s threads=%d: guard fired on a profiled input:\n%v",
							ps.name, nt, res.Violation)
					}
					if res.Result.Output != want.Output {
						t.Fatalf("%s threads=%d: guarded output diverges", ps.name, nt)
					}
					// Guarded regions refuse dynamic self-scheduling (no
					// placement guarantee) and run under work stealing
					// instead; the adjustment must be reported, not silent.
					if ps.pol == SchedDynamic && nt >= 2 {
						found := false
						for _, w := range res.Result.Warnings {
							if strings.Contains(w, "dynamic schedule overridden") {
								found = true
							}
						}
						if !found {
							t.Errorf("threads=%d: dynamic guarded run carries no override warning: %v",
								nt, res.Result.Warnings)
						}
					}
				}
			}
		})
	}
	for _, a := range workloads.AdversarialAll() {
		a := a
		t.Run("violating/"+a.Name, func(t *testing.T) {
			prog, err := Compile(a.Name+".c", a.Expose(workloads.Test))
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			tr, err := Transform(prog, TransformOptions{
				Guard:         true,
				ProfileSource: a.Profile(workloads.Test),
			})
			if err != nil {
				t.Fatalf("transform: %v", err)
			}
			want, err := prog.Run(RunOptions{ForceSequential: true})
			if err != nil {
				t.Fatalf("sequential run: %v", err)
			}
			for _, ps := range parityScheds {
				for _, nt := range parityThreads {
					res, err := GuardedRunPrecompiled(prog, tr, tr.Expanded, RunOptions{Threads: nt, Sched: ps.pol})
					if err != nil {
						t.Fatalf("%s threads=%d: %v", ps.name, nt, err)
					}
					if res.Result.Output != want.Output {
						t.Fatalf("%s threads=%d: output %q, want native %q",
							ps.name, nt, res.Result.Output, want.Output)
					}
					// Static partitioning spreads iterations across all
					// workers, and stealing pins each deque's first grain
					// to its owner, so under both the conflicting
					// iterations are guaranteed to land on different
					// threads and the monitor must fire. Dynamic
					// self-scheduling has no such guarantee, so guarded
					// regions override it to work stealing — the verdict
					// must match, and the run must say it adjusted.
					// (On fallback res.Result is the sequential
					// re-execution, which carries no warnings; the
					// override-warning assertion lives in the clean loop
					// above, where the guarded run's result survives.)
					if nt >= 2 && (!res.FellBack || res.Violation == nil) {
						t.Fatalf("%s threads=%d: scheduler hid the dependence violation",
							ps.name, nt)
					}
				}
			}
		})
	}
}

// TestSchedulerFaultMessageParity injects an allocation fault into a
// parallel worker under each scheduler: every policy must surface the
// same RuntimeError shape — an out-of-memory message anchored at the
// same source position, attributed to a parallel worker on
// multi-threaded runs. (Which iteration held the failing allocation is
// timing-dependent under every policy, so iteration numbers are not
// compared.)
func TestSchedulerFaultMessageParity(t *testing.T) {
	for _, nt := range []int{1, 2, 4} {
		var wantPos string
		for _, ps := range parityScheds {
			_, err := runSource("pfault.c", parallelFaultSrc,
				RunOptions{Threads: nt, Sched: ps.pol, FailAlloc: 40})
			if err == nil {
				t.Fatalf("%s threads=%d: expected an allocation fault", ps.name, nt)
			}
			var re interp.RuntimeError
			if !errors.As(err, &re) {
				t.Fatalf("%s threads=%d: error is %T, want RuntimeError: %v", ps.name, nt, err, err)
			}
			if !strings.Contains(re.Msg, "out of memory") {
				t.Errorf("%s threads=%d: message %q lacks the allocation fault", ps.name, nt, re.Msg)
			}
			if nt >= 2 && !strings.Contains(re.Msg, "parallel worker") {
				t.Errorf("%s threads=%d: fault not attributed to a worker: %q", ps.name, nt, re.Msg)
			}
			pos := re.Pos.String()
			if wantPos == "" {
				wantPos = pos
			} else if pos != wantPos {
				t.Errorf("threads=%d: fault position %s under %s, %s under %s",
					nt, pos, ps.name, wantPos, parityScheds[0].name)
			}
		}
	}
}
