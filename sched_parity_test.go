package gdsx

// Scheduler parity: the two parallel-loop schedulers (static
// chunking, and work stealing with DOACROSS self-scheduling) must
// agree on everything the program can observe — output bytes,
// work/sync instruction accounting, fault positions, and whether a
// guarded run is clean or violating. Only load balance (and therefore
// CatWait spin counts and steal counts) may differ. The guard
// comparison is deliberately status-only: a violation report's rule
// labels and iteration attribution depend on the iteration-to-thread
// mapping the scheduler chose (the copy mapping follows the schedule),
// so reports are schedule-dependent even though detection is not.

import (
	"errors"
	"fmt"
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
	{"stealing", SchedStealing},
}

var parityThreads = []int{1, 2, 4, 8}

// TestSchedulerOutputAndCounterParity transforms every standard
// workload and runs it under each scheduler at 1/2/4/8 threads: output
// must match the native sequential run byte for byte, CatWork must be
// identical across schedulers (the same iterations execute the same
// ops, wherever they land), and CatSync must be identical between
// static and stealing (one dispatch per DOALL worker and per DOACROSS
// iteration under both).
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
				static, stealing := counters[0], counters[1]
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
					// threads and the monitor must fire.
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

// iterOrderDOALLSrc is a DOALL loop whose later iterations cost more,
// so the workers holding the cheap early shares run out of work first
// and steal from the others.
const iterOrderDOALLSrc = `
int N = 64;

int main() {
	long *out = (long*)malloc(N * 8);
	int i;
	parallel for (i = 0; i < N; i++) {
		long acc = 0;
		long j;
		for (j = 0; j < i * 200; j++) { acc = acc + j; }
		out[i] = acc;
	}
	print_long(out[N - 1]);
	print_char('\n');
	return 0;
}
`

// iterOrderDOACROSSSrc is a DOACROSS loop with an ordered section.
const iterOrderDOACROSSSrc = `
int N = 64;

int main() {
	long s = 0;
	int i;
	parallel doacross for (i = 0; i < N; i++) {
		long acc = 0;
		long j;
		for (j = 0; j < i * 50; j++) { acc = acc + j; }
		__sync_wait();
		s = s * 3 + acc;
		__sync_post();
	}
	print_long(s);
	print_char('\n');
	return 0;
}
`

// TestSchedulerIterationOrder pins the interpreter's dispatch contract
// under both schedulers: every iteration runs exactly once, each
// worker's iterations strictly increase (the steal floor keeps this
// true of stolen ranges; the guard monitor's replay relies on it), and
// under SchedStatic each worker runs exactly its contiguous share.
func TestSchedulerIterationOrder(t *testing.T) {
	const n = 64
	for _, lp := range []struct{ name, src string }{
		{"doall", iterOrderDOALLSrc},
		{"doacross", iterOrderDOACROSSSrc},
	} {
		prog, err := Compile(lp.name+".c", lp.src)
		if err != nil {
			t.Fatalf("compile %s: %v", lp.name, err)
		}
		want, err := prog.Run(RunOptions{ForceSequential: true})
		if err != nil {
			t.Fatalf("sequential %s: %v", lp.name, err)
		}
		for _, ps := range parityScheds {
			for _, nt := range []int{2, 4, 8} {
				t.Run(fmt.Sprintf("%s/%s/%d", lp.name, ps.name, nt), func(t *testing.T) {
					// Each worker appends only to its own slice, and Run
					// joins the workers before returning.
					ran := make([][]int64, nt)
					hooks := &interp.Hooks{IterStart: func(_ int, iter int64, tid int) {
						ran[tid] = append(ran[tid], iter)
					}}
					res, err := prog.Run(RunOptions{Threads: nt, Sched: ps.pol, Hooks: hooks})
					if err != nil {
						t.Fatal(err)
					}
					if res.Output != want.Output {
						t.Fatalf("output %q, sequential %q", res.Output, want.Output)
					}
					count := make([]int, n)
					moved := 0
					for tid, its := range ran {
						chunk, rem := int64(n/nt), int64(n%nt)
						lo := int64(tid)*chunk + min(int64(tid), rem)
						hi := lo + chunk
						if int64(tid) < rem {
							hi++
						}
						inShare := 0
						for i, k := range its {
							count[k]++
							if i > 0 && k <= its[i-1] {
								t.Errorf("worker %d ran iteration %d after %d: %v", tid, k, its[i-1], its)
							}
							if k >= lo && k < hi {
								inShare++
							}
						}
						moved += len(its) - inShare
						if ps.pol == SchedStatic && (len(its) != inShare || int64(inShare) != hi-lo) {
							t.Errorf("static worker %d ran %v, want its share [%d, %d)", tid, its, lo, hi)
						}
					}
					for k, c := range count {
						if c != 1 {
							t.Errorf("iteration %d ran %d times", k, c)
						}
					}
					t.Logf("%d of %d iterations ran outside their static share", moved, n)
				})
			}
		}
	}
}
