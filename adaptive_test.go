package gdsx

// End-to-end tests of the adaptive speculation ladder: guarded
// recovery must keep a region that is not idempotent
// sequential-identical, and commutative-update privatization must run
// reduction loops clean and parallel. Chaos injection (FaultPlan)
// exercises the same ladder with synthetic faults. The narrowing of a
// region that keeps failing is pinned in recover_test.go.

import (
	"fmt"
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
	// Expand's static check trusts these tags to prove every access to
	// a privatized accumulator is one of its updates, so each shape is
	// pinned: tagged ones by their exact site count, untagged ones at 0.
	tagged := []struct {
		src  string
		op   ddg.CommOp
		want int
	}{
		{`long t; int main() { t -= 3; return 0; }`, ddg.CommAdd, 2},
		{`int c; int main() { c--; return 0; }`, ddg.CommAdd, 2},
		// Mirrored comparisons: the location on the left.
		{`long lo; int main() { long v = 9; if (lo > v) lo = v; return 0; }`, ddg.CommMin, 2},
		{`long hi; int main() { long v = 9; if (hi < v) hi = v; return 0; }`, ddg.CommMax, 2},
		{`long lo; int main() { long v = 9; if (v <= lo) lo = v; return 0; }`, ddg.CommMin, 2},
		{`long hi; int main() { long v = 9; if (v >= hi) hi = v; return 0; }`, ddg.CommMax, 2},
		// The right-hand load of total += total is a plain read: only
		// the left-hand load and store are tagged.
		{`long total; int main() { total += total; return 0; }`, ddg.CommAdd, 2},
		// A widening store compares and stores the value in the
		// location's type, and so does an unsigned comparison.
		{`long hi; int main() { int v = 9; if (v > hi) hi = v; return 0; }`, ddg.CommMax, 2},
		{`unsigned int hi; int main() { int v = 9; if (hi < v) hi = v; return 0; }`, ddg.CommMax, 2},
		{`unsigned int hi; int main() { int v = 9; if (v > hi) hi = v; return 0; }`, ddg.CommMax, 2},
		// Not an add: a floating value adds in floating point and
		// truncates back on every update, so grouping changes the sum.
		{`long t; int main() { t += 1.5; return 0; }`, ddg.CommAdd, 0},
		{`long t; int main() { t -= 0.5; return 0; }`, ddg.CommAdd, 0},
		// Not a min/max: an else branch, a narrowing store and a
		// comparison in a type other than the location's (the result
		// would depend on the order of updates), and operands with side
		// effects (the stored value need not be the compared one).
		{`long hi; int main() { long v = 9; if (v > hi) { hi = v; } else { hi = 0; } return 0; }`, ddg.CommMax, 0},
		{`int hi; int main() { long v = 9; if (v > hi) hi = v; return 0; }`, ddg.CommMax, 0},
		{`int hi; int main() { unsigned int v = 9; if (v > hi) hi = v; return 0; }`, ddg.CommMax, 0},
		{`long hi; long n; long f() { n++; return n; } int main() { if (f() > hi) hi = f(); return 0; }`, ddg.CommMax, 0},
	}
	for _, c := range tagged {
		if n := count(c.src, c.op); n != c.want {
			t.Errorf("%s: %d sites tagged %s, want %d", c.src, n, c.op, c.want)
		}
	}
}

// TestCommutativePrivatization runs the reduction workload guarded
// with commutative privatization: the three accumulators (sum,
// histogram, max) must be privatized, the region must stay
// violation-free at every thread count with the optimization pipeline
// off and on, and the output must match the native sequential run.
// Without the per-thread copies every region violates from two
// threads up, so a clean run shows they carry the accumulators.
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
		}
	}
}

// commExposedSrc is a reduction loop with a guarded branch. The
// training input (ON = 0) runs only the commutative updates of total
// and hist; the exposing input (ON = 1) also runs the branch, which
// touches one accumulator at a site that is not a commutative update.
// Template parameters: %[1]d = ON, %[2]s = extra declarations,
// %[3]s = the branch, %[4]s = extra set-up in main.
const commExposedSrc = `
int N = 64;
int ON = %[1]d;
long total;
long hist[4];
long out[64];
%[2]s
void kernel(long *a) {
    int i;
    parallel for (i = 0; i < N; i++) {
        total += a[i];
        hist[i %% 4] += 1;
        if (ON && a[i] %% 3 == 0) {
            %[3]s
        }
    }
}
int main() {
    long *a = (long*)malloc(N * 8);
    int i;
    for (i = 0; i < N; i++) {
        a[i] = (i * 37 + 11) %% 101;
    }
    %[4]s
    total = 5;
    int r;
    for (r = 0; r < 3; r++) {
        kernel(a);
    }
    long s = total;
    for (i = 0; i < 4; i++) {
        s = s * 31 + hist[i];
    }
    for (i = 0; i < N; i++) {
        s = s * 7 + out[i];
    }
    print_long(s);
    free(a);
    return 0;
}`

// TestCommutativeExposedMatchesNative trains commutative privatization
// on an input where total and hist are only ever updated, then runs an
// input whose branch reads or overwrites one of them: directly, through
// a callee, through a pointer taken in main, or as a plain store. The
// static checks must refuse to privatize the exposed accumulator, which
// leaves its carried flow to the guard, and every run must print native
// output guarded with Recover, at 1–8 threads, under both schedulers
// and both optimization levels. The accumulator
// the branch does not touch passes the checks and is still privatized,
// so rollbacks re-execute regions whose copies are live. The shared
// accumulator races by design until the guard rolls the region back,
// and the Go race detector reports races in simulated memory, so the
// race steps run TestCommutativePrivatization only.
func TestCommutativeExposedMatchesNative(t *testing.T) {
	cases := []struct {
		name, decls, branch, setup string
		exposed                    string // the accumulator the branch touches
	}{
		{"read", "", "out[i] = total;", "", "total"},
		{"callee", "long peek() { return total; }", "out[i] = peek();", "", "total"},
		{"store", "", "total = i;", "", "total"},
		{"pointer", "long *p;", "out[i] = *p;", "p = &total;", "total"},
		{"array-read", "", "out[i] = hist[i % 4];", "", "hist"},
	}
	eopts := expand.Optimized()
	eopts.Commutative = true
	for _, c := range cases {
		src := func(on int) string { return fmt.Sprintf(commExposedSrc, on, c.decls, c.branch, c.setup) }
		prog, err := Compile(c.name+".c", src(1))
		if err != nil {
			t.Fatalf("%s: compile: %v", c.name, err)
		}
		want, err := prog.Run(RunOptions{ForceSequential: true})
		if err != nil {
			t.Fatalf("%s: native run: %v", c.name, err)
		}
		topts := TransformOptions{Guard: true, ProfileSource: src(0), Expand: &eopts}
		tr, err := Transform(prog, topts)
		if err != nil {
			t.Fatalf("%s: transform: %v", c.name, err)
		}
		candidates, classes := 0, 0
		var notes []string
		for _, cls := range tr.Classes {
			for _, k := range cls.Classes {
				if k.Commutative {
					candidates++
				}
			}
		}
		for _, r := range tr.Reports {
			classes += r.CommClasses
			notes = append(notes, r.CommNotes...)
		}
		if candidates != 2 || classes != 1 || strings.Contains(strings.Join(notes, "\n"), " "+c.exposed+" ") {
			t.Fatalf("%s: %d commutative candidates, %d privatized (%v); want 2 and 1, not %s",
				c.name, candidates, classes, notes, c.exposed)
		}
		for _, e := range optLevels {
			for _, sc := range parityScheds {
				for _, nt := range []int{1, 2, 4, 8} {
					ropts := RunOptions{Threads: nt, Sched: sc.pol, Opt: e.opt, Recover: &RecoverySpec{}}
					res, err := GuardedRunPrecompiled(prog, tr, tr.Expanded, ropts)
					if err != nil {
						t.Fatalf("%s %s/%s threads=%d: guarded run: %v", c.name, e.name, sc.name, nt, err)
					}
					if res.Result.Output != want.Output {
						t.Fatalf("%s %s/%s threads=%d: guarded output %q, want native %q",
							c.name, e.name, sc.name, nt, res.Result.Output, want.Output)
					}
				}
			}
		}
	}
}

// commSpanSrc updates 8 elements of a long array of %[1]d elements.
const commSpanSrc = `
long hist[%[1]d];
int main() {
    int i;
    parallel for (i = 0; i < 64; i++) {
        hist[i %% 8] += i;
    }
    long s = 0;
    for (i = 0; i < %[1]d; i++) { s = s * 31 + hist[i]; }
    print_long(s);
    return 0;
}`

// TestCommutativeStaticCheck pins what the static checks privatize on
// inputs the profile sees in full: an update whose value is used, an
// accumulator a callee names, an integer sum of floating values and
// an array one element over the 64 KiB bound are refused, while a
// function-local sum, an unsigned running minimum, a maximum of
// narrower values, an array of exactly 64 KiB and the updates of a
// DOACROSS loop are privatized, and so is a sum in a loop that is an
// if's unbraced branch. Of two nested loops updating one
// accumulator, only one is privatized. Accumulators left shared race
// by design, so the race steps leave this test out. The DOACROSS
// loop's ordered section must then cover only its chain, so the
// privatized runs are violation-free. Output is native at 1–8 threads
// under both schedulers.
func TestCommutativeStaticCheck(t *testing.T) {
	cases := []struct {
		name, src  string
		privatized []string
		clean      bool // no violation from two threads up
	}{
		{"value-used", `
long total;
long hist[4];
long out[64];
int main() {
    int i;
    parallel for (i = 0; i < 64; i++) {
        total += i * 3;
        out[i] = hist[i % 4]++;
    }
    long s = total;
    for (i = 0; i < 64; i++) { s = s * 7 + out[i]; }
    print_long(s);
    return 0;
}`, []string{"total"}, false},
		// A callee names total on a path no input takes; the check is
		// static, so total stays shared.
		{"callee-unexecuted", `
long total;
long out[64];
long peek(int k) { if (k < 0) { return total; } return k; }
long twice(int k) { return k * 2; }
int main() {
    int i;
    parallel for (i = 0; i < 64; i++) {
        total += i * 3;
        out[i] = peek(i) + twice(i);
    }
    long s = total;
    for (i = 0; i < 64; i++) { s = s * 7 + out[i]; }
    print_long(s);
    return 0;
}`, nil, false},
		{"doacross", `
long total;
long chain;
unsigned long lo;
int main() {
    long *a = (long*)malloc(64 * 8);
    int i;
    for (i = 0; i < 64; i++) { a[i] = (i * 37 + 11) % 101; }
    lo = 1000;
    long s = 0;
    parallel doacross for (i = 0; i < 64; i++) {
        unsigned long v = a[i] * 3;
        total += a[i];
        s -= a[i];
        if (v < lo) lo = v;
        chain = chain * 31 + a[i];
    }
    print_long(total + s + lo + chain);
    return 0;
}`, []string{"lo", "s", "total"}, true},
		// Both loops update total, but only the inner one is privatized:
		// rewriting the outer one too would leave the inner merge
		// writing the shared total from the outer loop's workers.
		{"nested", `
long total;
long out[64];
int main() {
    int i;
    parallel for (i = 0; i < 8; i++) {
        int j;
        total += i;
        parallel for (j = 0; j < 8; j++) {
            total += j;
            out[i * 8 + j] = i + j;
        }
    }
    long s = total;
    for (i = 0; i < 64; i++) { s = s * 7 + out[i]; }
    print_long(s);
    return 0;
}`, []string{"total"}, false},
		// Each update adds 1.5 in double and truncates back to long, so
		// copies summed from 0 and merged into -5 would print -1, not 1.
		{"float-add", `
long total;
int main() {
    int i;
    total = -5;
    parallel for (i = 0; i < 4; i++) total += 1.5;
    print_long(total);
    return 0;
}`, nil, false},
		// int values widen exactly to long for the comparison and the
		// store alike.
		{"widening-max", `
long hi;
int main() {
    int i;
    hi = -1000;
    parallel for (i = 0; i < 64; i++) {
        int v = (i * 37 + 11) % 101 - 50;
        if (v > hi) hi = v;
    }
    print_long(hi);
    return 0;
}`, []string{"hi"}, true},
		// 8,192 longs are the 64 KiB the pass privatizes at most.
		{"span-at-bound", fmt.Sprintf(commSpanSrc, 8192), []string{"hist"}, true},
		{"span-over-bound", fmt.Sprintf(commSpanSrc, 8193), nil, false},
		// The copies' set-up and merge wrap a loop that is not directly
		// in a block.
		{"unbraced", `
long total;
int main() {
    int i;
    int on = 1;
    if (on)
        parallel for (i = 0; i < 64; i++) total += i * 3;
    print_long(total);
    return 0;
}`, []string{"total"}, true},
	}
	eopts := expand.Optimized()
	eopts.Commutative = true
	for _, c := range cases {
		prog, err := Compile(c.name+".c", c.src)
		if err != nil {
			t.Fatalf("%s: compile: %v", c.name, err)
		}
		want, err := prog.Run(RunOptions{ForceSequential: true})
		if err != nil {
			t.Fatalf("%s: native run: %v", c.name, err)
		}
		tr, err := Transform(prog, TransformOptions{Guard: true, Expand: &eopts})
		if err != nil {
			t.Fatalf("%s: transform: %v", c.name, err)
		}
		var got []string
		for _, r := range tr.Reports {
			for _, n := range r.CommNotes {
				got = append(got, strings.Fields(n)[2])
			}
		}
		if strings.Join(got, " ") != strings.Join(c.privatized, " ") {
			t.Fatalf("%s: privatized %v, want %v", c.name, got, c.privatized)
		}
		for _, sc := range parityScheds {
			for _, nt := range []int{1, 2, 4, 8} {
				res, err := GuardedRunPrecompiled(prog, tr, tr.Expanded,
					RunOptions{Threads: nt, Sched: sc.pol, Recover: &RecoverySpec{}})
				if err != nil {
					t.Fatalf("%s %s threads=%d: %v", c.name, sc.name, nt, err)
				}
				if res.Result.Output != want.Output {
					t.Fatalf("%s %s threads=%d: output %q, want native %q",
						c.name, sc.name, nt, res.Result.Output, want.Output)
				}
				if c.clean && len(res.Violations) > 0 {
					t.Fatalf("%s %s threads=%d: privatized loop violates:\n%v",
						c.name, sc.name, nt, res.Violation)
				}
			}
		}
	}
}

// TestGuardedEscapeMatchesNative drives the escape workload — one
// violating access per region execution after four clean ones, in a
// region that accumulates into its output — guarded with region
// recovery, transformed on the clean input and run on the exposing
// one. The region is not idempotent, so every violating execution
// must be caught and re-executed: one that commits leaves its wrong
// increment in the checksum. Output must equal native at every thread
// count, scheduler and optimization level, without the whole-program
// fallback, and from 2 threads on at least one region must roll back.
func TestGuardedEscapeMatchesNative(t *testing.T) {
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
		for _, sc := range parityScheds {
			for _, nt := range []int{1, 2, 4, 8} {
				res, err := GuardedRunPrecompiled(prog, tr, tr.Expanded, RunOptions{
					Threads: nt, Sched: sc.pol, Opt: e.opt, Recover: &RecoverySpec{},
				})
				if err != nil {
					t.Fatalf("%s/%s threads=%d: %v", e.name, sc.name, nt, err)
				}
				if res.Result.Output != wantOut {
					t.Fatalf("%s/%s threads=%d: output %q, want native %q",
						e.name, sc.name, nt, res.Result.Output, wantOut)
				}
				if res.FellBack {
					t.Fatalf("%s/%s threads=%d: whole-program fallback despite region recovery",
						e.name, sc.name, nt)
				}
				if nt >= 2 && res.Recovered < 1 {
					t.Errorf("%s/%s threads=%d: no region was rolled back", e.name, sc.name, nt)
				}
			}
		}
	}
}

// TestChaosFaultPlanConvergence injects forced rollbacks into
// perfectly healthy guarded runs: the recovery ladder must absorb
// every injected fault — rollback, sequential re-execution, possibly
// demotion — and still finish with native-identical output, without
// inventing violation reports (the injections are not guard evidence)
// and without the whole-program fallback.
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
				Threads:   4,
				Recover:   &RecoverySpec{},
				FaultPlan: &FaultPlan{RollbackEvery: 3},
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
			if res.Recovered < 1 {
				t.Error("no injected fault rolled a region back")
			}
			if len(res.Violations) != 0 {
				t.Errorf("injected faults must not produce guard reports: %v", res.Violations)
			}
		})
	}
}
