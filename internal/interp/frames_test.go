package interp

import (
	"fmt"
	"strings"
	"testing"

	"gdsx/internal/ast"
	"gdsx/internal/parser"
	"gdsx/internal/sema"
)

func mustCheck(t *testing.T, src string) (*ast.Program, *sema.Info) {
	t.Helper()
	prog, err := parser.Parse("t.c", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	return prog, info
}

// TestCallPathAllocatesNothing pins that a MiniC call allocates no Go
// heap object once its thread has been as deep before: fib(22) makes
// about 57,000 calls and fib(15) about 2,000, at nearly the same
// depth, so any per-call allocation shows up as a difference.
func TestCallPathAllocatesNothing(t *testing.T) {
	const src = `
int fib(int n) {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
int main() { return fib(%d); }`
	for _, opt := range []OptLevel{OptDefault, OptNone} {
		// The result is the exit code: printing it would add fmt's
		// allocations, which depend on the digits.
		allocs := func(n int, want int64) float64 {
			prog, info := mustCheck(t, fmt.Sprintf(src, n))
			return testing.AllocsPerRun(5, func() {
				res, err := New(prog, info, Options{MemSize: 4 << 20, Opt: opt}).Run()
				if err != nil || res.Exit != want {
					t.Fatalf("fib(%d): exit %d, err %v; want %d", n, res.Exit, err, want)
				}
			})
		}
		small, large := allocs(15, 610), allocs(22, 17711)
		if large > small {
			t.Errorf("opt %d: fib(22) allocates %.0f objects per run, fib(15) %.0f: the call path allocates",
				opt, large, small)
		}
	}
}

// framesSrc runs functions with different slot and register counts at
// one depth, recursion with local arrays deep enough to grow every
// frame-stack buffer while frames below stay live, and struct
// parameters and returns, from a loop that may run in parallel.
const framesSrc = `
struct pair { long a; long b; };

long inc(long x) { return x + 1; }

long mix(long x, long y, long z) {
    long u;
    long v = y * 2;
    u += x;
    return u + v - z;
}

struct pair mkpair(long a, long b) {
    struct pair p;
    p.a = a;
    p.b = b;
    return p;
}

struct pair swap(struct pair p) {
    struct pair r;
    r.a = p.b;
    r.b = p.a;
    return r;
}

long dot(struct pair p, struct pair q) { return p.a * q.a + p.b * q.b; }

long arrsum(long n) {
    long buf[8];
    long i;
    long s;
    if (n == 0) { return 0; }
    for (i = 0; i < 8; i++) { buf[i] = n * i; }
    s = arrsum(n - 1);
    for (i = 0; i < 8; i++) { s += buf[i]; }
    return s;
}

long work(long k) {
    long acc = 0;
    long j;
    for (j = 0; j < 5; j++) {
        acc += inc(k + j);
        acc += mix(k, j, 3);
        acc += dot(mkpair(k, j), swap(mkpair(j, 1)));
    }
    return acc + arrsum(k + 8);
}

int main() {
    long out[64];
    int i;
    parallel for (i = 0; i < 64; i++) {
        out[i] = work(i);
    }
    for (i = 0; i < 64; i++) {
        print_long(out[i]);
        print_char('\n');
    }
    return 0;
}`

// framesWant computes framesSrc's output in Go.
func framesWant() string {
	var b strings.Builder
	for k := int64(0); k < 64; k++ {
		var acc int64
		for j := int64(0); j < 5; j++ {
			acc += k + j + 1   // inc
			acc += k + 2*j - 3 // mix
			acc += k + j*j     // dot((k, j), swap((j, 1)))
		}
		n := k + 8
		acc += 14 * n * (n + 1) // arrsum: sum over m <= n of 28m
		fmt.Fprintf(&b, "%d\n", acc)
	}
	return b.String()
}

// TestReusedFramesCarryNoState checks framesSrc against its closed form
// sequentially and from parallel workers, under both schedulers and
// both optimization levels. The noopt-vs-opt and native-vs-expanded
// comparisons cannot catch a frame-reuse bug: both sides share the call
// path.
func TestReusedFramesCarryNoState(t *testing.T) {
	want := framesWant()
	for _, opt := range []OptLevel{OptDefault, OptNone} {
		for _, nt := range []int{1, 2, 4} {
			for _, sched := range []SchedPolicy{SchedStealing, SchedStatic} {
				res := run(t, framesSrc, Options{NumThreads: nt, Sched: sched, Opt: opt})
				if res.Output != want {
					t.Errorf("opt %d, %d threads, %v: output differs from the closed form:\n%s",
						opt, nt, sched, res.Output)
				}
			}
		}
	}
}

// TestLoopTemporariesReleased runs loops whose every iteration makes a
// 64-byte struct temporary, 100,000 iterations deep: 6.4 MB of
// temporaries against a 1 MiB stack, unless each iteration releases
// its own.
func TestLoopTemporariesReleased(t *testing.T) {
	const decls = `
struct big { long a; long b; long c; long d; long e; long f; long g; long h; };
struct big mk(long i) {
    struct big r;
    r.a = i;
    r.h = 2 * i;
    return r;
}
long out[100000];
`
	const n = 100000
	sum := int64(n) * (n - 1) / 2
	cases := []struct {
		name, body string
		want       int64
	}{
		{"while", `while (i < 100000) s = s + mk(i++).a;`, sum},
		{"do-while", `do s = s + mk(i++).a; while (i < 100000);`, sum},
		{"for condition", `for (i = 0; mk(i).a < 100000; i++) s = s + i;`, sum},
		{"for body", `for (i = 0; i < 100000; i++) s = s + mk(i).h;`, 2 * sum},
		{"parallel for body", `parallel for (i = 0; i < 100000; i++) out[i] = mk(i).h;
    for (i = 0; i < 100000; i++) s = s + out[i];`, 2 * sum},
	}
	for _, tc := range cases {
		src := decls + "int main() {\n    long i = 0;\n    long s = 0;\n    " +
			tc.body + "\n    print_long(s);\n    return 0;\n}"
		for _, opt := range []OptLevel{OptDefault, OptNone} {
			for _, nt := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/opt%d/%dT", tc.name, opt, nt), func(t *testing.T) {
					res := run(t, src, Options{NumThreads: nt, Opt: opt})
					if want := fmt.Sprint(tc.want); res.Output != want {
						t.Fatalf("output %q, want %s", res.Output, want)
					}
				})
			}
		}
	}
}
