package interp

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"gdsx/internal/ast"
	"gdsx/internal/ctypes"
	"gdsx/internal/parser"
	"gdsx/internal/sema"
	"gdsx/internal/token"
)

func TestFloat32Rounding(t *testing.T) {
	res := run(t, `
int main() {
    float f = 0.1;
    double d = 0.1;
    // float has fewer bits: the difference is visible after scaling.
    double diff = (double)f - d;
    if (diff < 0.0) { diff = 0.0 - diff; }
    print_int(diff > 0.0000000001);
    print_int(diff < 0.0000001);
    return 0;
}`, Options{})
	if res.Output != "11" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestCharPointerWalk(t *testing.T) {
	res := run(t, `
int main() {
    char *s = "abcdef";
    char *p = s;
    int n = 0;
    while (*p != 0) {
        n++;
        p++;
    }
    print_int(n);
    print_long(p - s);
    return 0;
}`, Options{})
	if res.Output != "66" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestCondWithPointers(t *testing.T) {
	res := run(t, `
int main() {
    int a = 10;
    int b = 20;
    int c = 1;
    int *p = c ? &a : &b;
    *p = 99;
    print_int(a);
    print_int(b);
    return 0;
}`, Options{})
	if res.Output != "9920" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestDeepRecursionWithinStack(t *testing.T) {
	res := run(t, `
int depth(int n) {
    if (n == 0) { return 0; }
    return 1 + depth(n - 1);
}
int main() {
    print_int(depth(2000));
    return 0;
}`, Options{})
	if res.Output != "2000" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestStackOverflowDetected(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"large frames", `
int boom(int n) {
    int pad[512];
    pad[0] = n;
    return boom(n + 1) + pad[0];
}
int main() { return boom(0); }`, "stack overflow (2048-byte frame"},
		// A function with no parameters and no locals reserves no
		// simulated stack; the call-depth bound (StackSize/8 = 8192
		// here) stops it before the Go stack overflows.
		{"frameless", `
int g() { return g(); }
int main() { return g(); }`, "stack overflow (call depth 8193)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := runErr(t, tc.src, Options{StackSize: 1 << 16})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestRunawayRecursionPeakRSS runs a parallel loop whose every
// iteration recurses without end, sequentially and at 8 threads, in a
// child process, and bounds the child's peak RSS. Each interpreted call
// holds Go stack, and every worker running at once can reach the
// call-depth bound, so the bound sets what such a program costs: a
// bound of StackSize/8 alone (131,072 calls) lets the 8-thread run
// peak above 1 GB. The child runs at GOMAXPROCS=2, because how many
// workers recurse at once depends on the processors it has.
func TestRunawayRecursionPeakRSS(t *testing.T) {
	const src = `
int g(int x) { return g(x + 1) + 1; }
int main() {
    int i;
    int a[8];
    parallel for (i = 0; i < 8; i++) { a[i] = g(i); }
    return a[0];
}`
	if os.Getenv("GDSX_RUNAWAY_CHILD") == "1" {
		for _, n := range []int{1, 8} {
			fmt.Printf("threads %d: %v\n", n, runErr(t, src, Options{NumThreads: n}))
		}
		status, err := os.ReadFile("/proc/self/status")
		if err != nil {
			t.Fatal(err)
		}
		fmt.Printf("%s\n", status) // VmHWM is the peak RSS
		return
	}
	if runtime.GOOS != "linux" {
		t.Skip("reads the child's peak RSS from /proc")
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector's own memory exceeds the bound")
			}
		}
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestRunawayRecursionPeakRSS$", "-test.count=1")
	cmd.Env = append(os.Environ(), "GDSX_RUNAWAY_CHILD=1", "GOMAXPROCS=2")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	for _, n := range []int{1, 8} {
		if want := fmt.Sprintf("threads %d: t.c:2:24: runtime error: stack overflow (call depth %d)", n, maxCallDepth+1); !strings.Contains(string(out), want) {
			t.Errorf("child output lacks %q:\n%s", want, out)
		}
	}
	const bound = 150 << 10 // KiB
	var hwm int
	i := strings.Index(string(out), "VmHWM:")
	if i < 0 {
		t.Fatalf("child output has no peak RSS:\n%s", out)
	}
	if _, err := fmt.Sscanf(string(out[i:]), "VmHWM: %d kB", &hwm); err != nil {
		t.Fatalf("child peak RSS: %v", err)
	}
	t.Logf("child peak RSS %.1f MB", float64(hwm)/(1<<10))
	if hwm > bound {
		t.Errorf("child peak RSS %.1f MB, want at most %d MB", float64(hwm)/(1<<10), bound>>10)
	}
}

func TestOutOfMemoryDetected(t *testing.T) {
	err := runErr(t, `
int main() {
    long *p = (long*)malloc(99999999);
    p[0] = 1;
    return 0;
}`, Options{MemSize: 1 << 20})
	if err == nil || !strings.Contains(err.Error(), "out of memory") {
		t.Fatalf("err = %v", err)
	}
}

func TestParallelDownwardStep(t *testing.T) {
	src := `
int main() {
    int i;
    int a[64];
    parallel for (i = 63; i >= 0; i += -1) {
        a[i] = i * 2;
    }
    long s = 0;
    for (i = 0; i < 64; i++) { s += a[i]; }
    print_long(s);
    return 0;
}`
	want := run(t, src, Options{NumThreads: 1}).Output
	got := run(t, src, Options{NumThreads: 4}).Output
	if want != got || want != "4032" {
		t.Fatalf("want %q got %q", want, got)
	}
}

func TestParallelNEQCondition(t *testing.T) {
	src := `
int main() {
    int i;
    int a[32];
    parallel for (i = 0; i != 32; i++) {
        a[i] = 1;
    }
    int s = 0;
    for (i = 0; i < 32; i++) { s += a[i]; }
    print_int(s);
    return 0;
}`
	got := run(t, src, Options{NumThreads: 3}).Output
	if got != "32" {
		t.Fatalf("got %q", got)
	}
}

func TestParallelZeroIterations(t *testing.T) {
	src := `
int main() {
    int i;
    int a[4];
    parallel for (i = 5; i < 5; i++) {
        a[0] = 1;
    }
    print_int(i);
    print_int(a[0]);
    return 0;
}`
	got := run(t, src, Options{NumThreads: 4}).Output
	if got != "50" {
		t.Fatalf("got %q", got)
	}
}

func TestSizeofForms(t *testing.T) {
	res := run(t, `
struct s { int a; double b; };
int main() {
    struct s v;
    int arr[10];
    print_long(sizeof(int));
    print_char(' ');
    print_long(sizeof(struct s));
    print_char(' ');
    print_long(sizeof(arr));
    print_char(' ');
    print_long(sizeof(v));
    print_char(' ');
    print_long(sizeof(char*));
    return 0;
}`, Options{})
	if res.Output != "4 16 40 16 8" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestStringInterning(t *testing.T) {
	res := run(t, `
int main() {
    char *a = "same";
    char *b = "same";
    print_int(a == b);
    return 0;
}`, Options{})
	if res.Output != "1" {
		t.Fatalf("interned literals should share storage: %q", res.Output)
	}
}

func TestStructReturnByValue(t *testing.T) {
	res := run(t, `
struct pair { int a; int b; };
struct pair mk(int x) {
    struct pair p;
    p.a = x;
    p.b = x * 2;
    return p;
}
int main() {
    struct pair q = mk(21);
    struct pair r;
    r = mk(5);
    print_int(q.a + q.b + r.a + r.b);
    print_int(mk(3).b);
    return 0;
}`, Options{})
	if res.Output != "786" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestStructParamByValue(t *testing.T) {
	res := run(t, `
struct pair { int a; int b; };
int sum(struct pair p) {
    p.a = 999; // must not affect the caller's copy
    return p.a + p.b;
}
int main() {
    struct pair v;
    v.a = 1;
    v.b = 2;
    int s = sum(v);
    print_int(v.a);
    print_int(s);
    return 0;
}`, Options{})
	if res.Output != "11001" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestDoWhileAndBreakDepth(t *testing.T) {
	res := run(t, `
int main() {
    int i = 0;
    int j;
    int hits = 0;
    do {
        for (j = 0; j < 10; j++) {
            if (j == 3) { break; }
            hits++;
        }
        i++;
    } while (i < 4);
    print_int(hits);
    return 0;
}`, Options{})
	if res.Output != "12" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestTraceOrderedSplit(t *testing.T) {
	// A DOACROSS body with explicit sync markers must record the
	// ordered-section split in its trace.
	prog := `
int main() {
    long acc = 0;
    int *buf = (int*)malloc(64);
    int i;
    parallel doacross for (i = 0; i < 8; i++) {
        int k;
        int s = 0;
        for (k = 0; k < 16; k++) { s += i * k; }
        __sync_wait();
        acc = acc * 3 + s;
        __sync_post();
        buf[i %% 16] = s;
    }
    print_long(acc);
    free(buf);
    return 0;
}`
	res := run(t, strings.ReplaceAll(prog, "%%", "%"), Options{TraceParallel: true, NumThreads: 4})
	if len(res.Traces) != 1 {
		t.Fatalf("traces = %d", len(res.Traces))
	}
	tr := res.Traces[0]
	if len(tr.Iters) != 8 {
		t.Fatalf("iterations = %d", len(tr.Iters))
	}
	for i, c := range tr.Iters {
		if c.Pre <= 0 || c.Ordered <= 0 || c.Post <= 0 {
			t.Fatalf("iter %d: bad split %+v", i, c)
		}
	}
}

func TestMaxOpsGuard(t *testing.T) {
	err := runErr(t, `
int main() {
    while (1) { }
    return 0;
}`, Options{MaxOps: 10000})
	if err == nil || !strings.Contains(err.Error(), "operation budget") {
		t.Fatalf("err = %v", err)
	}
}

func TestPrintBuiltins(t *testing.T) {
	res := run(t, `
int main() {
    print_double(0.0 - 2.5);
    print_char(' ');
    print_int(abs(-7));
    print_char(' ');
    print_double(fabs(0.0 - 1.25));
    print_char(' ');
    print_long(-9000000000);
    return 0;
}`, Options{})
	if res.Output != "-2.500000 7 1.250000 -9000000000" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestMemsetPatterns(t *testing.T) {
	res := run(t, `
int main() {
    int buf[4];
    memset(buf, 255, 16);
    print_int(buf[3]);
    memset(buf, 0, 16);
    print_int(buf[0] + buf[3]);
    memset(buf, 1, 0);
    print_int(buf[0]);
    return 0;
}`, Options{})
	if res.Output != "-100" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestUnsignedCharRoundTrip(t *testing.T) {
	res := run(t, `
int main() {
    unsigned char b[4];
    int i;
    for (i = 0; i < 4; i++) { b[i] = (unsigned char)(250 + i); }
    int s = 0;
    for (i = 0; i < 4; i++) { s += b[i]; }
    print_int(s);
    return 0;
}`, Options{})
	if res.Output != "1006" {
		t.Fatalf("output = %q", res.Output)
	}
}

// Regression test: a nested parallel loop (executed sequentially by
// each worker) must not corrupt the worker's ordered-section ticket in
// the enclosing DOACROSS loop. Before the fix, execSeqFor's DOACROSS
// bookkeeping overwrote t.curIter and the __sync_wait below deadlocked
// or misordered.
func TestNestedParallelInsideOrderedDoacross(t *testing.T) {
	src := `
int main() {
    long chain = 0;
    int i;
    int scratch[96];
    parallel doacross for (i = 0; i < 12; i++) {
        int j;
        parallel doacross for (j = 0; j < 8; j++) {
            scratch[i * 8 + j] = i + j;
        }
        int s = 0;
        for (j = 0; j < 8; j++) { s += scratch[i * 8 + j]; }
        __sync_wait();
        chain = chain * 31 + s;
        __sync_post();
    }
    print_long(chain);
    return 0;
}`
	want := run(t, src, Options{NumThreads: 1}).Output
	done := make(chan string, 1)
	go func() {
		done <- run(t, src, Options{NumThreads: 4}).Output
	}()
	select {
	case got := <-done:
		if got != want {
			t.Fatalf("ordered chain diverged: %q vs %q", got, want)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("deadlock: nested loop corrupted the ordered-section ticket")
	}
}

func TestCompoundAssignOperators(t *testing.T) {
	res := run(t, `
int main() {
    int a = 100;
    a -= 30;  print_int(a); print_char(' ');
    a *= 2;   print_int(a); print_char(' ');
    a /= 7;   print_int(a); print_char(' ');
    a %= 6;   print_int(a); print_char(' ');
    a <<= 4;  print_int(a); print_char(' ');
    a >>= 2;  print_int(a); print_char(' ');
    a |= 9;   print_int(a); print_char(' ');
    a &= 12;  print_int(a); print_char(' ');
    a ^= 5;   print_int(a); print_char(' ');
    double d = 10.0;
    d /= 4.0;
    d *= 3.0;
    d -= 0.5;
    d += 0.25;
    print_double(d);
    unsigned int u = 4000000000;
    u /= 3;
    u %= 1000;
    print_char(' ');
    print_long((long)u);
    int *base = (int*)malloc(16);
    int *p = base;
    p += 2;
    p -= 1;
    print_char(' ');
    print_long(p - base);
    free(base);
    return 0;
}`, Options{})
	want := "70 140 20 2 32 8 9 8 13 7.250000 333 1"
	if res.Output != want {
		t.Fatalf("output = %q, want %q", res.Output, want)
	}
}

func TestCompoundDivModByZero(t *testing.T) {
	for _, op := range []string{"/=", "%="} {
		err := runErr(t, `
int main() {
    int a = 5;
    int z = 0;
    a `+op+` z;
    return a;
}`, Options{})
		if err == nil {
			t.Fatalf("%s by zero not detected", op)
		}
	}
}

func TestFloatCompoundOnUnsigned(t *testing.T) {
	res := run(t, `
int main() {
    unsigned int u = 3000000000;
    double d = 0.0;
    d += u;          // unsigned-to-float must not go negative
    print_int(d > 2999999999.0);
    float f = u;
    print_int(f > 0.0);
    return 0;
}`, Options{})
	if res.Output != "11" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestParallelLEQAndGEQBounds(t *testing.T) {
	src := `
int main() {
    int i;
    int a[64];
    parallel for (i = 0; i <= 20; i++) { a[i] = 1; }
    int j;
    parallel for (j = 40; j >= 25; j += -1) { a[j] = 1; }
    int s = 0;
    for (i = 0; i < 64; i++) { s += a[i]; }
    print_int(s);
    return 0;
}`
	want := run(t, src, Options{NumThreads: 1}).Output
	got := run(t, src, Options{NumThreads: 5}).Output
	if want != got || want != "37" {
		t.Fatalf("want %q got %q", want, got)
	}
}

func TestParallelBoundOnLeft(t *testing.T) {
	// Mirrored comparison: bound on the left of the induction variable.
	src := `
int main() {
    int i;
    int a[32];
    parallel for (i = 0; 32 > i; i++) { a[i] = 2; }
    int s = 0;
    for (i = 0; i < 32; i++) { s += a[i]; }
    print_int(s);
    return 0;
}`
	got := run(t, src, Options{NumThreads: 4}).Output
	if got != "64" {
		t.Fatalf("got %q", got)
	}
}

// TestFaultClosures: a construct sema never produces compiles to a
// closure that raises a positioned runtime error when it executes, not
// when the program is compiled — at both optimization levels.
func TestFaultClosures(t *testing.T) {
	const src = "int main() {\n  int a = 1;\n  a = -a;\n  return a;\n}\n"
	cases := []struct {
		name    string
		rewrite func(n ast.Node)
		want    string
	}{
		{"bad unary operator", func(n ast.Node) {
			if u, ok := n.(*ast.Unary); ok && u.Op == token.SUB {
				u.Op = token.XOR
			}
		}, "t.c:3:7: runtime error: bad unary operator ^"},
		{"no address", func(n ast.Node) {
			if a, ok := n.(*ast.Assign); ok {
				lit := &ast.IntLit{Value: 0}
				lit.P = a.LHS.Pos()
				lit.SetType(ctypes.IntType)
				a.LHS = lit
			}
		}, "t.c:3:3: runtime error: expression has no address"},
	}
	for _, tc := range cases {
		for _, opt := range []OptLevel{OptNone, OptDefault} {
			prog, err := parser.Parse("t.c", src)
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			info, err := sema.Check(prog)
			if err != nil {
				t.Fatalf("Check: %v", err)
			}
			ast.Inspect(prog.Func("main").Body, func(n ast.Node) bool {
				tc.rewrite(n)
				return true
			})
			m := New(prog, info, Options{Opt: opt})
			if _, err := m.Run(); err == nil || err.Error() != tc.want {
				t.Errorf("%s (opt %d): error %v, want %q", tc.name, opt, err, tc.want)
			}
		}
	}
}
