package interp

import (
	"strings"
	"testing"

	"gdsx/internal/parser"
	"gdsx/internal/sema"
)

// run executes src and returns the result, failing the test on error.
func run(t *testing.T, src string, opts Options) Result {
	t.Helper()
	prog, err := parser.Parse("t.c", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	res, err := New(prog, info, opts).Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func runErr(t *testing.T, src string, opts Options) error {
	t.Helper()
	prog, err := parser.Parse("t.c", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	_, err = New(prog, info, opts).Run()
	return err
}

func TestArithmetic(t *testing.T) {
	res := run(t, `
int main() {
    int a = 7;
    int b = 3;
    print_int(a + b); print_char('\n');
    print_int(a - b); print_char('\n');
    print_int(a * b); print_char('\n');
    print_int(a / b); print_char('\n');
    print_int(a % b); print_char('\n');
    print_int(a << 2); print_char('\n');
    print_int(a >> 1); print_char('\n');
    print_int(a & b); print_char('\n');
    print_int(a | b); print_char('\n');
    print_int(a ^ b); print_char('\n');
    print_int(-a); print_char('\n');
    print_int(~a); print_char('\n');
    print_int(!a); print_char('\n');
    return 0;
}`, Options{})
	want := "10\n4\n21\n2\n1\n28\n3\n3\n7\n4\n-7\n-8\n0\n"
	if res.Output != want {
		t.Fatalf("output = %q, want %q", res.Output, want)
	}
}

func TestIntegerWidths(t *testing.T) {
	res := run(t, `
int main() {
    char c = 200;            // wraps to -56
    unsigned char uc = 200;
    short s = 70000;         // wraps to 4464
    unsigned short us = 70000;
    int i = 5000000000;      // wraps
    long l = 5000000000;
    print_int(c); print_char('\n');
    print_int(uc); print_char('\n');
    print_int(s); print_char('\n');
    print_int(us); print_char('\n');
    print_int(i); print_char('\n');
    print_long(l); print_char('\n');
    return 0;
}`, Options{})
	want := "-56\n200\n4464\n4464\n705032704\n5000000000\n"
	if res.Output != want {
		t.Fatalf("output = %q, want %q", res.Output, want)
	}
}

func TestUnsignedOps(t *testing.T) {
	res := run(t, `
int main() {
    unsigned int a = 4000000000;
    unsigned int b = 3;
    print_long((long)(a / b)); print_char('\n');
    print_int(a > 5);  print_char('\n'); // unsigned compare
    unsigned int c = a >> 4;
    print_long((long)c); print_char('\n');
    return 0;
}`, Options{})
	want := "1333333333\n1\n250000000\n"
	if res.Output != want {
		t.Fatalf("output = %q, want %q", res.Output, want)
	}
}

// TestUsualArithmeticConversions pins C's usual arithmetic conversions
// in comparisons, whatever the order of the operands: narrow integers
// promote to signed int, and at equal rank an unsigned operand makes
// the comparison unsigned.
func TestUsualArithmeticConversions(t *testing.T) {
	cases := []struct{ name, body, want string }{
		{"mixed signedness and narrow operands", `
    int v = -1; unsigned int u = 5; unsigned char a = 200; char b = -1;
    print_int(v > u); print_int(u < v); print_int(a < b); print_int(b > a);`, "1100"},
		{"unsigned char against unsigned short", `
    unsigned char a = 200; unsigned short h = 100; char b = -1;
    print_int(a > h); print_int(h < a); print_int(b < h); print_int(h > b);`, "1111"},
		{"long against unsigned int", `
    long l = -1; unsigned int u = 5; unsigned long ul = 5;
    print_int(l < u); print_int(u > l); print_int(l > ul); print_int(ul < l);`, "1111"},
	}
	for _, tc := range cases {
		for _, opt := range []OptLevel{OptNone, OptDefault} {
			res := run(t, "int main() {"+tc.body+"\n    return 0;\n}", Options{Opt: opt})
			if res.Output != tc.want {
				t.Errorf("%s (opt %d): output %q, want %q", tc.name, opt, res.Output, tc.want)
			}
		}
	}
}

func TestFloatOps(t *testing.T) {
	res := run(t, `
int main() {
    double d = 2.5;
    float f = 0.5;
    print_double(d * 2.0 + f); print_char('\n');
    print_double(sqrt(16.0)); print_char('\n');
    print_double(fabs(0.0 - 3.25)); print_char('\n');
    print_int((int)(d * 2.0)); print_char('\n');
    return 0;
}`, Options{})
	want := "5.500000\n4.000000\n3.250000\n5\n"
	if res.Output != want {
		t.Fatalf("output = %q, want %q", res.Output, want)
	}
}

func TestControlFlow(t *testing.T) {
	res := run(t, `
int main() {
    int i;
    int s = 0;
    for (i = 0; i < 10; i++) {
        if (i == 3) continue;
        if (i == 8) break;
        s += i;
    }
    int j = 0;
    while (j < 5) { s += 100; j++; }
    do { s += 1000; } while (0);
    print_int(s);
    return 0;
}`, Options{})
	// 0+1+2+4+5+6+7 = 25; +500; +1000
	if res.Output != "1525" {
		t.Fatalf("output = %q, want 1525", res.Output)
	}
}

func TestPointersAndArrays(t *testing.T) {
	res := run(t, `
int main() {
    int a[5];
    int i;
    for (i = 0; i < 5; i++) a[i] = i * i;
    int *p = a;
    int *q = &a[4];
    print_long(q - p); print_char('\n');
    print_int(*(p + 2)); print_char('\n');
    p += 3;
    print_int(*p); print_char('\n');
    p++;
    print_int(*p); print_char('\n');
    int m[3][4];
    m[2][3] = 42;
    print_int(m[2][3]); print_char('\n');
    return 0;
}`, Options{})
	want := "4\n4\n9\n16\n42\n"
	if res.Output != want {
		t.Fatalf("output = %q, want %q", res.Output, want)
	}
}

func TestStructsAndLists(t *testing.T) {
	res := run(t, `
struct node {
    int val;
    struct node *next;
};
int main() {
    struct node *head = 0;
    int i;
    for (i = 0; i < 5; i++) {
        struct node *n = (struct node*)malloc(sizeof(struct node));
        n->val = i;
        n->next = head;
        head = n;
    }
    int s = 0;
    while (head != 0) {
        s = s * 10 + head->val;
        struct node *dead = head;
        head = head->next;
        free(dead);
    }
    print_int(s);
    return 0;
}`, Options{})
	if res.Output != "43210" {
		t.Fatalf("output = %q, want 43210", res.Output)
	}
}

func TestStructValueSemantics(t *testing.T) {
	res := run(t, `
struct point { int x; int y; };
int main() {
    struct point a;
    struct point b;
    a.x = 1; a.y = 2;
    b = a;
    b.x = 99;
    print_int(a.x); print_int(b.x); print_int(b.y);
    return 0;
}`, Options{})
	if res.Output != "1992" {
		t.Fatalf("output = %q, want 1992", res.Output)
	}
}

func TestRecursion(t *testing.T) {
	res := run(t, `
int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}
int main() {
    print_int(fib(15));
    return 0;
}`, Options{})
	if res.Output != "610" {
		t.Fatalf("output = %q, want 610", res.Output)
	}
}

func TestShortIntRecast(t *testing.T) {
	// The bzip2 zptr pattern: one buffer viewed as both short and int.
	res := run(t, `
int main() {
    int *zptr = (int*)malloc(4 * 4);
    int k;
    for (k = 0; k < 4; k++) zptr[k] = 65536 + k;
    short *sp = (short*)zptr;
    print_int(sp[0]); print_char(' ');
    print_int(sp[1]); print_char(' ');
    print_int(sp[2]); print_char('\n');
    sp[0] = 7;
    print_int(zptr[0]); print_char('\n');
    free(zptr);
    return 0;
}`, Options{})
	want := "0 1 1\n65543\n"
	if res.Output != want {
		t.Fatalf("output = %q, want %q", res.Output, want)
	}
}

func TestGlobalsAndInit(t *testing.T) {
	res := run(t, `
int g = 40;
int h;
double r = 2.5;
int arr[4];
int main() {
    h = g + 2;
    arr[1] = h;
    print_int(arr[1]);
    print_double(r);
    return 0;
}`, Options{})
	if res.Output != "422.500000" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestStrings(t *testing.T) {
	res := run(t, `
int main() {
    char *s = "hello";
    print_str(s);
    print_char(' ');
    print_int(s[1]);
    return 0;
}`, Options{})
	if res.Output != "hello 101" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestVLA(t *testing.T) {
	res := run(t, `
int sum(int n) {
    int a[n];
    int i;
    for (i = 0; i < n; i++) a[i] = i;
    int s = 0;
    for (i = 0; i < n; i++) s += a[i];
    return s;
}
int main() {
    print_int(sum(10));
    print_char(' ');
    print_int(sum(100));
    return 0;
}`, Options{})
	if res.Output != "45 4950" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestMemBuiltins(t *testing.T) {
	res := run(t, `
int main() {
    char *a = (char*)malloc(8);
    char *b = (char*)malloc(8);
    memset(a, 65, 7);
    a[7] = 0;
    memcpy(b, a, 8);
    b[0] = 66;
    print_str(b);
    a = (char*)realloc(a, 16);
    print_str(a);
    free(a);
    free(b);
    return 0;
}`, Options{})
	if res.Output != "BAAAAAAAAAAAAA" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestTernaryLogical(t *testing.T) {
	res := run(t, `
int sideEffect(int *p) { *p = *p + 1; return 1; }
int main() {
    int n = 0;
    int x = (n == 0) ? 10 : 20;
    print_int(x);
    // Short circuit: sideEffect must not run.
    if (n != 0 && sideEffect(&n)) { }
    if (n == 0 || sideEffect(&n)) { }
    print_int(n);
    return 0;
}`, Options{})
	if res.Output != "100" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestExitCode(t *testing.T) {
	res := run(t, `int main() { return 42; }`, Options{})
	if res.Exit != 42 {
		t.Fatalf("exit = %d, want 42", res.Exit)
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"div zero", "int main() { int z = 0; return 1 / z; }", "division by zero"},
		{"null deref", "int main() { int *p = 0; return *p; }", "null pointer"},
		{"double free", "int main() { int *p = (int*)malloc(4); free(p); free(p); return 0; }", "free of non-allocated"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := runErr(t, tc.src, Options{})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want containing %q", err, tc.want)
			}
		})
	}
}

// parSum is a DOALL loop already in expanded form (disjoint slices per
// iteration), so it is safe to run with any thread count.
const parSum = `
int main() {
    int n = 1000;
    int *a = (int*)malloc(n * 4);
    int *partial = (int*)malloc(8 * 4);
    int i;
    for (i = 0; i < n; i++) a[i] = i;
    parallel for (i = 0; i < n; i++) {
        a[i] = a[i] * 2;
    }
    long s = 0;
    for (i = 0; i < n; i++) s += a[i];
    print_long(s);
    free(a);
    free(partial);
    return 0;
}`

func TestParallelDOALLMatchesSequential(t *testing.T) {
	seq := run(t, parSum, Options{NumThreads: 1})
	for _, n := range []int{2, 4, 8} {
		par := run(t, parSum, Options{NumThreads: n})
		if par.Output != seq.Output {
			t.Fatalf("N=%d: output %q != sequential %q", n, par.Output, seq.Output)
		}
	}
}

func TestParallelInductionVarAfterLoop(t *testing.T) {
	src := `
int main() {
    int i;
    int a[64];
    parallel for (i = 0; i < 64; i++) { a[i] = i; }
    print_int(i);
    return 0;
}`
	for _, n := range []int{1, 3, 8} {
		res := run(t, src, Options{NumThreads: n})
		if res.Output != "64" {
			t.Fatalf("N=%d: i after loop = %q, want 64", n, res.Output)
		}
	}
}

func TestParallelStep(t *testing.T) {
	src := `
int main() {
    int i;
    int s[128];
    parallel for (i = 10; i < 100; i += 7) { s[i] = 1; }
    int c = 0;
    for (i = 0; i < 128; i++) c += s[i];
    print_int(c);
    return 0;
}`
	want := run(t, src, Options{NumThreads: 1}).Output
	got := run(t, src, Options{NumThreads: 4}).Output
	if got != want || want != "13" {
		t.Fatalf("got %q seq %q, want 13", got, want)
	}
}

func TestDoacrossOrdered(t *testing.T) {
	// An ordered DOACROSS loop: each iteration appends to a shared
	// cursor inside the ordered section, so output must be in
	// iteration order regardless of thread count. SyncWait/SyncPost
	// are inserted here via the AST directly by the sync pass in
	// normal operation; in this test the loop runs sequentially when
	// no markers exist, so we only check dynamic scheduling safety of
	// independent work.
	src := `
int main() {
    int n = 200;
    int *out = (int*)malloc(n * 4);
    int i;
    parallel doacross for (i = 0; i < n; i++) {
        out[i] = i * 3;
    }
    long s = 0;
    for (i = 0; i < n; i++) s += out[i];
    print_long(s);
    free(out);
    return 0;
}`
	want := run(t, src, Options{NumThreads: 1}).Output
	got := run(t, src, Options{NumThreads: 6}).Output
	if got != want {
		t.Fatalf("doacross output %q != %q", got, want)
	}
}

func TestForceSequential(t *testing.T) {
	res := run(t, parSum, Options{NumThreads: 8, ForceSequential: true})
	if res.Output != "999000" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestNestedParallelRunsSequentially(t *testing.T) {
	src := `
int main() {
    int i;
    int j;
    int a[16][16];
    parallel for (i = 0; i < 16; i++) {
        int jj;
        parallel for (jj = 0; jj < 16; jj++) {
            a[i][jj] = i * 16 + jj;
        }
    }
    int s = 0;
    for (i = 0; i < 16; i++) { for (j = 0; j < 16; j++) { s += a[i][j]; } }
    print_int(s);
    return 0;
}`
	res := run(t, src, Options{NumThreads: 4})
	if res.Output != "32640" {
		t.Fatalf("output = %q, want 32640", res.Output)
	}
}

func TestTidNthreads(t *testing.T) {
	src := `
int main() {
    int i;
    int *hits = (int*)malloc(__nthreads * 4);
    parallel for (i = 0; i < 64; i++) {
        hits[__tid] = hits[__tid] + 1;
    }
    int s = 0;
    for (i = 0; i < __nthreads; i++) s += hits[i];
    print_int(s);
    free(hits);
    return 0;
}`
	res := run(t, src, Options{NumThreads: 4})
	if res.Output != "64" {
		t.Fatalf("output = %q, want 64", res.Output)
	}
}

func TestHooksObserveAccesses(t *testing.T) {
	prog, err := parser.Parse("t.c", `
int main() {
    int a[4];
    int i;
    for (i = 0; i < 4; i++) a[i] = i;
    int s = 0;
    for (i = 0; i < 4; i++) s += a[i];
    return s;
}`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	var loads, stores, iters int
	hooks := &Hooks{
		Load:     func(site int, addr, size int64) { loads++ },
		Store:    func(site int, addr, size int64) { stores++ },
		LoopIter: func(loopID int, iter int64) { iters++ },
	}
	res, err := New(prog, info, Options{Hooks: hooks}).Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Exit != 6 {
		t.Fatalf("exit = %d", res.Exit)
	}
	// LoopIter fires before every condition check, including the final
	// failing one: two loops x (4 iterations + 1) = 10.
	if loads == 0 || stores == 0 || iters != 10 {
		t.Fatalf("loads=%d stores=%d iters=%d", loads, stores, iters)
	}
}

func TestCounters(t *testing.T) {
	res := run(t, parSum, Options{NumThreads: 4})
	if res.Counters[CatWork] == 0 {
		t.Fatalf("no work counted")
	}
	if res.Counters[CatSync] == 0 {
		t.Fatalf("no scheduling ops counted")
	}
}

func TestMemStats(t *testing.T) {
	res := run(t, `
int main() {
    int *p = (int*)malloc(1000);
    free(p);
    return 0;
}`, Options{})
	if res.MemStats.HighWater == 0 {
		t.Fatalf("high water = 0")
	}
}
