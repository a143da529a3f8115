package gdsx

import (
	"strings"
	"testing"

	"gdsx/internal/expand"
)

// checkTransformed verifies that a program produces identical output
// natively, transformed-sequentially, and transformed-parallel at
// several thread counts.
func checkTransformed(t *testing.T, file, src string, topts TransformOptions) *TransformResult {
	t.Helper()
	prog, err := Compile(file, src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	native, err := prog.Run(RunOptions{Threads: 1})
	if err != nil {
		t.Fatalf("native run: %v", err)
	}
	tr, err := Transform(prog, topts)
	if err != nil {
		t.Fatalf("Transform: %v", err)
	}
	for _, n := range []int{1, 2, 4, 8} {
		got, err := tr.Expanded.Run(RunOptions{Threads: n})
		if err != nil {
			t.Fatalf("transformed run N=%d: %v\n--- source ---\n%s", n, err, tr.Source)
		}
		if got.Output != native.Output {
			t.Fatalf("N=%d: output mismatch\nnative:      %q\ntransformed: %q\n--- source ---\n%s",
				n, native.Output, got.Output, tr.Source)
		}
		if got.Exit != native.Exit {
			t.Fatalf("N=%d: exit %d != native %d", n, got.Exit, native.Exit)
		}
	}
	return tr
}

// zptrSrc is the paper's Figure 1 pattern: a heap buffer allocated
// before the loop, reinitialized and consumed in every iteration.
const zptrSrc = `
int main() {
    int m = 64;
    int *zptr = (int*)malloc(m * 4);
    int *out = (int*)malloc(40 * 4);
    int iter;
    parallel doacross for (iter = 0; iter < 40; iter++) {
        int k;
        for (k = 0; k < m; k++) {
            zptr[k] = iter * k + 1;
        }
        int b = 0;
        for (k = 0; k < m; k++) {
            b += zptr[k];
        }
        out[iter] = b;
    }
    long total = 0;
    for (iter = 0; iter < 40; iter++) {
        total += out[iter];
    }
    print_long(total);
    free(zptr);
    free(out);
    return 0;
}
`

func TestTransformZptr(t *testing.T) {
	tr := checkTransformed(t, "zptr.c", zptrSrc, TransformOptions{})
	rep := tr.Reports[0]
	if len(rep.Expanded) == 0 {
		t.Fatalf("nothing expanded: %+v", rep)
	}
	if !strings.Contains(tr.Source, "__nthreads") {
		t.Fatalf("transformed source has no expansion:\n%s", tr.Source)
	}
	if !strings.Contains(tr.Source, "__tid") {
		t.Fatalf("transformed source has no redirection:\n%s", tr.Source)
	}
}

func TestTransformZptrUnoptimized(t *testing.T) {
	un := expand.Unoptimized()
	tr := checkTransformed(t, "zptr.c", zptrSrc, TransformOptions{Expand: &un})
	rep := tr.Reports[0]
	// Unoptimized mode must expand at least as much and keep span
	// stores that the optimizer would elide.
	if len(rep.Expanded) == 0 {
		t.Fatalf("nothing expanded: %+v", rep)
	}
	if rep.SpanStores == 0 {
		t.Fatalf("unoptimized run should emit span stores, got %+v", rep)
	}
}

// mxSrc is the paper's Figure 3 pattern (456.hmmer): a pointer whose
// allocation site — and therefore span — is unknown at compile time.
const mxSrc = `
int work(int *mx, int m, int iter) {
    int k;
    for (k = 0; k < m; k++) {
        mx[k] = iter + k;
    }
    int s = 0;
    for (k = 0; k < m; k++) {
        s += mx[k];
    }
    return s;
}

int main() {
    int m1 = 32;
    int m2 = 48;
    int *mx;
    int which = 1;
    if (which) {
        mx = (int*)malloc(m1 * 4);
    } else {
        mx = (int*)malloc(m2 * 4);
    }
    int *out = (int*)malloc(24 * 4);
    int iter;
    parallel for (iter = 0; iter < 24; iter++) {
        out[iter] = work(mx, m1, iter);
    }
    long total = 0;
    for (iter = 0; iter < 24; iter++) {
        total += out[iter];
    }
    print_long(total);
    free(mx);
    free(out);
    return 0;
}
`

func TestTransformAmbiguousSpan(t *testing.T) {
	tr := checkTransformed(t, "mx.c", mxSrc, TransformOptions{})
	rep := tr.Reports[0]
	// The two allocation sites have different sizes, so the pointer
	// must be promoted and spans tracked at run time.
	if len(rep.Promoted) == 0 {
		t.Fatalf("expected pointer promotion, got %+v\n--- source ---\n%s", rep, tr.Source)
	}
	if !strings.Contains(tr.Source, ".span") {
		t.Fatalf("no span fields in transformed source:\n%s", tr.Source)
	}
}

// localScalarSrc exercises Table 1's local-scalar and local-array rules:
// scratch locals declared outside the loop.
const localScalarSrc = `
int main() {
    int scratch[16];
    int best;
    int *out = (int*)malloc(20 * 4);
    int iter;
    parallel for (iter = 0; iter < 20; iter++) {
        int k;
        for (k = 0; k < 16; k++) {
            scratch[k] = iter * k;
        }
        best = 0;
        for (k = 0; k < 16; k++) {
            if (scratch[k] > best) {
                best = scratch[k];
            }
        }
        out[iter] = best;
    }
    long total = 0;
    for (iter = 0; iter < 20; iter++) {
        total += out[iter];
    }
    print_long(total);
    free(out);
    return 0;
}
`

func TestTransformLocalScalarAndArray(t *testing.T) {
	tr := checkTransformed(t, "locals.c", localScalarSrc, TransformOptions{})
	rep := tr.Reports[0]
	if len(rep.Expanded) < 2 {
		t.Fatalf("expected scratch and best expanded, got %+v\n%s", rep, tr.Source)
	}
	if !strings.Contains(tr.Source, "[__nthreads]") {
		t.Fatalf("locals not expanded with VLA:\n%s", tr.Source)
	}
}

// globalSrc exercises Table 1's global rules (conversion to heap).
const globalSrc = `
int gbuf[32];
int gbest;
int main() {
    int *out = (int*)malloc(12 * 4);
    int iter;
    parallel for (iter = 0; iter < 12; iter++) {
        int k;
        for (k = 0; k < 32; k++) {
            gbuf[k] = iter + k * 3;
        }
        gbest = 0;
        for (k = 0; k < 32; k++) {
            gbest += gbuf[k];
        }
        out[iter] = gbest;
    }
    long total = 0;
    for (iter = 0; iter < 12; iter++) {
        total += out[iter];
    }
    print_long(total);
    free(out);
    return 0;
}
`

func TestTransformGlobals(t *testing.T) {
	tr := checkTransformed(t, "globals.c", globalSrc, TransformOptions{})
	if !strings.Contains(tr.Source, "malloc") {
		t.Fatalf("globals not heap-converted:\n%s", tr.Source)
	}
}

// doacrossSrc has a residual carried dependence (ordered accumulation)
// plus privatizable scratch: the ordered section must be placed and the
// output must stay in iteration order.
const doacrossSrc = `
int main() {
    int m = 32;
    int *buf = (int*)malloc(m * 4);
    long checksum = 0;
    int iter;
    parallel doacross for (iter = 0; iter < 30; iter++) {
        int k;
        for (k = 0; k < m; k++) {
            buf[k] = iter + k;
        }
        int b = 0;
        for (k = 0; k < m; k++) {
            b += buf[k];
        }
        checksum = checksum * 31 + b;
    }
    print_long(checksum);
    free(buf);
    return 0;
}
`

func TestTransformDoacrossOrdered(t *testing.T) {
	tr := checkTransformed(t, "doacross.c", doacrossSrc, TransformOptions{})
	rep := tr.Reports[0]
	if len(rep.SyncPlaced) == 0 {
		t.Fatalf("expected ordered section, got %+v\n%s", rep, tr.Source)
	}
	if !strings.Contains(tr.Source, "__sync_wait") {
		t.Fatalf("no sync markers:\n%s", tr.Source)
	}
}

// freshSrc allocates per iteration: nothing needs expansion, and the
// transformed program must still be correct.
const freshSrc = `
struct node { int v; struct node *next; };
int main() {
    int *out = (int*)malloc(16 * 4);
    int iter;
    parallel for (iter = 0; iter < 16; iter++) {
        struct node *head = 0;
        int k;
        for (k = 0; k < 8; k++) {
            struct node *n = (struct node*)malloc(sizeof(struct node));
            n->v = iter + k;
            n->next = head;
            head = n;
        }
        int s = 0;
        while (head != 0) {
            s += head->v;
            struct node *dead = head;
            head = head->next;
            free(dead);
        }
        out[iter] = s;
    }
    long total = 0;
    for (iter = 0; iter < 16; iter++) {
        total += out[iter];
    }
    print_long(total);
    free(out);
    return 0;
}
`

func TestTransformIterationFresh(t *testing.T) {
	checkTransformed(t, "fresh.c", freshSrc, TransformOptions{})
}

// recastSrc is the bzip2 zptr recast pattern: the same buffer accessed
// as int* and short*.
const recastSrc = `
int main() {
    int m = 32;
    int *zptr = (int*)malloc(m * 4);
    int *out = (int*)malloc(10 * 4);
    int iter;
    parallel for (iter = 0; iter < 10; iter++) {
        int k;
        for (k = 0; k < m; k++) {
            zptr[k] = iter * 65536 + k;
        }
        short *sp = (short*)zptr;
        int s = 0;
        for (k = 0; k < m * 2; k++) {
            s += sp[k];
        }
        out[iter] = s;
    }
    long total = 0;
    for (iter = 0; iter < 10; iter++) {
        total += out[iter];
    }
    print_long(total);
    free(zptr);
    free(out);
    return 0;
}
`

func TestTransformRecastBonded(t *testing.T) {
	checkTransformed(t, "recast.c", recastSrc, TransformOptions{})
}

func TestInterleavedRejectsRecast(t *testing.T) {
	prog, err := Compile("recast.c", recastSrc)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	opts := expand.Optimized()
	opts.Layout = expand.Interleaved
	_, err = Transform(prog, TransformOptions{Expand: &opts})
	if err == nil || !strings.Contains(err.Error(), "recast") {
		t.Fatalf("interleaved layout must reject the recast buffer, got %v", err)
	}
}

// Ordered DOACROSS execution must be deterministic under real parallel
// execution: run the transformed ordered program many times at 8
// threads and require identical output every time (a failed ordered
// section would surface as a reordering of the digest chain).
func TestDoacrossOrderingStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test is not short")
	}
	prog, err := Compile("doacross.c", doacrossSrc)
	if err != nil {
		t.Fatal(err)
	}
	native, err := prog.Run(RunOptions{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Transform(prog, TransformOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		res, err := tr.Expanded.Run(RunOptions{Threads: 8})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if res.Output != native.Output {
			t.Fatalf("run %d: ordered output diverged: %q vs %q", i, res.Output, native.Output)
		}
	}
}
