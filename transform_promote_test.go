package gdsx

// Focused tests for the harder promotion shapes of Figures 4–6 and
// Table 3: promoted function returns, fat-temporary materialization at
// call sites, address-taken spans, struct-field promotion, calloc
// spans, and conditional span sources.

import (
	"strings"
	"testing"

	"gdsx/internal/expand"
)

// A function returning one of two differently sized buffers: its return
// slot must be promoted, and `return (int*)malloc(..)` materializes a
// fat temporary (Table 3 malloc rule inside the callee).
func TestPromotedReturnAndFatTemp(t *testing.T) {
	src := `
int SZ;
int *mkbuf(int c) {
    if (c > 0) {
        return (int*)malloc(SZ * 4);
    }
    return (int*)malloc(SZ * 8);
}
int main() {
    SZ = 16;
    int *buf = mkbuf(1);
    int *out = (int*)malloc(8 * 4);
    int it;
    parallel for (it = 0; it < 8; it++) {
        int k;
        for (k = 0; k < 16; k++) {
            buf[k] = it + k;
        }
        int s = 0;
        for (k = 0; k < 16; k++) {
            s += buf[k];
        }
        out[it] = s;
    }
    long total = 0;
    for (it = 0; it < 8; it++) { total += out[it]; }
    print_long(total);
    free(buf);
    free(out);
    return 0;
}`
	tr := checkTransformed(t, "pret.c", src, TransformOptions{})
	rep := tr.Reports[0]
	joined := strings.Join(rep.Promoted, ",")
	if !strings.Contains(joined, "mkbuf()") {
		t.Fatalf("return slot not promoted: %v", rep.Promoted)
	}
	if !strings.Contains(tr.Source, "__fat_tmp") {
		t.Fatalf("no fat temporary for the promoted return:\n%s", tr.Source)
	}
	// The call result is assigned as a whole fat value.
	if !strings.Contains(tr.Source, "buf = mkbuf(1)") {
		t.Fatalf("whole-fat copy from promoted call missing:\n%s", tr.Source)
	}
}

// A non-bare argument (buf + offset) passed to a promoted parameter
// must be materialized into a fat temporary at the call site.
func TestPromotedArgFatTemp(t *testing.T) {
	src := `
int dyn() { return 24; }
int fill(int *win, int it) {
    int k;
    for (k = 0; k < 8; k++) {
        win[k] = it + k;
    }
    int s = 0;
    for (k = 0; k < 8; k++) {
        s += win[k];
    }
    return s;
}
int main() {
    int n = dyn();
    int *buf = (int*)malloc(n * 4);
    int *out = (int*)malloc(6 * 4);
    int it;
    parallel for (it = 0; it < 6; it++) {
        out[it] = fill(buf + 4, it);
    }
    long total = 0;
    for (it = 0; it < 6; it++) { total += out[it]; }
    print_long(total);
    free(buf);
    free(out);
    return 0;
}`
	tr := checkTransformed(t, "parg.c", src, TransformOptions{})
	if !strings.Contains(tr.Source, "__fat_tmp") {
		t.Fatalf("no fat temporary for the offset argument:\n%s", tr.Source)
	}
	// Table 3 pointer-arithmetic rule: the temp's span is the base's.
	if !strings.Contains(tr.Source, ".span = buf.span") {
		t.Fatalf("span not propagated through pointer arithmetic:\n%s", tr.Source)
	}
}

// Address-taken spans (Table 3 "address taken" rules): p = &x and
// p = &s.f record sizeof(x) and sizeof(s) respectively.
func TestAddressTakenSpans(t *testing.T) {
	src := `
int dyn() { return 12; }
struct blob {
    int head;
    int body[15];
};
int consume(int *p, int n, int it) {
    int k;
    for (k = 0; k < n; k++) {
        p[k] = it + k;
    }
    int s = 0;
    for (k = 0; k < n; k++) {
        s += p[k];
    }
    return s;
}
int main() {
    struct blob b;
    int n = dyn();
    int *heapbuf = (int*)malloc(n * 4);
    int *out = (int*)malloc(6 * 4);
    int it;
    parallel for (it = 0; it < 6; it++) {
        int s = consume(&b.head, 16, it);
        s += consume(heapbuf, n, it);
        out[it] = s;
    }
    long total = 0;
    for (it = 0; it < 6; it++) { total += out[it]; }
    print_long(total);
    free(heapbuf);
    free(out);
    return 0;
}`
	tr := checkTransformed(t, "addrspan.c", src, TransformOptions{})
	// &b.head must carry the whole struct's size (64 bytes), per the
	// paper's "Address taken 2" rule.
	if !strings.Contains(tr.Source, ".span = 64") {
		t.Fatalf("whole-struct span for &s.f missing:\n%s", tr.Source)
	}
}

// A pointer stored in a struct field, reaching a runtime-sized buffer:
// the field itself is promoted (Figure 5's struct rule), giving
// s.f.pointer / s.f.span shapes.
func TestStructFieldPromotion(t *testing.T) {
	src := `
int dyn() { return 20; }
struct ctx {
    int id;
    int *data;
};
int main() {
    struct ctx c;
    int n = dyn();
    c.id = 1;
    c.data = (int*)malloc(n * 4);
    int *out = (int*)malloc(6 * 4);
    int it;
    parallel for (it = 0; it < 6; it++) {
        int k;
        for (k = 0; k < 20; k++) {
            c.data[k] = it * k;
        }
        int s = 0;
        for (k = 0; k < 20; k++) {
            s += c.data[k];
        }
        out[it] = s;
    }
    long total = 0;
    for (it = 0; it < 6; it++) { total += out[it]; }
    print_long(total);
    free(c.data);
    free(out);
    return 0;
}`
	tr := checkTransformed(t, "field.c", src, TransformOptions{})
	rep := tr.Reports[0]
	promoted := strings.Join(rep.Promoted, ",")
	if !strings.Contains(promoted, "ctx.data") {
		t.Fatalf("field slot not promoted: %v", rep.Promoted)
	}
	if !strings.Contains(tr.Source, "c.data.span") || !strings.Contains(tr.Source, "c.data.pointer") {
		t.Fatalf("field promotion shapes missing:\n%s", tr.Source)
	}
}

// calloc expansion and span (Table 1 heap rule and Table 3 allocation
// rule for two-argument allocators).
func TestCallocSpanAndExpansion(t *testing.T) {
	src := `
int dyn() { return 10; }
int main() {
    int n = dyn();
    int *buf = (int*)calloc(n, 4);
    int *out = (int*)malloc(6 * 4);
    int it;
    parallel for (it = 0; it < 6; it++) {
        int k;
        for (k = 0; k < 10; k++) {
            buf[k] = it + k;
        }
        out[it] = buf[0] + buf[9];
    }
    long total = 0;
    for (it = 0; it < 6; it++) { total += out[it]; }
    print_long(total);
    free(buf);
    free(out);
    return 0;
}`
	tr := checkTransformed(t, "calloc.c", src, TransformOptions{})
	if !strings.Contains(tr.Source, "calloc(n * __nthreads, 4)") {
		t.Fatalf("calloc not expanded:\n%s", tr.Source)
	}
	if !strings.Contains(tr.Source, ".span = n * 4") {
		t.Fatalf("calloc span (n*4) missing:\n%s", tr.Source)
	}
}

// Conditional pointer sources: p = c ? a : b draws span requirements
// from both arms (spanSourceRoots through Cond).
func TestConditionalSpanSource(t *testing.T) {
	src := `
int dyn() { return 8; }
int main() {
    int n = dyn();
    int *a = (int*)malloc(n * 4);
    int *b = (int*)malloc(n * 8);
    int *out = (int*)malloc(6 * 4);
    int it;
    parallel for (it = 0; it < 6; it++) {
        int k;
        int *p = it % 2 ? a : b;
        for (k = 0; k < 8; k++) {
            p[k] = it + k;
        }
        out[it] = p[0] + p[7];
    }
    long total = 0;
    for (it = 0; it < 6; it++) { total += out[it]; }
    print_long(total);
    free(a);
    free(b);
    free(out);
    return 0;
}`
	tr := checkTransformed(t, "cond.c", src, TransformOptions{})
	rep := tr.Reports[0]
	names := strings.Join(rep.Promoted, ",")
	for _, want := range []string{"a", "b", "p"} {
		if !strings.Contains(names, want) {
			t.Fatalf("%s not promoted (got %v)\n%s", want, rep.Promoted, tr.Source)
		}
	}
}

// p++ under the unoptimized configuration emits the redundant
// p.span = p.span store of §3.4's dead-store-elimination discussion.
func TestIncDecSelfSpanUnoptimized(t *testing.T) {
	src := `
int dyn() { return 16; }
int main() {
    int n = dyn();
    int *buf = (int*)malloc(n * 4);
    int *out = (int*)malloc(4 * 4);
    int it;
    parallel for (it = 0; it < 4; it++) {
        int *p = buf;
        int k;
        for (k = 0; k < 16; k++) {
            *p = it + k;
            p++;
        }
        int s = 0;
        for (k = 0; k < 16; k++) {
            s += buf[k];
        }
        out[it] = s;
    }
    long total = 0;
    for (it = 0; it < 4; it++) { total += out[it]; }
    print_long(total);
    free(buf);
    free(out);
    return 0;
}`
	prog, err := Compile("incdec.c", src)
	if err != nil {
		t.Fatal(err)
	}
	native, err := prog.Run(RunOptions{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	un := expand.Unoptimized()
	tr, err := Transform(prog, TransformOptions{Expand: &un})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tr.Source, "p.span = p.span") {
		t.Fatalf("redundant self span store missing in unoptimized mode:\n%s", tr.Source)
	}
	got, err := tr.Expanded.Run(RunOptions{Threads: 4})
	if err != nil || got.Output != native.Output {
		t.Fatalf("unoptimized run: %v, %q vs %q", err, got.Output, native.Output)
	}
}
