package sema

import (
	"strings"
	"testing"

	"gdsx/internal/ast"
	"gdsx/internal/parser"
)

func mustCheck(t *testing.T, src string) (*ast.Program, *Info) {
	t.Helper()
	prog, err := parser.Parse("t.c", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	info, err := Check(prog)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	return prog, info
}

func TestAccessSites(t *testing.T) {
	_, info := mustCheck(t, `
int g;
int main() {
    int x = 1;      // store to x (init is handled at decl, no site)
    int *p = &x;
    *p = 2;         // store via deref, load of p
    x = x + g;      // store x, load x, load g
    return x;       // load x
}`)
	loads, stores, defs := 0, 0, 0
	for _, a := range info.Accesses {
		switch {
		case a.IsDef:
			defs++
		case a.IsStore:
			stores++
		default:
			loads++
		}
	}
	// Stores: *p, x. Loads: p (in *p), x, g, x (return), and &x operand
	// produces none. Defs: the declarations of x and p.
	if stores != 2 {
		t.Errorf("stores = %d, want 2", stores)
	}
	if defs != 2 {
		t.Errorf("defs = %d, want 2", defs)
	}
	if loads != 4 {
		t.Errorf("loads = %d, want 4", loads)
	}
}

func TestCompoundAssignHasLoadAndStore(t *testing.T) {
	_, info := mustCheck(t, `
int main() {
    int a[4];
    a[1] += 2;
    return 0;
}`)
	var both int
	for _, a := range info.Accesses {
		if idx, ok := a.Node.(*ast.Index); ok && a.IsStore && idx.Acc.Load > 0 && idx.Acc.Store > 0 {
			both++
		}
	}
	if both != 1 {
		t.Fatalf("compound-assigned index sites = %d, want 1", both)
	}
}

func TestLoopNesting(t *testing.T) {
	_, info := mustCheck(t, `
int main() {
    int i;
    int j;
    int s;
    for (i = 0; i < 3; i++) {
        for (j = 0; j < 3; j++) {
            s += i * j;
        }
    }
    return s;
}`)
	// The s += access sites must be nested in two loops.
	found := false
	for _, a := range info.Accesses {
		if a.Text == "s" && len(a.Loops) == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no access to s recorded under two loops")
	}
}

func TestIndVarDetection(t *testing.T) {
	prog, _ := mustCheck(t, `
int main() {
    int i;
    int a[8];
    parallel for (i = 0; i < 8; i++) { a[i] = i; }
    return 0;
}`)
	var iv *ast.Symbol
	ast.Inspect(prog, func(n ast.Node) bool {
		if f, ok := n.(*ast.For); ok && f.Par == ast.DOALL {
			iv = f.IndVar
		}
		return true
	})
	if iv == nil || iv.Name != "i" {
		t.Fatalf("IndVar = %v, want i", iv)
	}
}

func TestAllocSites(t *testing.T) {
	_, info := mustCheck(t, `
int main() {
    int *a = (int*)malloc(40);
    int *b = (int*)calloc(10, 4);
    a = (int*)realloc(a, 80);
    free(a);
    free(b);
    return 0;
}`)
	if len(info.Allocs) != 3 {
		t.Fatalf("alloc sites = %d, want 3", len(info.Allocs))
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"undefined", "int main() { return x; }", "undefined: x"},
		{"redecl", "int main() { int x; int x; return 0; }", "redeclared"},
		{"bad field", "struct s { int a; }; int main() { struct s v; v.b = 1; return 0; }", "no field b"},
		{"assign to literal", "int main() { 3 = 4; return 0; }", "not assignable"},
		{"return in parallel", "int main() { int i; parallel for (i=0;i<2;i++) { return 1; } return 0; }", "return inside a parallel loop"},
		{"bad indvar", "double d; int main() { parallel for (d = 0; d < 2; d += 1) { } return 0; }", "induction variable"},
		{"no main", "int f() { return 0; }", "no main"},
		{"arg count", "int f(int a) { return a; } int main() { return f(1, 2); }", "expects 1 arguments"},
		{"ptr mismatch", "int main() { double *d; int *p; p = d; return 0; }", "incompatible pointer"},
		{"deref int", "int main() { int x; return *x; }", "dereferencing non-pointer"},
		// Found by FuzzCompileRun: the global allocator sized this with a
		// panic instead of a diagnostic.
		{"unsized global", "long g[]; int main() { return 0; }", "global g has incomplete type"},
		{"unsized local", "int main() { long a[]; return 0; }", "a has incomplete type"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := parser.Parse("e.c", tc.src)
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			_, err = Check(prog)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want containing %q", err, tc.want)
			}
		})
	}
}

func TestVoidPtrImplicit(t *testing.T) {
	mustCheck(t, `
int main() {
    int *p = (int*)malloc(8);
    void *v = p;
    p = v;
    free(p);
    return 0;
}`)
}
