package profile

import (
	"fmt"
	"testing"

	"gdsx/internal/ast"
	"gdsx/internal/ddg"
	"gdsx/internal/interp"
	"gdsx/internal/parser"
	"gdsx/internal/sema"
)

// compile parses and checks src, returning the program, tables and the
// ID of its first parallel loop.
func compile(t *testing.T, src string) (*ast.Program, *sema.Info, int) {
	t.Helper()
	prog, err := parser.Parse("t.c", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	for id, l := range info.Loops {
		if l.Par != ast.Sequential {
			return prog, info, id
		}
	}
	t.Fatalf("no parallel loop in program")
	return nil, nil, 0
}

func profileFirst(t *testing.T, src string) *Result {
	t.Helper()
	prog, info, loopID := compile(t, src)
	res, err := Loop(prog, info, loopID, interp.Options{})
	if err != nil {
		t.Fatalf("Loop: %v", err)
	}
	return res
}

// classifyAll is a helper combining profiling and classification.
func classifyAll(t *testing.T, src string) (*Result, *ddg.Classification) {
	res := profileFirst(t, src)
	return res, ddg.Classify(res.Graph, ddg.DefaultOptions())
}

func TestPrivatizableBuffer(t *testing.T) {
	// The paper's Figure 1 pattern: zptr is initialized and then used
	// in every iteration; it must come out expandable.
	res, cls := classifyAll(t, `
int main() {
    int m = 16;
    int *zptr = (int*)malloc(m * 4);
    long acc = 0;
    int iter;
    int *out = (int*)malloc(8 * 4);
    parallel for (iter = 0; iter < 8; iter++) {
        int k;
        for (k = 0; k < m; k++) zptr[k] = iter + k;
        int b = 0;
        for (k = 0; k < m; k++) b += zptr[k];
        out[iter] = b;
    }
    print_int(out[3]);
    free(zptr);
    free(out);
    return 0;
}`)
	// Find the sites touching the heap block of zptr's alloc site.
	privateHeapSeen := false
	for site, origins := range res.Touched {
		for o := range origins {
			if o.Kind == OriginHeap && cls.Private(site) {
				privateHeapSeen = true
			}
		}
	}
	if !privateHeapSeen {
		t.Fatalf("no private heap accesses found; graph:\n%s", res.Graph)
	}
}

func TestAccumulatorIsShared(t *testing.T) {
	_, cls := classifyAll(t, `
int g;
int main() {
    int i;
    parallel for (i = 0; i < 8; i++) {
        g = g + i;
    }
    print_int(g);
    return 0;
}`)
	for _, c := range cls.Classes {
		if c.Private && !c.HasCarriedAntiOut {
			t.Fatalf("unexpected private class: %+v", c)
		}
	}
	// The accumulator's class must be shared via carried flow.
	foundCarriedFlow := false
	for _, c := range cls.Classes {
		if c.HasCarriedFlow && !c.Private {
			foundCarriedFlow = true
		}
	}
	if !foundCarriedFlow {
		t.Fatalf("accumulator not detected as carried flow")
	}
}

func TestUpwardsExposed(t *testing.T) {
	res, cls := classifyAll(t, `
int main() {
    int n = 8;
    int *in = (int*)malloc(n * 4);
    int *out = (int*)malloc(n * 4);
    int i;
    for (i = 0; i < n; i++) in[i] = i;
    parallel for (i = 0; i < n; i++) {
        out[i] = in[i] * 2;
    }
    print_int(out[5]);
    free(in);
    free(out);
    return 0;
}`)
	if len(res.Graph.UpwardExposed) == 0 {
		t.Fatalf("no upwards-exposed loads recorded:\n%s", res.Graph)
	}
	for site := range res.Graph.UpwardExposed {
		if cls.Private(site) {
			t.Fatalf("upwards-exposed site %d classified private", site)
		}
	}
}

func TestDownwardsExposed(t *testing.T) {
	res, _ := classifyAll(t, `
int main() {
    int n = 8;
    int *out = (int*)malloc(n * 4);
    int i;
    parallel for (i = 0; i < n; i++) {
        out[i] = i * 3;
    }
    long s = 0;
    for (i = 0; i < n; i++) s += out[i];
    print_long(s);
    free(out);
    return 0;
}`)
	if len(res.Graph.DownwardExposed) == 0 {
		t.Fatalf("no downwards-exposed stores recorded:\n%s", res.Graph)
	}
}

func TestScratchNotDownwardsExposed(t *testing.T) {
	// tmp is overwritten each iteration and never read after the loop:
	// it must be private even though out is downwards-exposed.
	res, cls := classifyAll(t, `
int main() {
    int n = 8;
    int *out = (int*)malloc(n * 4);
    int *tmp = (int*)malloc(4 * 4);
    int i;
    parallel for (i = 0; i < n; i++) {
        int k;
        for (k = 0; k < 4; k++) tmp[k] = i + k;
        out[i] = tmp[0] + tmp[3];
    }
    print_int(out[7]);
    free(tmp);
    free(out);
    return 0;
}`)
	// Identify tmp's heap origin: the private sites must include
	// accesses touching it.
	nPrivateHeap := 0
	for site, origins := range res.Touched {
		if !cls.Private(site) {
			continue
		}
		for o := range origins {
			if o.Kind == OriginHeap {
				nPrivateHeap++
			}
		}
	}
	if nPrivateHeap == 0 {
		t.Fatalf("tmp accesses not private:\n%s", res.Graph)
	}
}

func TestCarriedEdgesAcrossWhileInstances(t *testing.T) {
	// The parallel loop runs inside an enclosing sequential loop: each
	// instance must be profiled, and values flowing from one instance
	// to the next count as upward/downward exposure, not carried deps.
	res, _ := classifyAll(t, `
int main() {
    int n = 4;
    int *buf = (int*)malloc(n * 4);
    int r;
    int i;
    for (r = 0; r < 3; r++) {
        parallel for (i = 0; i < n; i++) {
            buf[i] = buf[i] + 1;
        }
    }
    print_int(buf[0]);
    free(buf);
    return 0;
}`)
	g := res.Graph
	// buf[i] reads the previous *instance*'s value: upward exposure.
	if len(g.UpwardExposed) == 0 {
		t.Fatalf("expected upwards exposure across instances:\n%s", g)
	}
	if len(g.DownwardExposed) == 0 {
		t.Fatalf("expected downwards exposure across instances:\n%s", g)
	}
	// No carried flow should be recorded on the heap buffer: each
	// instance writes before reading within the same iteration only.
	// (The induction variable itself does carry flow between
	// iterations; it is handled by the scheduler, not privatization.)
	heapSite := func(s int) bool {
		for o := range res.Touched[s] {
			if o.Kind == OriginHeap {
				return true
			}
		}
		return false
	}
	for _, e := range g.Edges() {
		if e.Kind == ddg.Flow && e.Carried && (heapSite(e.Src) || heapSite(e.Dst)) {
			t.Fatalf("unexpected carried flow edge %+v:\n%s", e, g)
		}
	}
}

func TestTouchedOrigins(t *testing.T) {
	res := profileFirst(t, `
int g;
int main() {
    int n = 4;
    int *h = (int*)malloc(n * 4);
    int i;
    parallel for (i = 0; i < n; i++) {
        h[i] = i;
        g = g + 1;
    }
    print_int(g + h[0]);
    free(h);
    return 0;
}`)
	var sawHeap, sawGlobal bool
	for _, origins := range res.Touched {
		for o := range origins {
			switch o.Kind {
			case OriginHeap:
				sawHeap = true
			case OriginGlobal:
				if o.Name == "g" {
					sawGlobal = true
				}
			}
		}
	}
	if !sawHeap || !sawGlobal {
		t.Fatalf("origins: heap=%v global=%v", sawHeap, sawGlobal)
	}
}

func TestIterationCount(t *testing.T) {
	res := profileFirst(t, `
int main() {
    int i;
    int a[16];
    parallel for (i = 0; i < 16; i++) { a[i] = i; }
    print_int(a[2]);
    return 0;
}`)
	// 16 body iterations + 1 failing condition check.
	if res.Iterations != 17 {
		t.Fatalf("iterations = %d, want 17", res.Iterations)
	}
}

func TestUnknownLoop(t *testing.T) {
	prog, info, _ := compile(t, `
int main() {
    int i;
    int a[4];
    parallel for (i = 0; i < 4; i++) { a[i] = i; }
    return 0;
}`)
	if _, err := Loop(prog, info, 999, interp.Options{}); err == nil {
		t.Fatalf("expected error for unknown loop")
	}
}

// TestMixedHistoryBytes pins edge counts when the bytes of one access
// were last touched by one site in different iterations. Byte j of x is
// stored, and byte j of y read, in iteration j. So the load of x and the
// store to y in iteration i depend on bytes j < i through carried
// edges, on byte i through loop-independent ones, and the load reads
// the bytes j > i from before the loop.
func TestMixedHistoryBytes(t *testing.T) {
	prog, info, loopID := compile(t, `
int x;
int y;
int main() {
    char *b = (char*)&x;
    char *c = (char*)&y;
    int i;
    int s = 0;
    parallel for (i = 0; i < 4; i++) {
        b[i] = 1;
        s = s + x + c[i];
        y = s;
    }
    print_int(s);
    return 0;
}`)
	res, err := Loop(prog, info, loopID, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	site := map[string]int{}
	for id, as := range info.Accesses {
		if !as.IsDef {
			site[fmt.Sprintf("%s %v", as.Text, as.IsStore)] = id
		}
	}
	bi, x, ci, y := site["b[i] true"], site["x false"], site["c[i] false"], site["y true"]
	g := res.Graph
	for _, c := range []struct {
		e    ddg.Edge
		want int64
	}{
		{ddg.Edge{Src: bi, Dst: x, Kind: ddg.Flow, Carried: true}, 0 + 1 + 2 + 3},
		{ddg.Edge{Src: bi, Dst: x, Kind: ddg.Flow}, 4},
		{ddg.Edge{Src: ci, Dst: y, Kind: ddg.Anti, Carried: true}, 0 + 1 + 2 + 3},
		{ddg.Edge{Src: ci, Dst: y, Kind: ddg.Anti}, 4},
		{ddg.Edge{Src: y, Dst: y, Kind: ddg.Output, Carried: true}, 3 * 4},
	} {
		if n := g.Count(c.e); n != c.want {
			t.Errorf("%+v counted %d times, want %d", c.e, n, c.want)
		}
	}
	if !g.UpwardExposed[x] {
		t.Errorf("load of x not upward-exposed; its high bytes come from before the loop")
	}
}
