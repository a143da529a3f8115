package ddg

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestClassifyPrivate(t *testing.T) {
	// Site 1 stores, site 2 loads the same location in each iteration:
	// independent flow 1->2, carried anti 2->1, carried output 1->1.
	g := NewGraph(1)
	g.AddSite(1)
	g.AddSite(2)
	g.AddEdge(1, 2, Flow, false)
	g.AddEdge(2, 1, Anti, true)
	g.AddEdge(1, 1, Output, true)
	cls := Classify(g, DefaultOptions())
	if len(cls.Classes) != 1 {
		t.Fatalf("classes = %d, want 1", len(cls.Classes))
	}
	if !cls.Private(1) || !cls.Private(2) {
		t.Fatalf("sites not private: %+v", cls.Classes[0])
	}
}

func TestClassifyCarriedFlowBlocks(t *testing.T) {
	g := NewGraph(1)
	g.AddSite(1)
	g.AddSite(2)
	g.AddEdge(1, 2, Flow, true) // accumulator pattern
	g.AddEdge(1, 1, Output, true)
	cls := Classify(g, DefaultOptions())
	if cls.Private(1) || cls.Private(2) {
		t.Fatalf("carried flow must block privatization")
	}
}

func TestClassifyUpwardExposedBlocks(t *testing.T) {
	g := NewGraph(1)
	g.AddSite(1)
	g.AddSite(2)
	g.AddEdge(1, 2, Flow, false)
	g.AddEdge(2, 1, Anti, true)
	g.UpwardExposed[2] = true
	cls := Classify(g, DefaultOptions())
	if cls.Private(1) {
		t.Fatalf("upwards-exposed load must block privatization")
	}
}

func TestClassifyDownwardExposedBlocks(t *testing.T) {
	g := NewGraph(1)
	g.AddSite(1)
	g.AddEdge(1, 1, Output, true)
	g.DownwardExposed[1] = true
	cls := Classify(g, DefaultOptions())
	if cls.Private(1) {
		t.Fatalf("downwards-exposed store must block privatization")
	}
}

func TestClassifyNeedsCarriedAntiOrOutput(t *testing.T) {
	// Loop-independent flow only: no dependence to remove, so under
	// Definition 5 the class stays shared...
	g := NewGraph(1)
	g.AddSite(1)
	g.AddSite(2)
	g.AddEdge(1, 2, Flow, false)
	cls := Classify(g, DefaultOptions())
	if cls.Private(1) {
		t.Fatalf("class without carried anti/output must stay shared by default")
	}
	// ... but the relaxed option (paper's noted relaxation) privatizes it.
	relaxed := Classify(g, Options{RequireCarriedAntiOrOutput: false})
	if !relaxed.Private(1) {
		t.Fatalf("relaxed option should privatize")
	}
}

// TestEquivalenceTransitivity reproduces the paper's L1–L4 example: a
// conditional alias chains two accesses into one class, so the whole
// class is classified together.
func TestEquivalenceTransitivity(t *testing.T) {
	g := NewGraph(1)
	for s := 1; s <= 4; s++ {
		g.AddSite(s)
	}
	g.AddEdge(1, 2, Flow, false) // *p store -> *p load (same iteration)
	g.AddEdge(2, 3, Anti, false) // *p load -> a[i] store
	g.AddEdge(3, 3, Output, true)
	g.UpwardExposed[4] = true // unrelated shared access
	cls := Classify(g, DefaultOptions())
	c1 := cls.ClassOf(1)
	if c1 == nil || len(c1.Sites) != 3 {
		t.Fatalf("sites 1,2,3 must share a class, got %+v", c1)
	}
	if cls.ClassOf(4) == c1 {
		t.Fatalf("site 4 must be in its own class")
	}
}

func TestClassifyPartition(t *testing.T) {
	// Property: classes partition the sites regardless of how edges
	// arrived.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := NewGraph(1)
		n := 2 + rng.Intn(20)
		for s := 1; s <= n; s++ {
			g.AddSite(s)
		}
		for i := 0; i < n*2; i++ {
			src := 1 + rng.Intn(n)
			dst := 1 + rng.Intn(n)
			g.AddEdge(src, dst, DepKind(rng.Intn(3)), rng.Intn(2) == 0)
		}
		cls := Classify(g, DefaultOptions())
		seen := map[int]bool{}
		total := 0
		for _, c := range cls.Classes {
			for _, s := range c.Sites {
				if seen[s] {
					return false
				}
				seen[s] = true
				if cls.ClassOf(s) != c {
					return false
				}
				total++
			}
		}
		return total == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClassifyOrderInvariant(t *testing.T) {
	// Property: inserting the same edges in a different order yields
	// the same private-site set.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		type edge struct {
			src, dst int
			kind     DepKind
			carried  bool
		}
		var edges []edge
		for i := 0; i < n*2; i++ {
			edges = append(edges, edge{
				1 + rng.Intn(n), 1 + rng.Intn(n),
				DepKind(rng.Intn(3)), rng.Intn(2) == 0,
			})
		}
		build := func(perm []int) map[int]bool {
			g := NewGraph(1)
			for s := 1; s <= n; s++ {
				g.AddSite(s)
			}
			for _, i := range perm {
				e := edges[i]
				g.AddEdge(e.src, e.dst, e.kind, e.carried)
			}
			cls := Classify(g, DefaultOptions())
			out := map[int]bool{}
			for s := 1; s <= n; s++ {
				out[s] = cls.Private(s)
			}
			return out
		}
		fwd := make([]int, len(edges))
		for i := range fwd {
			fwd[i] = i
		}
		rev := rng.Perm(len(edges))
		a, b := build(fwd), build(rev)
		for s := 1; s <= n; s++ {
			if a[s] != b[s] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBreakdown(t *testing.T) {
	g := NewGraph(1)
	for i := 0; i < 10; i++ {
		g.AddSite(1) // private (carried anti)
	}
	for i := 0; i < 5; i++ {
		g.AddSite(2) // carried flow -> "with carried dep"
	}
	for i := 0; i < 3; i++ {
		g.AddSite(3) // no deps at all -> free
	}
	g.AddEdge(1, 1, Anti, true)
	g.AddEdge(2, 2, Flow, true)
	cls := Classify(g, DefaultOptions())
	b := BreakdownOf(g, cls)
	if b.Expandable != 10 || b.Carried != 5 || b.Free != 3 || b.Total != 18 {
		t.Fatalf("breakdown = %+v", b)
	}
}

func TestEdgesDeterministic(t *testing.T) {
	g := NewGraph(7)
	g.AddEdge(3, 1, Flow, true)
	g.AddEdge(1, 2, Anti, false)
	g.AddEdge(1, 2, Flow, false)
	es := g.Edges()
	if len(es) != 3 || es[0].Src != 1 || es[2].Src != 3 {
		t.Fatalf("edges = %+v", es)
	}
	if g.Count(es[0]) != 1 {
		t.Fatalf("count = %d", g.Count(es[0]))
	}
}

func TestAddEdgeNCounts(t *testing.T) {
	g := NewGraph(1)
	g.AddEdgeN(4, 5, Output, true, 6)
	g.AddEdge(4, 5, Output, true)
	g.AddEdgeN(4, 5, Output, false, 2)
	if n := g.Count(Edge{Src: 4, Dst: 5, Kind: Output, Carried: true}); n != 7 {
		t.Errorf("carried count = %d, want 7", n)
	}
	if n := g.Count(Edge{Src: 4, Dst: 5, Kind: Output}); n != 2 {
		t.Errorf("independent count = %d, want 2", n)
	}
}

func TestJSONExposedSorted(t *testing.T) {
	g := NewGraph(1)
	for _, s := range []int{9, 2, 7, 4, 1, 8} {
		g.UpwardExposed[s] = true
		g.DownwardExposed[s+10] = true
	}
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	want := `"upward_exposed":[1,2,4,7,8,9],"downward_exposed":[11,12,14,17,18,19]`
	if !strings.Contains(string(data), want) {
		t.Errorf("JSON %s does not list the exposed sites in order", data)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := NewGraph(3)
	g.AddSite(1)
	g.AddSite(2)
	g.Defs[9] = 4
	g.AddEdge(1, 2, Flow, false)
	g.AddEdge(2, 1, Anti, true)
	g.AddEdge(1, 1, Output, true)
	g.UpwardExposed[2] = true
	g.DownwardExposed[1] = true

	data, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Graph
	if err := back.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if back.Loop != 3 || len(back.Sites) != 2 || back.Defs[9] != 4 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if !back.UpwardExposed[2] || !back.DownwardExposed[1] {
		t.Fatalf("exposure lost")
	}
	a := Classify(g, DefaultOptions())
	b := Classify(&back, DefaultOptions())
	for s := 1; s <= 2; s++ {
		if a.Private(s) != b.Private(s) {
			t.Fatalf("classification changed after round trip (site %d)", s)
		}
	}
}

func TestJSONBadKind(t *testing.T) {
	var g Graph
	err := g.UnmarshalJSON([]byte(`{"loop":1,"sites":{},"edges":[{"src":1,"dst":2,"kind":"bogus"}]}`))
	if err == nil {
		t.Fatal("bad kind accepted")
	}
}
