// Package ddg implements the loop-level data dependence graph of the
// paper's Definition 1, the exposed-access properties of Definitions
// 2–3, the access-class equivalence of Definition 4, and the
// thread-private classification of Definition 5. The graph is built by
// the dependence profiler (package profile) or by hand in tests, and
// consumed by the expansion pass.
package ddg

import (
	"fmt"
	"sort"
	"strings"
)

// DepKind is the kind of a data dependence.
type DepKind int

// Dependence kinds.
const (
	Flow   DepKind = iota // read after write
	Anti                  // write after read
	Output                // write after write
)

func (k DepKind) String() string {
	switch k {
	case Flow:
		return "flow"
	case Anti:
		return "anti"
	case Output:
		return "output"
	}
	return fmt.Sprintf("DepKind(%d)", int(k))
}

// Edge is a data dependence between two access sites. Carried
// distinguishes loop-carried from loop-independent dependences with
// respect to the graph's loop.
type Edge struct {
	Src, Dst int
	Kind     DepKind
	Carried  bool
}

// Graph is the loop-level data dependence graph of one loop
// (paper Definition 1).
type Graph struct {
	Loop  int
	edges map[Edge]int64 // edge -> dynamic occurrence count

	// Sites maps every access site executed inside the loop to its
	// dynamic execution count.
	Sites map[int]int64

	// Defs maps definition sites (declarations, allocations) executed
	// inside the loop to their execution count. They are kept separate
	// from Sites: they kill shadow history but are not memory accesses.
	Defs map[int]int64

	// UpwardExposed marks load sites whose value came from outside the
	// loop at least once (Definition 2). DownwardExposed marks store
	// sites whose value was read after the loop (Definition 3).
	UpwardExposed   map[int]bool
	DownwardExposed map[int]bool
}

// NewGraph creates an empty dependence graph for the given loop ID.
func NewGraph(loop int) *Graph {
	return &Graph{
		Loop:            loop,
		edges:           map[Edge]int64{},
		Sites:           map[int]int64{},
		Defs:            map[int]int64{},
		UpwardExposed:   map[int]bool{},
		DownwardExposed: map[int]bool{},
	}
}

// AddSite records one dynamic execution of an access site in the loop.
func (g *Graph) AddSite(site int) { g.Sites[site]++ }

// AddEdge records one dynamic occurrence of a dependence.
func (g *Graph) AddEdge(src, dst int, kind DepKind, carried bool) {
	g.AddEdgeN(src, dst, kind, carried, 1)
}

// AddEdgeN records n dynamic occurrences of a dependence at once, the
// way the profiler flushes a run of identical edges.
func (g *Graph) AddEdgeN(src, dst int, kind DepKind, carried bool, n int64) {
	g.edges[Edge{Src: src, Dst: dst, Kind: kind, Carried: carried}] += n
}

// Edges returns the distinct dependence edges in a deterministic order.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, len(g.edges))
	for e := range g.edges {
		es = append(es, e)
	}
	sort.Slice(es, func(i, j int) bool {
		a, b := es[i], es[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return !a.Carried && b.Carried
	})
	return es
}

// Count returns the dynamic occurrence count of an edge.
func (g *Graph) Count(e Edge) int64 { return g.edges[e] }

// HasEdge reports whether the dependence was observed during
// profiling. The guarded-execution monitor uses it to distinguish a
// profiled (and therefore synchronized or tolerated) conflict from a
// dependence the training input never exposed.
func (g *Graph) HasEdge(src, dst int, kind DepKind, carried bool) bool {
	return g.edges[Edge{Src: src, Dst: dst, Kind: kind, Carried: carried}] > 0
}

// HasCarried reports whether site participates (as either endpoint) in
// a loop-carried dependence of the given kind.
func (g *Graph) HasCarried(site int, kind DepKind) bool {
	for e := range g.edges {
		if e.Carried && e.Kind == kind && (e.Src == site || e.Dst == site) {
			return true
		}
	}
	return false
}

// String renders the graph for debugging.
func (g *Graph) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "loop %d: %d sites, %d edges\n", g.Loop, len(g.Sites), len(g.edges))
	for _, e := range g.Edges() {
		carried := "independent"
		if e.Carried {
			carried = "carried"
		}
		fmt.Fprintf(&sb, "  %d -> %d %s (%s) x%d\n", e.Src, e.Dst, e.Kind, carried, g.edges[e])
	}
	return sb.String()
}
