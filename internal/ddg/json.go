package ddg

// JSON serialization of dependence graphs. The paper (§2) allows the
// loop-level dependence graph to come "either from the programmer, the
// compiler, or tools that perform data dependence profiling ... with
// programmer verification": this encoding is the interchange format —
// `gdsx profile -json` emits it, a programmer can inspect and edit it,
// and the Transform pipeline accepts it back in place of a fresh
// profiling run.

import (
	"encoding/json"
	"fmt"
	"sort"
)

// jsonGraph is the serialized form of a Graph.
type jsonGraph struct {
	Loop            int           `json:"loop"`
	Sites           map[int]int64 `json:"sites"`
	Defs            map[int]int64 `json:"defs,omitempty"`
	UpwardExposed   []int         `json:"upward_exposed,omitempty"`
	DownwardExposed []int         `json:"downward_exposed,omitempty"`
	Edges           []jsonEdge    `json:"edges"`
}

type jsonEdge struct {
	Src     int    `json:"src"`
	Dst     int    `json:"dst"`
	Kind    string `json:"kind"`
	Carried bool   `json:"carried"`
	Count   int64  `json:"count,omitempty"`
}

// MarshalJSON encodes the graph.
func (g *Graph) MarshalJSON() ([]byte, error) {
	jg := jsonGraph{
		Loop:  g.Loop,
		Sites: g.Sites,
		Defs:  g.Defs,
	}
	for s := range g.UpwardExposed {
		jg.UpwardExposed = append(jg.UpwardExposed, s)
	}
	for s := range g.DownwardExposed {
		jg.DownwardExposed = append(jg.DownwardExposed, s)
	}
	sort.Ints(jg.UpwardExposed)
	sort.Ints(jg.DownwardExposed)
	for _, e := range g.Edges() {
		jg.Edges = append(jg.Edges, jsonEdge{
			Src: e.Src, Dst: e.Dst, Kind: e.Kind.String(),
			Carried: e.Carried, Count: g.Count(e),
		})
	}
	return json.Marshal(jg)
}

// UnmarshalJSON decodes a graph (e.g. one edited by a programmer).
func (g *Graph) UnmarshalJSON(data []byte) error {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return err
	}
	*g = *NewGraph(jg.Loop)
	for s, n := range jg.Sites {
		g.Sites[s] = n
	}
	for s, n := range jg.Defs {
		g.Defs[s] = n
	}
	for _, s := range jg.UpwardExposed {
		g.UpwardExposed[s] = true
	}
	for _, s := range jg.DownwardExposed {
		g.DownwardExposed[s] = true
	}
	for _, e := range jg.Edges {
		var k DepKind
		switch e.Kind {
		case "flow":
			k = Flow
		case "anti":
			k = Anti
		case "output":
			k = Output
		default:
			return fmt.Errorf("ddg: unknown dependence kind %q", e.Kind)
		}
		count := e.Count
		if count <= 0 {
			count = 1
		}
		g.edges[Edge{Src: e.Src, Dst: e.Dst, Kind: k, Carried: e.Carried}] = count
	}
	return nil
}
