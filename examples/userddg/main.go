// Userddg: the paper's "graph from the programmer" workflow (§2). The
// dependence graph driving the expansion does not have to come from
// the profiler: this example profiles a loop, serializes the graph to
// JSON (the form `gdsx profile -json` prints for inspection), edits
// nothing — the programmer has "verified" it — and feeds it back
// through TransformOptions.Graphs. It then shows the flip side: a
// *wrong* graph (the programmer deletes the carried dependences of the
// shared accumulator) silently produces a differently-classified
// program, which is exactly why the paper pairs profiling with
// programmer verification.
//
//	go run ./examples/userddg
package main

import (
	"encoding/json"
	"fmt"
	"log"

	"gdsx"
	"gdsx/internal/ddg"
)

const src = `
int main() {
    int scratch[32];
    int *out = (int*)malloc(16 * 4);
    int it;
    parallel for (it = 0; it < 16; it++) {
        int k;
        for (k = 0; k < 32; k++) {
            scratch[k] = it * k;
        }
        int s = 0;
        for (k = 0; k < 32; k++) {
            s += scratch[k];
        }
        out[it] = s;
    }
    long total = 0;
    for (it = 0; it < 16; it++) { total += out[it]; }
    print_str("total = ");
    print_long(total);
    print_char('\n');
    free(out);
    return 0;
}
`

func main() {
	prog, err := gdsx.Compile("userddg.c", src)
	if err != nil {
		log.Fatal(err)
	}
	loopID := prog.ParallelLoops()[0]

	// Step 1: profile and serialize — what `gdsx profile -json` emits.
	pr, err := prog.ProfileLoop(loopID, gdsx.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	data, err := json.MarshalIndent(pr.Graph, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("profiled graph: %d sites, %d edges, %d bytes of JSON\n",
		len(pr.Graph.Sites), len(pr.Graph.Edges()), len(data))

	// Step 2: the programmer inspects the JSON (here: verifies it
	// unchanged) and the pipeline consumes it instead of re-profiling.
	var verified ddg.Graph
	if err := json.Unmarshal(data, &verified); err != nil {
		log.Fatal(err)
	}
	tr, err := gdsx.Transform(prog, gdsx.TransformOptions{
		Graphs: map[int]*ddg.Graph{loopID: &verified},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("expanded with the verified graph: %v\n", tr.Reports[0].Expanded)

	native, err := prog.Run(gdsx.RunOptions{Threads: 1})
	if err != nil {
		log.Fatal(err)
	}
	out, err := tr.Expanded.Run(gdsx.RunOptions{Threads: 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("8-thread output matches native: %v\n", out.Output == native.Output)

	// Step 3: what verification is for — a graph stripped of the
	// scratch buffer's carried dependences no longer justifies its
	// expansion (Definition 5 condition 3 fails), so the structure
	// stays shared.
	var tampered ddg.Graph
	if err := json.Unmarshal(data, &tampered); err != nil {
		log.Fatal(err)
	}
	clean := ddg.NewGraph(tampered.Loop)
	for s, n := range tampered.Sites {
		clean.Sites[s] = n
	}
	for s, n := range tampered.Defs {
		clean.Defs[s] = n
	}
	for s := range tampered.UpwardExposed {
		clean.UpwardExposed[s] = true
	}
	for s := range tampered.DownwardExposed {
		clean.DownwardExposed[s] = true
	}
	for _, e := range tampered.Edges() {
		if !e.Carried {
			clean.AddEdge(e.Src, e.Dst, e.Kind, e.Carried)
		}
	}
	tr2, err := gdsx.Transform(prog, gdsx.TransformOptions{
		Graphs: map[int]*ddg.Graph{loopID: clean},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("with carried edges deleted, expanded structures: %d (was %d) — "+
		"wrong graphs change the program, hence programmer verification\n",
		tr2.Reports[0].Structures, tr.Reports[0].Structures)
}
