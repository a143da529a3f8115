// Dijkstra: the MiBench benchmark from the paper's introduction.
// Conceptually ten shortest-path queries can run in parallel, but the
// per-query distance arrays and the priority queue must first be
// privatized — the exact motivating example of the paper (§2). This
// example transforms the benchmark, runs it at several thread counts,
// and reports the simulated speedup of the parallel loop.
//
//	go run ./examples/dijkstra
package main

import (
	"fmt"
	"log"

	"gdsx"
	"gdsx/internal/schedule"
	"gdsx/internal/workloads"
)

func main() {
	w := workloads.ByName("dijkstra")
	src := w.Source(workloads.ProfileScale)

	prog, err := gdsx.Compile("dijkstra.c", src)
	if err != nil {
		log.Fatal(err)
	}
	native, err := prog.Run(gdsx.RunOptions{Threads: 1, Trace: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("native: ", native.Output)

	tr, err := gdsx.Transform(prog, gdsx.TransformOptions{})
	if err != nil {
		log.Fatal(err)
	}
	rep := tr.Reports[0]
	fmt.Printf("privatized %d structures (%v); ordered sections in loops %v\n",
		rep.Structures, rep.Expanded, rep.SyncPlaced)

	// Real parallel execution must reproduce the output.
	for _, n := range []int{2, 4, 8} {
		res, err := tr.Expanded.Run(gdsx.RunOptions{Threads: n})
		if err != nil {
			log.Fatal(err)
		}
		if res.Output != native.Output {
			log.Fatalf("%d threads: output mismatch", n)
		}
	}
	fmt.Println("parallel outputs match at 2, 4 and 8 threads")

	// Simulated speedups from one traced run.
	traced, err := tr.Expanded.Run(gdsx.RunOptions{Threads: 8, Trace: true})
	if err != nil {
		log.Fatal(err)
	}
	model := schedule.DefaultModel()
	base := schedule.SequentialTime(native)
	fmt.Println("simulated whole-program speedup:")
	for _, n := range []int{1, 2, 4, 8} {
		t, _, _, err := schedule.ProgramTime(traced, n, model)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %d threads: %.2fx\n", n, float64(base)/float64(t))
	}
}
