// Quickstart: run the paper's Figure 1 program through the whole
// pipeline — profile the loop's data dependences, classify its accesses
// (Definition 5), expand the contentious buffer, and execute the
// transformed program with real parallel threads, checking that the
// output is unchanged.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"gdsx"
)

// The paper's Figure 1 pattern (extracted from SPEC CPU2000/bzip2): the
// zptr buffer is allocated once, then reinitialized and consumed by
// every iteration of the loop. The iterations are logically
// independent, but they all write the same buffer — a spurious
// dependence only privatization can remove.
const src = `
int main() {
    int m = 64;
    int *zptr = (int*)malloc(m * 4);
    int *out = (int*)malloc(50 * 4);
    int iter;
    parallel for (iter = 0; iter < 50; iter++) {
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
    for (iter = 0; iter < 50; iter++) {
        total += out[iter];
    }
    print_str("total = ");
    print_long(total);
    print_char('\n');
    free(zptr);
    free(out);
    return 0;
}
`

func main() {
	prog, err := gdsx.Compile("figure1.c", src)
	if err != nil {
		log.Fatal(err)
	}

	// 1. Native sequential run: the reference output.
	native, err := prog.Run(gdsx.RunOptions{Threads: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("native:      ", native.Output)

	// 2. Profile + classify the parallel loop.
	loopID := prog.ParallelLoops()[0]
	pr, cls, err := prog.ClassifyLoop(loopID, gdsx.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	private := 0
	for _, c := range cls.Classes {
		if c.Private {
			private++
		}
	}
	fmt.Printf("profiled %d iterations: %d access classes, %d thread-private\n",
		pr.Iterations, len(cls.Classes), private)

	// 3. Expand the data structures.
	tr, err := gdsx.Transform(prog, gdsx.TransformOptions{})
	if err != nil {
		log.Fatal(err)
	}
	rep := tr.Reports[0]
	fmt.Printf("expanded %d structure(s): %v\n", rep.Structures, rep.Expanded)
	fmt.Println("--- transformed source ---")
	fmt.Print(tr.Source)
	fmt.Println("--------------------------")

	// 4. Run the transformed program with real parallel threads.
	for _, n := range []int{1, 2, 4, 8} {
		res, err := tr.Expanded.Run(gdsx.RunOptions{Threads: n})
		if err != nil {
			log.Fatal(err)
		}
		match := "OK"
		if res.Output != native.Output {
			match = "MISMATCH"
		}
		fmt.Printf("%d threads:   %s(%s)\n", n, res.Output[:len(res.Output)-1]+" ", match)
	}
}
