package gdsx_test

import (
	"fmt"
	"log"

	"gdsx"
)

// The paper's running pattern: a buffer rewritten by every iteration of
// a parallelizable loop.
const exampleSrc = `
int main() {
    int *buf = (int*)malloc(16 * 4);
    int *out = (int*)malloc(8 * 4);
    int it;
    parallel for (it = 0; it < 8; it++) {
        int k;
        for (k = 0; k < 16; k++) { buf[k] = it + k; }
        int s = 0;
        for (k = 0; k < 16; k++) { s += buf[k]; }
        out[it] = s;
    }
    long total = 0;
    for (it = 0; it < 8; it++) { total += out[it]; }
    print_long(total);
    free(buf);
    free(out);
    return 0;
}
`

func ExampleCompile() {
	prog, err := gdsx.Compile("example.c", exampleSrc)
	if err != nil {
		log.Fatal(err)
	}
	res, err := prog.Run(gdsx.RunOptions{Threads: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Output)
	// Output: 1408
}

func ExampleTransform() {
	prog, err := gdsx.Compile("example.c", exampleSrc)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := gdsx.Transform(prog, gdsx.TransformOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("expanded %d structure(s)\n", tr.Reports[0].Structures)

	// The transformed program runs with real threads and produces the
	// same output.
	out, err := tr.Expanded.Run(gdsx.RunOptions{Threads: 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(out.Output)
	// Output:
	// expanded 1 structure(s)
	// 1408
}

func ExampleProgram_ClassifyLoop() {
	prog, err := gdsx.Compile("example.c", exampleSrc)
	if err != nil {
		log.Fatal(err)
	}
	loopID := prog.ParallelLoops()[0]
	_, cls, err := prog.ClassifyLoop(loopID, gdsx.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	private := 0
	for _, c := range cls.Classes {
		if c.Private {
			private++
		}
	}
	fmt.Printf("%d thread-private class(es)\n", private)
	// Output: 1 thread-private class(es)
}
