// Histogram: a classic privatization pattern. Each iteration analyzes
// one image tile by building a brightness histogram in a shared scratch
// table, then derives the tile's contrast from it. The histogram is
// rewritten by every iteration — a spurious dependence that blocks
// parallelization until the table is expanded into per-thread copies.
//
//	go run ./examples/histogram
package main

import (
	"fmt"
	"log"
	"strings"

	"gdsx"
)

const src = `
int hist[64];

long seed;

int nextRand() {
    seed = seed * 1103515245 + 12345;
    return (int)((seed >> 16) & 32767);
}

int tileContrast(int tile) {
    int i;
    // Reset and rebuild the shared histogram for this tile.
    for (i = 0; i < 64; i++) {
        hist[i] = 0;
    }
    long s = tile * 2654435761 + 99;
    for (i = 0; i < 400; i++) {
        s = s * 6364136223846793005 + 1442695040888963407;
        int pix = (int)((s >> 40) & 63);
        hist[pix] = hist[pix] + 1;
    }
    // Contrast: spread between the darkest and brightest deciles.
    int lo = 0;
    int seen = 0;
    for (i = 0; i < 64 && seen < 40; i++) {
        seen += hist[i];
        lo = i;
    }
    int hi = 63;
    seen = 0;
    for (i = 63; i >= 0 && seen < 40; i--) {
        seen += hist[i];
        hi = i;
    }
    return hi - lo;
}

int main() {
    seed = 7;
    int *contrast = (int*)malloc(64 * 4);
    int t;
    parallel for (t = 0; t < 64; t++) {
        contrast[t] = tileContrast(t);
    }
    long out = 0;
    for (t = 0; t < 64; t++) {
        out = out * 31 + contrast[t];
    }
    print_str("contrast checksum = ");
    print_long(out);
    print_char('\n');
    free(contrast);
    return 0;
}
`

func main() {
	prog, err := gdsx.Compile("histogram.c", src)
	if err != nil {
		log.Fatal(err)
	}
	native, err := prog.Run(gdsx.RunOptions{Threads: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("native:    ", native.Output)

	tr, err := gdsx.Transform(prog, gdsx.TransformOptions{})
	if err != nil {
		log.Fatal(err)
	}
	out, err := tr.Expanded.Run(gdsx.RunOptions{Threads: 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("8 threads: ", out.Output)
	if out.Output != native.Output {
		log.Fatal("outputs differ!")
	}

	rep := tr.Reports[0]
	fmt.Printf("expanded: %v\n", rep.Expanded)
	// Show how the global histogram was converted to N adjacent copies.
	for _, line := range strings.Split(tr.Source, "\n") {
		if strings.Contains(line, "hist") && strings.Contains(line, "malloc") {
			fmt.Println("Table 1 global rule:", strings.TrimSpace(line))
		}
	}
}
