// Wordcount: a DOACROSS pipeline with an ordered commit. Each
// iteration tokenizes one chunk of a character stream using a shared
// scratch word-length table (privatized by expansion), then appends its
// counts to a running, order-sensitive digest — the residual
// loop-carried dependence around which the transformation places an
// ordered section, exactly like the paper's 256.bzip2 output stream.
//
//	go run ./examples/wordcount
package main

import (
	"fmt"
	"log"
	"strings"

	"gdsx"
)

const src = `
char text[4096];
int lenTab[32];

long seed;

int nextRand() {
    seed = seed * 1103515245 + 12345;
    return (int)((seed >> 16) & 32767);
}

void makeText() {
    seed = 2718;
    int i;
    for (i = 0; i < 4096; i++) {
        int r = nextRand() % 8;
        if (r == 0) {
            text[i] = ' ';
        } else {
            text[i] = (char)(97 + nextRand() % 26);
        }
    }
}

int countChunk(int chunk) {
    int base = chunk * 256;
    int i;
    for (i = 0; i < 32; i++) {
        lenTab[i] = 0;
    }
    int words = 0;
    int cur = 0;
    for (i = 0; i < 256; i++) {
        if (text[base + i] == ' ') {
            if (cur > 0) {
                if (cur > 31) { cur = 31; }
                lenTab[cur] = lenTab[cur] + 1;
                words++;
                cur = 0;
            }
        } else {
            cur++;
        }
    }
    if (cur > 0) {
        words++;
    }
    int weighted = 0;
    for (i = 0; i < 32; i++) {
        weighted += lenTab[i] * i;
    }
    return words * 1000 + weighted;
}

int main() {
    makeText();
    long digest = 0;
    int chunk;
    parallel doacross for (chunk = 0; chunk < 16; chunk++) {
        int c = countChunk(chunk);
        // Ordered commit: the digest depends on chunk order.
        digest = digest * 1000003 + c;
    }
    print_str("digest = ");
    print_long(digest);
    print_char('\n');
    return 0;
}
`

func main() {
	prog, err := gdsx.Compile("wordcount.c", src)
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
	rep := tr.Reports[0]
	fmt.Printf("expanded %v; ordered section placed: %v\n", rep.Expanded, len(rep.SyncPlaced) > 0)

	// The ordered section must cover only the digest update, leaving
	// countChunk to run in parallel.
	if i := strings.Index(tr.Source, "__sync_wait"); i >= 0 {
		j := strings.Index(tr.Source, "__sync_post")
		fmt.Println("--- ordered section ---")
		fmt.Println(strings.TrimSpace(tr.Source[i : j+14]))
		fmt.Println("-----------------------")
	}

	for _, n := range []int{2, 8} {
		res, err := tr.Expanded.Run(gdsx.RunOptions{Threads: n})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%d threads: %s", n, res.Output)
		if res.Output != native.Output {
			log.Fatal("ordered output diverged!")
		}
	}
	fmt.Println("order preserved at every thread count")
}
