package gdsx

// End-to-end property test: randomly generated programs in the paper's
// privatization pattern (scratch structures rewritten and consumed by
// every iteration) must transform cleanly and produce output identical
// to native execution at every thread count. The generator draws the
// scratch structures from the dimensions the paper's Table 1 spans —
// global scalar/array, outer local scalar/array, heap buffer with
// constant or runtime size, optionally recast to short — under both
// DOALL and ordered DOACROSS loops.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

type genProgram struct {
	decls    []string
	funcs    []string
	init     []string
	writes   []string
	reads    []string
	frees    []string
	doacross bool
	useCtx   bool
	useMk    bool
}

func genSource(rng *rand.Rand) string {
	g := &genProgram{doacross: rng.Intn(2) == 0}
	nStruct := 1 + rng.Intn(3)
	for s := 0; s < nStruct; s++ {
		size := 8 + rng.Intn(24)
		name := fmt.Sprintf("scr%d", s)
		switch rng.Intn(8) {
		case 0: // global array
			g.decls = append(g.decls, fmt.Sprintf("int %s[%d];", name, size))
		case 1: // outer local array
			g.init = append(g.init, fmt.Sprintf("int %s[%d];", name, size))
		case 2: // heap buffer, constant size
			g.init = append(g.init, fmt.Sprintf("int *%s = (int*)malloc(%d);", name, size*4))
			g.frees = append(g.frees, fmt.Sprintf("free(%s);", name))
		case 3: // heap buffer, runtime size (forces fat-pointer spans)
			g.init = append(g.init, fmt.Sprintf("int %s_n = %d + dyn();", name, size))
			g.init = append(g.init, fmt.Sprintf("int *%s = (int*)malloc(%s_n * 4);", name, name))
			g.frees = append(g.frees, fmt.Sprintf("free(%s);", name))
		case 4: // global scalar accumulator reset each iteration
			g.decls = append(g.decls, fmt.Sprintf("int %s;", name))
			g.writes = append(g.writes, fmt.Sprintf("%s = it;", name))
			g.reads = append(g.reads, fmt.Sprintf("acc += %s;", name))
			continue
		case 5: // pointer held in a struct field (field promotion)
			if !g.useCtx {
				g.useCtx = true
				g.decls = append(g.decls, "struct ctx { int id; int *data; };")
			}
			cname := fmt.Sprintf("c%d", s)
			g.init = append(g.init,
				fmt.Sprintf("struct ctx %s;", cname),
				fmt.Sprintf("%s.data = (int*)malloc((%d + dyn()) * 4);", cname, size))
			g.writes = append(g.writes, fmt.Sprintf(
				"for (k = 0; k < %d; k++) { %s.data[k] = it + k * %d; }", size, cname, s+1))
			g.reads = append(g.reads, fmt.Sprintf(
				"for (k = 0; k < %d; k++) { acc += %s.data[k]; }", size, cname))
			g.frees = append(g.frees, fmt.Sprintf("free(%s.data);", cname))
			continue
		case 6: // buffer from a pointer-returning function (return promotion)
			if !g.useMk {
				g.useMk = true
				g.funcs = append(g.funcs,
					"int *mkbuf(int c, int n) { if (c > 0) { return (int*)malloc(n * 4); } return (int*)malloc(n * 8); }")
			}
			g.init = append(g.init, fmt.Sprintf("int *%s = mkbuf(%d, %d + dyn());", name, rng.Intn(2), size))
			g.frees = append(g.frees, fmt.Sprintf("free(%s);", name))
		case 7: // conditional selection between two buffers
			g.init = append(g.init,
				fmt.Sprintf("int *%sa = (int*)malloc((%d + dyn()) * 4);", name, size),
				fmt.Sprintf("int *%sb = (int*)malloc((%d + dyn()) * 8);", name, size))
			g.writes = append(g.writes, fmt.Sprintf(
				"{ int *sel%d = it %% 2 ? %sa : %sb; for (k = 0; k < %d; k++) { sel%d[k] = it - k; } "+
					"for (k = 0; k < %d; k++) { acc += sel%d[k]; } }",
				s, name, name, size, s, size, s))
			g.frees = append(g.frees,
				fmt.Sprintf("free(%sa);", name), fmt.Sprintf("free(%sb);", name))
			continue
		}
		if rng.Intn(3) == 0 {
			// Pointer-walk write (p = p + 1): exercises span
			// dead-store elimination under promotion.
			g.writes = append(g.writes, fmt.Sprintf(
				"{ int *w%d = %s; for (k = 0; k < %d; k++) { *w%d = it * %d + k; w%d = w%d + 1; } }",
				s, name, size, s, s+1, s, s))
		} else {
			g.writes = append(g.writes, fmt.Sprintf(
				"for (k = 0; k < %d; k++) { %s[k] = it * %d + k; }", size, name, s+1))
		}
		if rng.Intn(4) == 0 {
			// Recast consumption (the bzip2 pattern).
			g.init = append(g.init, "")
			g.writes = append(g.writes, fmt.Sprintf(
				"{ short *sp%d = (short*)%s; for (k = 0; k < %d; k++) { acc += sp%d[k]; } }",
				s, name, size*2, s))
		}
		g.reads = append(g.reads, fmt.Sprintf(
			"for (k = 0; k < %d; k++) { acc += %s[k]; }", size, name))
	}

	iters := 6 + rng.Intn(10)
	var sb strings.Builder
	sb.WriteString("int dyn() { return 3; }\n")
	for _, d := range g.decls {
		sb.WriteString(d + "\n")
	}
	for _, f := range g.funcs {
		sb.WriteString(f + "\n")
	}
	sb.WriteString("int main() {\n")
	for _, s := range g.init {
		if s != "" {
			sb.WriteString("    " + s + "\n")
		}
	}
	fmt.Fprintf(&sb, "    int *out = (int*)malloc(%d * 4);\n", iters)
	sb.WriteString("    long chain = 0;\n    int it;\n")
	kind := "parallel for"
	if g.doacross {
		kind = "parallel doacross for"
	}
	fmt.Fprintf(&sb, "    %s (it = 0; it < %d; it++) {\n", kind, iters)
	sb.WriteString("        int k;\n        int acc = 0;\n")
	for _, w := range g.writes {
		sb.WriteString("        " + w + "\n")
	}
	for _, r := range g.reads {
		sb.WriteString("        " + r + "\n")
	}
	sb.WriteString("        out[it] = acc;\n")
	if g.doacross {
		sb.WriteString("        chain = chain * 31 + acc;\n")
	}
	sb.WriteString("    }\n")
	fmt.Fprintf(&sb, "    long total = chain;\n    for (it = 0; it < %d; it++) { total = total * 7 + out[it]; }\n", iters)
	sb.WriteString("    print_long(total);\n    print_char('\\n');\n")
	for _, f := range g.frees {
		sb.WriteString("    " + f + "\n")
	}
	sb.WriteString("    free(out);\n    return 0;\n}\n")
	return sb.String()
}

func TestRandomProgramsSurviveExpansion(t *testing.T) {
	if testing.Short() {
		t.Skip("property test is not short")
	}
	const cases = 40
	for seed := int64(0); seed < cases; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			src := genSource(rng)
			prog, err := Compile("gen.c", src)
			if err != nil {
				t.Fatalf("compile generated program: %v\n%s", err, src)
			}
			native, err := prog.Run(RunOptions{Threads: 1})
			if err != nil {
				t.Fatalf("native: %v\n%s", err, src)
			}
			tr, err := Transform(prog, TransformOptions{})
			if err != nil {
				t.Fatalf("transform: %v\n%s", err, src)
			}
			for _, n := range []int{1, 3, 8} {
				got, err := tr.Expanded.Run(RunOptions{Threads: n})
				if err != nil {
					t.Fatalf("N=%d: %v\n--- generated ---\n%s\n--- transformed ---\n%s",
						n, err, src, tr.Source)
				}
				if got.Output != native.Output {
					t.Fatalf("N=%d: output %q != native %q\n--- generated ---\n%s\n--- transformed ---\n%s",
						n, got.Output, native.Output, src, tr.Source)
				}
			}
		})
	}
}
