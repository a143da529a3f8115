package expand

import (
	"strings"
	"testing"

	"gdsx/internal/alias"
	"gdsx/internal/ast"
	"gdsx/internal/ddg"
	"gdsx/internal/interp"
	"gdsx/internal/parser"
	"gdsx/internal/profile"
	"gdsx/internal/sema"
)

// TestOrderedSectionCoversClassReads expands a DOACROSS loop whose
// carried value is read again after its update. The profiler keeps
// only the latest reader of each byte, so the second read shows only a
// loop-independent flow edge; it shares the update's access class, and
// the ordered section must end after it, or iteration i can read
// iteration i+1's value.
func TestOrderedSectionCoversClassReads(t *testing.T) {
	const src = `
int a[64];
int out[64];
int main() {
    int i;
    int chain = 0;
    for (i = 0; i < 64; i++) {
        a[i] = i * 7 + 3;
    }
    parallel doacross for (i = 0; i < 64; i++) {
        chain = chain * 31 + a[i];
        out[i] = chain;
    }
    print_int(out[63]);
    return 0;
}`
	prog, err := parser.Parse("chain.c", src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	var loop int
	for id, l := range info.Loops {
		if l.Par == ast.DOACROSS {
			loop = id
		}
	}
	pr, err := profile.Loop(prog, info, loop, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	la := LoopAnalysis{ID: loop, Graph: pr.Graph, Class: ddg.Classify(pr.Graph, ddg.DefaultOptions())}
	rep, err := Expand(Input{Prog: prog, Info: info, Loops: []LoopAnalysis{la}, Alias: alias.Analyze(prog, info)}, Optimized())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.SyncPlaced) != 1 {
		t.Fatalf("ordered sections in loops %v, want one", rep.SyncPlaced)
	}
	var body []string
	for _, line := range strings.Split(ast.Print(prog), "\n") {
		switch s := strings.TrimSpace(line); s {
		case "__sync_wait();", "chain = chain * 31 + a[i];", "out[i] = chain;", "__sync_post();":
			body = append(body, s)
		}
	}
	want := []string{"__sync_wait();", "chain = chain * 31 + a[i];", "out[i] = chain;", "__sync_post();"}
	if strings.Join(body, " ") != strings.Join(want, " ") {
		t.Fatalf("loop body in order %q, want %q", body, want)
	}
}
