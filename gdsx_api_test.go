package gdsx

import (
	"encoding/json"
	"strings"
	"testing"

	"gdsx/internal/ddg"
)

func TestCompileErrors(t *testing.T) {
	if _, err := Compile("x.c", "int main( {"); err == nil {
		t.Fatal("parse error not reported")
	}
	if _, err := Compile("x.c", "int main() { return nope; }"); err == nil ||
		!strings.Contains(err.Error(), "undefined") {
		t.Fatalf("sema error not reported: %v", err)
	}
}

func TestParallelLoopsOrdering(t *testing.T) {
	prog, err := Compile("x.c", `
int main() {
    int i;
    int a[4];
    int b[4];
    for (i = 0; i < 4; i++) { a[i] = i; }
    parallel for (i = 0; i < 4; i++) { a[i] = i; }
    parallel doacross for (i = 0; i < 4; i++) { b[i] = i; }
    return a[0] + b[0];
}`)
	if err != nil {
		t.Fatal(err)
	}
	ids := prog.ParallelLoops()
	if len(ids) != 2 || ids[0] >= ids[1] {
		t.Fatalf("ParallelLoops = %v", ids)
	}
	if _, err := prog.Loop(ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Loop(9999); err == nil {
		t.Fatal("Loop(9999) should fail")
	}
}

func TestPrintReparses(t *testing.T) {
	prog, err := Compile("x.c", zptrSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile("x2.c", prog.Print()); err != nil {
		t.Fatalf("printed program does not recompile: %v", err)
	}
}

func TestTransformRejectsSequentialProgram(t *testing.T) {
	prog, err := Compile("x.c", "int main() { return 0; }")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Transform(prog, TransformOptions{}); err == nil {
		t.Fatal("transform of loop-free program should fail")
	}
}

func TestTransformDoesNotMutateInput(t *testing.T) {
	prog, err := Compile("x.c", zptrSrc)
	if err != nil {
		t.Fatal(err)
	}
	before := prog.Print()
	if _, err := Transform(prog, TransformOptions{}); err != nil {
		t.Fatal(err)
	}
	if prog.Print() != before {
		t.Fatal("Transform mutated the input program")
	}
	// And the original still runs.
	if _, err := prog.Run(RunOptions{Threads: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestProfileSourceMismatchDetected(t *testing.T) {
	prog, err := Compile("x.c", zptrSrc)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Transform(prog, TransformOptions{
		ProfileSource: "int main() { return 0; }",
	})
	if err == nil || !strings.Contains(err.Error(), "structurally identical") {
		t.Fatalf("mismatched profile input not detected: %v", err)
	}
}

// runSource compiles and runs a MiniC source in one step.
func runSource(file, src string, opts RunOptions) (Result, error) {
	prog, err := Compile(file, src)
	if err != nil {
		return Result{}, err
	}
	return prog.Run(opts)
}

func TestRunExitAndOutput(t *testing.T) {
	res, err := runSource("x.c", `
int main() {
    print_str("hi");
    return 3;
}`, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exit != 3 || res.Output != "hi" {
		t.Fatalf("res = %+v", res)
	}
}

// The paper's "graph from the programmer" path (§2): a profiled graph
// serialized to JSON, round-tripped (as a programmer would inspect and
// edit it), and fed back through TransformOptions.Graphs must produce
// the same transformed program as direct profiling.
func TestUserSuppliedGraph(t *testing.T) {
	prog, err := Compile("zptr.c", zptrSrc)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Transform(prog, TransformOptions{})
	if err != nil {
		t.Fatal(err)
	}

	loopID := prog.ParallelLoops()[0]
	pr, err := prog.ProfileLoop(loopID, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(pr.Graph)
	if err != nil {
		t.Fatal(err)
	}
	var back ddg.Graph
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}

	viaUser, err := Transform(prog, TransformOptions{Graphs: map[int]*ddg.Graph{loopID: &back}})
	if err != nil {
		t.Fatal(err)
	}
	if viaUser.Source != direct.Source {
		t.Fatalf("user-supplied graph produced a different program:\n--- direct ---\n%s\n--- user ---\n%s",
			direct.Source, viaUser.Source)
	}
}
