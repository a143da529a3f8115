package profile

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"gdsx/internal/ast"
	"gdsx/internal/interp"
	"gdsx/internal/parser"
	"gdsx/internal/sema"
	"gdsx/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from the current profiler")

const goldenPath = "testdata/golden.txt"

// goldenInputs are the programs whose every parallel loop the golden
// dump profiles: the eight Table-4 workloads and both inputs of each
// adversarial pair, all at test scale.
func goldenInputs() [][2]string {
	var in [][2]string
	for _, w := range workloads.All() {
		in = append(in, [2]string{w.Name, w.Source(workloads.Test)})
	}
	for _, a := range workloads.AdversarialAll() {
		in = append(in,
			[2]string{a.Name + "/train", a.Profile(workloads.Test)},
			[2]string{a.Name + "/expose", a.Expose(workloads.Test)})
	}
	return in
}

// dumpResult renders everything a profile reports in a fixed order:
// iterations, memory operations, site and definition counts, exposed
// sets, edges with counts and the origins each site touched.
func dumpResult(sb *strings.Builder, name string, loop int, r *Result) {
	g := r.Graph
	fmt.Fprintf(sb, "== %s loop %d\n", name, loop)
	fmt.Fprintf(sb, "iterations %d\nmemops %d\n", r.Iterations, r.Run.MemOps)
	for _, s := range sortedKeys(g.Sites) {
		fmt.Fprintf(sb, "site %d %d\n", s, g.Sites[s])
	}
	for _, s := range sortedKeys(g.Defs) {
		fmt.Fprintf(sb, "def %d %d\n", s, g.Defs[s])
	}
	for _, s := range sortedKeys(g.UpwardExposed) {
		fmt.Fprintf(sb, "up %d %v\n", s, g.UpwardExposed[s])
	}
	for _, s := range sortedKeys(g.DownwardExposed) {
		fmt.Fprintf(sb, "down %d %v\n", s, g.DownwardExposed[s])
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(sb, "edge %d %d %s %v %d\n", e.Src, e.Dst, e.Kind, e.Carried, g.Count(e))
	}
	for _, s := range sortedKeys(r.Touched) {
		var names []string
		for o, ok := range r.Touched[s] {
			names = append(names, fmt.Sprintf("%s=%v", o, ok))
		}
		sort.Strings(names)
		fmt.Fprintf(sb, "touched %d %s\n", s, strings.Join(names, " "))
	}
}

func sortedKeys[V any](m map[int]V) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}

// TestGoldenProfiles pins the profiler's complete output on every
// parallel loop of the workload programs. Regenerate with
// `go test ./internal/profile -run TestGoldenProfiles -update` only when
// a change is meant to alter what the profiler observes.
func TestGoldenProfiles(t *testing.T) {
	var sb strings.Builder
	for _, in := range goldenInputs() {
		prog, err := parser.Parse(in[0]+".c", in[1])
		if err != nil {
			t.Fatalf("%s: %v", in[0], err)
		}
		info, err := sema.Check(prog)
		if err != nil {
			t.Fatalf("%s: %v", in[0], err)
		}
		for _, id := range parallelLoops(info) {
			r, err := Loop(prog, info, id, interp.Options{})
			if err != nil {
				t.Fatalf("%s loop %d: %v", in[0], id, err)
			}
			dumpResult(&sb, in[0], id, r)
		}
	}
	got := sb.String()
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	section := ""
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if strings.HasPrefix(w, "== ") {
			section = w
		}
		if g != w {
			t.Fatalf("profile differs from %s in %q at line %d:\n got: %s\nwant: %s", goldenPath, section, i+1, g, w)
		}
	}
}

// parallelLoops returns the parallel loop IDs of a checked program in
// ascending order.
func parallelLoops(info *sema.Info) []int {
	var ids []int
	for id, l := range info.Loops {
		if l.Par != ast.Sequential {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}
