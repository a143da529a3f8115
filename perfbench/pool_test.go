package main

import (
	"encoding/json"
	"flag"
	"os"
	"testing"

	"gdsx"
	"gdsx/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/references.json from native runs")

// TestReferences checks that the checked-in references are the native
// sequential outputs of the pool at both scales; -update rewrites them.
func TestReferences(t *testing.T) {
	got := map[string]string{}
	for _, p := range pool() {
		for _, s := range []workloads.Scale{workloads.Test, workloads.ProfileScale} {
			prog, err := gdsx.Compile(p.name, p.refSource(s))
			if err != nil {
				t.Fatal(err)
			}
			res, err := prog.Run(gdsx.RunOptions{Threads: 1})
			if err != nil {
				t.Fatalf("%s: %v", refKey(p.name, s), err)
			}
			got[refKey(p.name, s)] = res.Output
		}
	}
	if *update {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/references.json", append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(got) != len(references) {
		t.Errorf("references.json has %d entries, want %d", len(references), len(got))
	}
	for k, want := range got {
		if references[k] != want {
			t.Errorf("%s: reference %q, native run %q", k, references[k], want)
		}
	}
}

func TestKernelRef(t *testing.T) {
	for _, n := range []int{1, 8, 48} {
		prog, err := gdsx.Compile("kernel.c", kernelInput(n)+"\n"+kernel)
		if err != nil {
			t.Fatal(err)
		}
		res, err := prog.Run(gdsx.RunOptions{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Output != kernelRef(n) {
			t.Errorf("N=%d: closed form %q, run %q", n, kernelRef(n), res.Output)
		}
	}
}
