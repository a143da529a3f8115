package workloads_test

import (
	"strings"
	"testing"

	"gdsx"
	"gdsx/internal/expand"
	"gdsx/internal/workloads"
)

func TestAllCompileAndRun(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			src := w.Source(workloads.Test)
			prog, err := gdsx.Compile(w.Name+".c", src)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			res, err := prog.Run(gdsx.RunOptions{Threads: 1})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if !strings.Contains(res.Output, w.Name) {
				t.Fatalf("output %q does not carry the workload tag", res.Output)
			}
			// Deterministic across runs.
			res2, err := prog.Run(gdsx.RunOptions{Threads: 1})
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			if res.Output != res2.Output {
				t.Fatalf("nondeterministic output: %q vs %q", res.Output, res2.Output)
			}
		})
	}
}

// Every workload must transform cleanly, and the transformed program
// must reproduce the native output at several thread counts with real
// parallel execution.
func TestAllTransformedMatchNative(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			src := w.Source(workloads.Test)
			prog, err := gdsx.Compile(w.Name+".c", src)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			native, err := prog.Run(gdsx.RunOptions{Threads: 1})
			if err != nil {
				t.Fatalf("native: %v", err)
			}
			tr, err := gdsx.Transform(prog, gdsx.TransformOptions{})
			if err != nil {
				t.Fatalf("Transform: %v", err)
			}
			for _, n := range []int{1, 2, 4, 8} {
				got, err := tr.Expanded.Run(gdsx.RunOptions{Threads: n})
				if err != nil {
					t.Fatalf("N=%d: %v\n--- transformed ---\n%s", n, err, tr.Source)
				}
				if got.Output != native.Output {
					t.Fatalf("N=%d: %q != native %q\n--- transformed ---\n%s",
						n, got.Output, native.Output, tr.Source)
				}
			}
		})
	}
}

// The unoptimized configuration (paper Fig. 9a: everything expanded,
// every reaching pointer promoted, no span DSE) must also preserve
// every workload's output.
func TestAllTransformedUnoptimizedMatchNative(t *testing.T) {
	un := expand.Unoptimized()
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			src := w.Source(workloads.Test)
			prog, err := gdsx.Compile(w.Name+".c", src)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			native, err := prog.Run(gdsx.RunOptions{Threads: 1})
			if err != nil {
				t.Fatalf("native: %v", err)
			}
			tr, err := gdsx.Transform(prog, gdsx.TransformOptions{Expand: &un})
			if err != nil {
				t.Fatalf("Transform(unopt): %v", err)
			}
			for _, n := range []int{1, 4} {
				got, err := tr.Expanded.Run(gdsx.RunOptions{Threads: n})
				if err != nil {
					t.Fatalf("N=%d: %v\n--- transformed ---\n%s", n, err, tr.Source)
				}
				if got.Output != native.Output {
					t.Fatalf("N=%d: %q != native %q\n--- transformed ---\n%s",
						n, got.Output, native.Output, tr.Source)
				}
			}
		})
	}
}

// The number of privatized dynamic data structures must match the
// paper's Table 5.
func TestPrivatizedCountsMatchTable5(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			src := w.Source(workloads.Test)
			prog, err := gdsx.Compile(w.Name+".c", src)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			tr, err := gdsx.Transform(prog, gdsx.TransformOptions{})
			if err != nil {
				t.Fatalf("Transform: %v", err)
			}
			total := 0
			for _, rep := range tr.Reports {
				total += rep.Structures
			}
			if total != w.PaperPrivatized {
				t.Errorf("privatized structures = %d, paper Table 5 says %d (%v)",
					total, w.PaperPrivatized, tr.Reports)
			}
		})
	}
}

func TestMetadata(t *testing.T) {
	names := map[string]bool{}
	for _, w := range workloads.All() {
		if w.Name == "" || w.Suite == "" || w.Func == "" || w.Parallelism == "" {
			t.Errorf("incomplete metadata: %+v", w)
		}
		if names[w.Name] {
			t.Errorf("duplicate workload %s", w.Name)
		}
		names[w.Name] = true
		if w.LOC() < 50 {
			t.Errorf("%s: suspiciously small source (%d lines)", w.Name, w.LOC())
		}
		if got := workloads.ByName(w.Name); got == nil || got.Name != w.Name {
			t.Errorf("ByName(%q) = %v", w.Name, got)
		}
	}
	if workloads.ByName("no-such") != nil {
		t.Errorf("ByName of unknown workload should be nil")
	}
}
