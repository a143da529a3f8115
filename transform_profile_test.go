package gdsx

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"gdsx/internal/ddg"
	"gdsx/internal/profile"
	"gdsx/internal/workloads"
)

// transformCase is one program Transform is run on: the source that is
// expanded and, for the adversarial pairs, the training input that is
// profiled instead.
type transformCase struct {
	name, src, train string
}

// transformCases returns every workload at test scale: the Table-4
// programs and the exposing inputs of the adversarial and adaptive
// pairs, profiled on their training inputs.
func transformCases() []transformCase {
	var cs []transformCase
	for _, w := range workloads.All() {
		cs = append(cs, transformCase{name: w.Name, src: w.Source(workloads.Test)})
	}
	for _, a := range append(workloads.AdversarialAll(), workloads.AdaptiveAll()...) {
		cs = append(cs, transformCase{name: a.Name, src: a.Expose(workloads.Test), train: a.Profile(workloads.Test)})
	}
	return cs
}

func caseByName(t *testing.T, name string) transformCase {
	t.Helper()
	for _, c := range transformCases() {
		if c.name == name {
			return c
		}
	}
	t.Fatalf("no workload %s", name)
	return transformCase{}
}

// profileDump renders a loop profile completely: the graph with edge
// counts, the origins each site touched, the iteration count and the
// run's counters and allocator statistics.
func profileDump(t *testing.T, pr *profile.Result) string {
	t.Helper()
	g, err := json.Marshal(pr.Graph)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s\ntouched %v\niterations %d memops %d counters %v mem %+v",
		g, pr.Touched, pr.Iterations, pr.Run.MemOps, pr.Run.Counters, pr.Run.MemStats)
}

// sameTransform fails the test unless two transforms of one program
// produced identical source and identical profiles for every loop.
func sameTransform(t *testing.T, what string, want, got *TransformResult) {
	t.Helper()
	if got.Source != want.Source {
		t.Fatalf("%s: transformed source differs\n%s", what, firstDiff(want.Source, got.Source))
	}
	if len(got.Profiles) != len(want.Profiles) {
		t.Fatalf("%s: %d profiled loops, want %d", what, len(got.Profiles), len(want.Profiles))
	}
	for id, wp := range want.Profiles {
		gp := got.Profiles[id]
		if gp == nil {
			t.Fatalf("%s: loop %d not profiled", what, id)
		}
		if w, g := profileDump(t, wp), profileDump(t, gp); g != w {
			t.Fatalf("%s: loop %d profile differs\n%s", what, id, firstDiff(w, g))
		}
	}
}

func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\nwant: %s\n got: %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(wl), len(gl))
}

// TestTransformDeterministic checks that Transform is a function of its
// input: repeated transforms of every workload are byte-identical. Two
// full runs cover the profiler; further runs on the profiled graphs
// repeat the expansion alone, cheaply enough to catch an output that
// depends on map iteration order.
func TestTransformDeterministic(t *testing.T) {
	const expandRuns = 20
	for _, c := range transformCases() {
		t.Run(c.name, func(t *testing.T) {
			prog, err := Compile(c.name+".c", c.src)
			if err != nil {
				t.Fatal(err)
			}
			topts := TransformOptions{Guard: true, ProfileSource: c.train}
			first, err := Transform(prog, topts)
			if err != nil {
				t.Fatal(err)
			}
			again, err := Transform(prog, topts)
			if err != nil {
				t.Fatal(err)
			}
			sameTransform(t, "second transform", first, again)
			topts.Graphs = map[int]*ddg.Graph{}
			for id, pr := range first.Profiles {
				topts.Graphs[id] = pr.Graph
			}
			for i := 0; i < expandRuns; i++ {
				tr, err := Transform(prog, topts)
				if err != nil {
					t.Fatal(err)
				}
				if tr.Source != first.Source {
					t.Fatalf("expansion %d: transformed source differs\n%s", i, firstDiff(first.Source, tr.Source))
				}
			}
		})
	}
}

// TestTransformCallerArena checks that profiling in a caller-supplied
// arena (RunOptions.Memory, which the caller resets between runs) gives
// the same graphs and source as Transform's own arena, for programs
// with several parallel loops and on a reused arena.
func TestTransformCallerArena(t *testing.T) {
	for _, name := range []string{"adversarial-multiregion", "h263-encoder"} {
		t.Run(name, func(t *testing.T) {
			c := caseByName(t, name)
			prog, err := Compile(c.name+".c", c.src)
			if err != nil {
				t.Fatal(err)
			}
			if n := len(prog.ParallelLoops()); n < 2 {
				t.Fatalf("%s has %d parallel loops; the test needs several", name, n)
			}
			want, err := Transform(prog, TransformOptions{Guard: true, ProfileSource: c.train})
			if err != nil {
				t.Fatal(err)
			}
			arena := NewMemory(0)
			for run := 1; run <= 2; run++ {
				got, err := Transform(prog, TransformOptions{
					Guard: true, ProfileSource: c.train, ProfileOpts: RunOptions{Memory: arena},
				})
				if err != nil {
					t.Fatal(err)
				}
				sameTransform(t, fmt.Sprintf("caller arena, use %d", run), want, got)
				arena.Reset()
			}
		})
	}
}
