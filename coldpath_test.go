package gdsx

// Pins the engine's cold paths: code that runs once per parallel region
// (the iteration space of a parallel loop: start, step and bound) or
// once per run (global initializers). No workload reaches their error
// branches, and a one-thread run never computes a parallel loop's
// iteration space at all (it takes the sequential path), so these
// programs run at two threads. Both optimization levels must produce
// the pinned output, error text, operation count and memory high
// water: the values the tree-walking reference interpreter, which used
// to run these paths, produced.

import (
	"testing"

	"gdsx/internal/interp"
)

func TestColdPathParallelBounds(t *testing.T) {
	cases := []struct {
		name, loop string
		want       string // error text; "" expects a clean run
		out        string
		ops        int64
	}{
		{name: "unsupported-step", loop: "parallel for (i = 1; i < lim; i = i * 2) { a[i] = i; }",
			want: "g.c:2:32: runtime error: unsupported parallel loop step"},
		{name: "zero-step", loop: "parallel for (i = 1; i < lim; i += 0) { a[i] = i; }",
			want: "g.c:2:32: runtime error: parallel loop has zero step"},
		{name: "untested-indvar", loop: "parallel for (i = 1; lim > 0; i++) { a[i] = i; }",
			want: "g.c:2:32: runtime error: parallel loop condition does not test the induction variable"},
		// The bound on the left mirrors the comparison; the step names
		// the induction variable on the right of the addition.
		{name: "mirrored", loop: "parallel for (i = 1; lim > i; i = 3 + i) { a[i] = i * i; }",
			out: "0 1 0 0 16 0 0 49 0 0 10", ops: 163},
		{name: "inclusive", loop: "parallel for (i = 0; i <= lim; i += lim / 4) { a[i] = i + 1; }",
			out: "1 0 3 0 5 0 7 0 9 0 10", ops: 179},
	}
	for _, tc := range cases {
		src := "int main() {\n" +
			"int i; int a[10]; int lim = 8; " + tc.loop + "\n" +
			"for (lim = 0; lim < 10; lim++) { print_int(a[lim]); print_char(32); }\n" +
			"print_int(i); return 0; }\n"
		for _, lv := range optLevels {
			t.Run(tc.name+"/"+lv.name, func(t *testing.T) {
				prog, err := Compile("g.c", src)
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				res, err := prog.Run(RunOptions{Threads: 2, Opt: lv.opt})
				if tc.want != "" {
					if err == nil || err.Error() != tc.want {
						t.Fatalf("error %v, want %q", err, tc.want)
					}
					return
				}
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				if res.Output != tc.out {
					t.Errorf("output %q, want %q", res.Output, tc.out)
				}
				if got := res.Counters[interp.CatWork]; got != tc.ops {
					t.Errorf("ops=%d, want %d", got, tc.ops)
				}
			})
		}
	}
}

func TestColdPathGlobalInit(t *testing.T) {
	const src = `int a = 3; long b = sizeof(int) * 5 + 2; double d = 1.5 * 4; char *s = "hi";
int main() {
	print_int(a); print_char(32); print_long(b); print_char(32);
	print_int((int)d); print_char(32); print_char(s[1]); print_char(10);
	return 0;
}
`
	for _, lv := range optLevels {
		t.Run(lv.name, func(t *testing.T) {
			res, err := runSource("glob.c", src, RunOptions{Threads: 2, Opt: lv.opt})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.Output != "3 22 6 i\n" {
				t.Errorf("output %q, want %q", res.Output, "3 22 6 i\n")
			}
			if got := res.Counters[interp.CatWork]; got != 29 {
				t.Errorf("ops=%d, want 29", got)
			}
			if got := res.MemStats.HighWaterData; got != 40 {
				t.Errorf("memory high water %d, want 40", got)
			}
		})
	}
}
