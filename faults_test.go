package gdsx

// Fault parity: a faulting MiniC program must produce the same
// structured RuntimeError — same source position, same message — with
// the optimization pipeline off and on, and a fault inside a parallel worker must
// unwind cleanly into an annotated error instead of crashing the
// process.

import (
	"errors"
	"strings"
	"testing"

	"gdsx/internal/interp"
)

func TestFaultParity(t *testing.T) {
	cases := []struct {
		name string
		src  string
		opts RunOptions
		want string // substring of the runtime error message
	}{
		{
			name: "null deref load",
			src:  `int main() { int *p = 0; return *p; }`,
			want: "null pointer dereference",
		},
		{
			name: "null deref store",
			src:  `int main() { long *p = 0; p[0] = 7; return 0; }`,
			want: "null pointer dereference (address 0)",
		},
		{
			name: "null deref field",
			src: `struct node { int v; struct node *next; };
				int main() { struct node *n = 0; return n->v; }`,
			want: "null pointer dereference",
		},
		{
			name: "out of bounds",
			src:  `int main() { long *p = (long*)malloc(16); return (int)p[100000000]; }`,
			want: "out-of-bounds access at address",
		},
		{
			name: "division by zero",
			src:  `int main() { int z = 0; return 10 / z; }`,
			want: "integer division by zero",
		},
		{
			name: "modulo by zero",
			src:  `int main() { int z = 0; return 10 % z; }`,
			want: "integer modulo by zero",
		},
		{
			name: "oom capacity",
			src: `int main() {
				int i;
				for (i = 0; i < 1000000; i++) { malloc(4096); }
				return 0;
			}`,
			opts: RunOptions{MemSize: 1 << 21}, // leaves room for the stack
			want: "out of memory allocating 4096 bytes (capacity",
		},
		{
			name: "oom limit",
			src: `int main() {
				int i;
				for (i = 0; i < 1000000; i++) { malloc(4096); }
				return 0;
			}`,
			opts: RunOptions{MemLimit: 1 << 21}, // the stack counts as live bytes
			want: "out of memory allocating 4096 bytes (limit",
		},
		{
			name: "oom fault injection",
			src: `int main() {
				long *a = (long*)malloc(64);
				long *b = (long*)malloc(64);
				a[0] = (long)b;
				return 0;
			}`,
			opts: RunOptions{FailAlloc: 3}, // 1 is main's frame, 2 is a
			want: "out of memory allocating 64 bytes (fault injection)",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var errs [2]error
			for i, lv := range optLevels {
				opts := tc.opts
				opts.Opt = lv.opt
				_, err := runSource("fault.c", tc.src, opts)
				if err == nil {
					t.Fatalf("%s: expected a runtime error", lv.name)
				}
				var re interp.RuntimeError
				if !errors.As(err, &re) {
					t.Fatalf("%s: error is %T, want interp.RuntimeError: %v", lv.name, err, err)
				}
				if !re.Pos.IsValid() {
					t.Errorf("%s: fault carries no source position: %v", lv.name, err)
				}
				if !strings.Contains(re.Msg, tc.want) {
					t.Errorf("%s: message %q does not contain %q", lv.name, re.Msg, tc.want)
				}
				errs[i] = err
			}
			if errs[0].Error() != errs[1].Error() {
				t.Errorf("configurations disagree on the fault:\n%s: %v\n%s: %v",
					optLevels[0].name, errs[0], optLevels[1].name, errs[1])
			}
		})
	}
}

// parallelFaultSrc faults inside a parallel loop: each iteration
// allocates private scratch, so fault injection lands inside a worker.
// Iterations touch only their own allocation and their own out[i] slot,
// keeping the program race-free up to the fault.
const parallelFaultSrc = `
int N = 64;

int main() {
	long *out = (long*)malloc(N * 8);
	int i;
	parallel for (i = 0; i < N; i++) {
		long *scratch = (long*)malloc(256);
		scratch[0] = (long)i * 17;
		out[i] = scratch[0] + 3;
		free(scratch);
	}
	long s = 0;
	for (i = 0; i < N; i++) { s = s + out[i]; }
	print_long(s);
	print_char('\n');
	return 0;
}
`

// TestFaultInParallelWorker: an allocation failure inside a parallel
// worker must not crash the host process or deadlock the region; it
// unwinds into a RuntimeError annotated with the worker and iteration.
func TestFaultInParallelWorker(t *testing.T) {
	for _, lv := range optLevels {
		for _, nt := range []int{1, 2, 4} {
			_, err := runSource("pfault.c", parallelFaultSrc,
				RunOptions{Threads: nt, Opt: lv.opt, FailAlloc: 40})
			if err == nil {
				t.Fatalf("%s threads=%d: expected an allocation fault", lv.name, nt)
			}
			var re interp.RuntimeError
			if !errors.As(err, &re) {
				t.Fatalf("%s threads=%d: error is %T, want RuntimeError: %v", lv.name, nt, err, err)
			}
			if !strings.Contains(re.Msg, "out of memory") {
				t.Errorf("%s threads=%d: message %q lacks the allocation fault", lv.name, nt, re.Msg)
			}
			// A one-thread region runs its chunk without the worker
			// annotation; multi-threaded faults must name the worker.
			if nt >= 2 && (!strings.Contains(re.Msg, "parallel worker") || !strings.Contains(re.Msg, "iteration")) {
				t.Errorf("%s threads=%d: fault not attributed to a worker: %q", lv.name, nt, re.Msg)
			}
		}
	}
}

// TestFaultFreeRunUnaffected: the same program with no fault injected
// completes normally at every thread count — the containment machinery
// must not perturb clean runs.
func TestFaultFreeRunUnaffected(t *testing.T) {
	want, err := runSource("pfault.c", parallelFaultSrc, RunOptions{ForceSequential: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, nt := range []int{2, 4} {
		got, err := runSource("pfault.c", parallelFaultSrc, RunOptions{Threads: nt})
		if err != nil {
			t.Fatalf("threads=%d: %v", nt, err)
		}
		if got.Output != want.Output {
			t.Fatalf("threads=%d: output %q, want %q", nt, got.Output, want.Output)
		}
	}
}
