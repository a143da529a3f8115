package interp

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// orderedSkipSrc is a DOACROSS loop in which every odd iteration skips
// its ordered section; body is the loop body after that test.
const orderedSkipSrc = `
int data[96];
int work(int i) { int k; int s = 0; for (k = 0; k < 40; k++) { s = s + (i * k) %% 7; } return s; }
int main() {
    long acc = 0;
    int i;
    for (i = 0; i < 96; i++) { data[i] = i %% 2; }
    parallel doacross for (i = 0; i < 96; i++) {
        %s
    }
    print_long(acc);
    return 0;
}`

// TestOrderedSectionSkip runs DOACROSS loops whose iterations skip the
// ordered section at every thread count and under both schedulers, and
// requires the sequential output: a skipped section is posted in the
// iteration's turn, so it can neither block an earlier iteration that
// has not reached its __sync_wait nor reorder the chain. The MaxOps
// budget bounds every wait, so a lost ticket fails the test instead of
// hanging it.
func TestOrderedSectionSkip(t *testing.T) {
	bodies := map[string]string{
		// The shape expand's placeSync emits for an early continue.
		"continue-before-section": `if (data[i] == 1) continue;
        __sync_wait();
        acc = acc * 3 + work(i) + i;
        __sync_post();`,
		"work-before-section": `if (data[i] == 1) continue;
        int w = work(i);
        __sync_wait();
        acc = acc * 3 + w + i;
        __sync_post();`,
		// A hand-written post outside the ordered section.
		"post-without-wait": `if (data[i] == 1) { __sync_post(); continue; }
        __sync_wait();
        acc = acc * 3 + work(i) + i;
        __sync_post();`,
	}
	for name, body := range bodies {
		src := fmt.Sprintf(orderedSkipSrc, body)
		want := run(t, src, Options{NumThreads: 1}).Output
		for _, sched := range []SchedPolicy{SchedStealing, SchedStatic} {
			for _, n := range []int{2, 4, 8} {
				t.Run(fmt.Sprintf("%s/%s/%d", name, sched, n), func(t *testing.T) {
					res := run(t, src, Options{NumThreads: n, Sched: sched, MaxOps: 2_000_000})
					if res.Output != want {
						t.Fatalf("output %q, want %q", res.Output, want)
					}
				})
			}
		}
	}
}

// TestOrderedSectionReleasedTwice: an iteration that waits for an
// ordered section it has already released raises a positioned runtime
// error instead of spinning forever. Sequentially the statements are
// no-ops.
func TestOrderedSectionReleasedTwice(t *testing.T) {
	src := fmt.Sprintf(orderedSkipSrc, `__sync_wait();
        acc = acc + i;
        __sync_post();
        __sync_wait();
        __sync_post();`)
	run(t, src, Options{NumThreads: 1})
	for _, sched := range []SchedPolicy{SchedStealing, SchedStatic} {
		err := runErr(t, src, Options{NumThreads: 2, Sched: sched, MaxOps: 2_000_000})
		if err == nil || !strings.Contains(err.Error(), "already released") || !strings.Contains(err.Error(), "t.c:12:9:") {
			t.Fatalf("%s: err = %v, want the second __sync_wait's already-released error", sched, err)
		}
	}
}

// TestOrderedSectionNested runs a DOACROSS loop with its own ordered
// section inside each iteration of an outer DOACROSS loop. A worker
// runs the nested loop sequentially, so the nested __sync_wait and
// __sync_post must leave the outer region's ticket alone: acting on it
// released the outer iteration's section early, and its own
// __sync_wait then raised "already released". Nor may they mark the
// worker's accesses as ordered, since they order nothing across outer
// iterations and the guard treats two ordered accesses as serialized:
// of the parallel run's stores, only the outer section's six chain
// updates are ordered. The MaxOps budget bounds every wait.
func TestOrderedSectionNested(t *testing.T) {
	const src = `
int main() {
    long chain = 1;
    long row[6];
    int i;
    parallel doacross for (i = 0; i < 6; i++) {
        row[i] = i;
        int j;
        parallel doacross for (j = 0; j < 3; j++) {
            __sync_wait();
            row[i] = row[i] * 7 + j;
            __sync_post();
        }
        __sync_wait();
        chain = chain * 31 + row[i];
        __sync_post();
    }
    print_long(chain);
    return 0;
}`
	want := run(t, src, Options{NumThreads: 1}).Output
	if want != "1491992230" {
		t.Fatalf("sequential output %q, want 1491992230", want)
	}
	for _, sched := range []SchedPolicy{SchedStealing, SchedStatic} {
		for _, n := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("%s/%d", sched, n), func(t *testing.T) {
				var ordered atomic.Int64
				hooks := &Hooks{Observe: func(ev Access) {
					if ev.Store && ev.Ordered {
						ordered.Add(1)
					}
				}}
				res := run(t, src, Options{NumThreads: n, Sched: sched, MaxOps: 2_000_000, Hooks: hooks})
				if res.Output != want {
					t.Fatalf("output %q, want %q", res.Output, want)
				}
				if got := ordered.Load(); got != 6 {
					t.Fatalf("%d ordered stores, want the outer section's 6", got)
				}
			})
		}
	}
}
