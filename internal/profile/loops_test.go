package profile

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gdsx/internal/ddg"
	"gdsx/internal/interp"
	"gdsx/internal/mem"
	"gdsx/internal/parser"
	"gdsx/internal/sema"
)

// TestLoopsMatchesLoop profiles every parallel loop of each golden
// input in one Loops run and checks each loop's profile against a run
// of Loop for that loop alone.
func TestLoopsMatchesLoop(t *testing.T) {
	multi := map[string]int{}
	for _, in := range goldenInputs() {
		prog, err := parser.Parse(in[0]+".c", in[1])
		if err != nil {
			t.Fatalf("%s: %v", in[0], err)
		}
		info, err := sema.Check(prog)
		if err != nil {
			t.Fatalf("%s: %v", in[0], err)
		}
		ids := parallelLoops(info)
		all, err := Loops(prog, info, ids, interp.Options{})
		if err != nil {
			t.Fatalf("%s: %v", in[0], err)
		}
		if len(all) != len(ids) {
			t.Fatalf("%s: %d results for loops %v", in[0], len(all), ids)
		}
		multi[in[0]] = len(ids)
		for _, id := range ids {
			one, err := Loop(prog, info, id, interp.Options{})
			if err != nil {
				t.Fatalf("%s loop %d: %v", in[0], id, err)
			}
			var want, got strings.Builder
			dumpResult(&want, in[0], id, one)
			dumpResult(&got, in[0], id, all[id])
			if got.String() != want.String() {
				t.Errorf("%s loop %d: one run of loops %v differs from a run of the loop alone:\n got:\n%s\nwant:\n%s",
					in[0], id, ids, got.String(), want.String())
			}
		}
	}
	for name, n := range map[string]int{"h263-encoder": 2, "adversarial-multiregion/train": 3, "adversarial-multiregion/expose": 3} {
		if multi[name] != n {
			t.Errorf("%s has %d parallel loops, want %d", name, multi[name], n)
		}
	}
}

// TestLoopsConcurrent runs multi-loop profiles from several goroutines
// at once: their analyses share the batch free list, and each must
// still see its own run's events in order.
func TestLoopsConcurrent(t *testing.T) {
	var progs []string
	for _, in := range goldenInputs() {
		if in[0] == "h263-encoder" || strings.HasPrefix(in[0], "adversarial-multiregion") {
			progs = append(progs, in[1])
		}
	}
	dump := func(src string) (string, error) {
		prog, err := parser.Parse("p.c", src)
		if err != nil {
			return "", err
		}
		info, err := sema.Check(prog)
		if err != nil {
			return "", err
		}
		ids := parallelLoops(info)
		res, err := Loops(prog, info, ids, interp.Options{})
		if err != nil {
			return "", err
		}
		var sb strings.Builder
		for _, id := range ids {
			dumpResult(&sb, "p", id, res[id])
		}
		return sb.String(), nil
	}
	want := make([]string, len(progs))
	for i, src := range progs {
		d, err := dump(src)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = d
	}
	const workers = 4
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for r := 0; r < 3; r++ {
				i := (w + r) % len(progs)
				got, err := dump(progs[i])
				if err == nil && got != want[i] {
					err = fmt.Errorf("program %d: concurrent profile differs from the sequential one", i)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// waitGoroutines polls until no more goroutines run than want, and
// fails the test if that takes more than a few seconds.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after the run, %d before:\n%s", n, want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// spinSrc runs a parallel loop of n iterations over a small array: one
// load and two stores an iteration, so a long run fills many batches.
func spinSrc(n string) string {
	return `
int a[64];
int main() {
    int i;
    long s = 0;
    parallel for (i = 0; i < ` + n + `; i++) {
        a[i % 64] = i;
        s = s + a[(i + 1) % 64];
    }
    print_long(s);
    return 0;
}`
}

// TestLoopsStopLeavesNoGoroutine ends profiling runs by each kind of
// run error and checks that Loop returns the error and that no
// analysis goroutine outlives the call.
func TestLoopsStopLeavesNoGoroutine(t *testing.T) {
	cases := []struct {
		name string
		src  string
		opts func() (interp.Options, func())
		want func(error) bool
	}{
		{"MaxOps", spinSrc("1000000"), func() (interp.Options, func()) {
			return interp.Options{MaxOps: 200000}, func() {}
		}, func(err error) bool { return strings.Contains(err.Error(), "operation budget exceeded") }},
		{"cancelled Ctx", spinSrc("100000000"), func() (interp.Options, func()) {
			ctx, cancel := context.WithCancel(context.Background())
			stop := time.AfterFunc(20*time.Millisecond, cancel)
			// MaxOps only ends a run the cancellation missed.
			return interp.Options{Ctx: ctx, MaxOps: 500_000_000}, func() { stop.Stop(); cancel() }
		}, func(err error) bool {
			var ce *interp.CancelledError
			return errors.As(err, &ce) && errors.Is(err, context.Canceled)
		}},
		{"MemLimit", `
int main() {
    int i;
    long s = 0;
    parallel for (i = 0; i < 100; i++) {
        char *b = (char*)malloc(65536);
        b[i] = 1;
        s = s + b[i];
    }
    print_long(s);
    return 0;
}`, func() (interp.Options, func()) {
			return interp.Options{MemLimit: 1 << 20}, func() {}
		}, func(err error) bool { return strings.Contains(err.Error(), "out of memory") }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog, info, id := compile(t, c.src)
			start := runtime.NumGoroutine()
			opts, done := c.opts()
			res, err := Loop(prog, info, id, opts)
			done()
			if err == nil || !c.want(err) {
				t.Fatalf("Loop returned %v, %v; want the %s error", res, err, c.name)
			}
			waitGoroutines(t, start)
		})
	}
	t.Run("many batches", func(t *testing.T) {
		prog, info, id := compile(t, spinSrc("200000"))
		start := runtime.NumGoroutine()
		res, err := Loop(prog, info, id, interp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Run.MemOps < 100*batchLen || res.Iterations != 200001 {
			t.Fatalf("%d accesses and %d iterations; the test needs many batches", res.Run.MemOps, res.Iterations)
		}
		waitGoroutines(t, start)
	})
}

// TestAnalysisPanicIsError feeds an analysis a batch whose access site
// is out of range: the panic must come back as the analysis's error,
// and the analysis must still release every batch it is handed.
func TestAnalysisPanicIsError(t *testing.T) {
	isDef := make([]bool, 4)
	a := newAnalysis(1, ddg.NewGraph(1), isDef)
	q := make(chan *batch, 2)
	bad, good := getBatch(), getBatch()
	bad.ev[0] = event{site: 99, size: 1, kind: evStore}
	bad.n = 1
	good.ev[0] = event{site: 1, size: 1, kind: evLoad}
	good.n = 1
	for _, b := range []*batch{bad, good} {
		b.refs.Store(1)
		q <- b
	}
	close(q)
	var stop atomic.Bool
	a.consume(q, &stop)
	if a.err == nil || !strings.Contains(a.err.Error(), "analysis of loop 1") {
		t.Fatalf("analysis error %v, want the recovered panic", a.err)
	}
	if bad.n != 0 || good.n != 0 {
		t.Fatalf("batches not released after the panic (n = %d, %d)", bad.n, good.n)
	}
}

// heapProfile returns the Go heap bytes allocated while profiling src's
// first parallel loop, its simulated memory allocated beforehand.
func heapProfile(t *testing.T, src string) uint64 {
	t.Helper()
	prog, info, id := compile(t, src)
	m := mem.New(64 << 20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Loop(prog, info, id, interp.Options{Memory: m}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestShadowFollowsTheLoop checks that the shadow costs what the loop
// touches: a 16 MiB block defined outside the loop, or inside it, and
// read on a few pages inside it, must not be shadowed byte by byte
// (24 bytes of shadow a byte would be about 400 MB).
func TestShadowFollowsTheLoop(t *testing.T) {
	for _, c := range []struct{ name, src string }{
		{"defined before the loop", `
int main() {
    int i;
    long s = 0;
    char *big = (char*)malloc(16 << 20);
    parallel for (i = 0; i < 4; i++) {
        s = s + big[i * 4096];
    }
    print_long(s);
    return 0;
}`},
		{"defined in the loop", `
int main() {
    int i;
    long s = 0;
    parallel for (i = 0; i < 2; i++) {
        char *big = (char*)malloc(16 << 20);
        s = s + big[i * 4096];
        free(big);
    }
    print_long(s);
    return 0;
}`},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := heapProfile(t, c.src)
			t.Logf("%d KiB", got>>10)
			if got > 8<<20 {
				t.Errorf("profiling allocated %d MiB of Go heap, want under 8", got>>20)
			}
		})
	}
}
