package gdsx

// Cooperative cancellation (RunOptions.Ctx): cancelling the context
// mid-parallel-region must unwind every worker at its next safe point,
// leak no goroutines, and surface one deterministic structured error —
// *interp.CancelledError wrapping the context cause — no matter which
// scheduler or optimization level ran the region. These tests
// synchronize on the ParallelStart hook so the cancel always lands
// strictly inside an executing parallel region, and run under -race in
// CI.

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"gdsx/internal/interp"
)

// cancelLoopSrc is a parallel loop whose full run takes far longer
// than any test's cancel latency: 64 iterations of 5M-step inner
// loops. A run that ignores cancellation is caught by the RegionTimeout
// backstop the tests set, not by a hung test binary.
const cancelLoopSrc = `
int N = 64;

int main() {
	long *out = (long*)malloc(N * 8);
	int i;
	parallel for (i = 0; i < N; i++) {
		long acc = 0;
		long j;
		for (j = 0; j < 5000000; j++) { acc = acc + j - i; }
		out[i] = acc;
	}
	print_long(out[0]);
	print_char('\n');
	return 0;
}
`

// cancelOrderedSrc is a DOACROSS loop whose ordered sections never
// post once iteration 8 is reached (iteration 8 spins forever in its
// inner loop before posting), so later iterations block in the
// ordered-section spin — the safe point under test.
const cancelOrderedSrc = `
int N = 32;

int main() {
	long *out = (long*)malloc(N * 8);
	int i;
	parallel doacross for (i = 0; i < N; i++) {
		long acc = 0;
		long j;
		long lim = 1000;
		if (i == 8) { lim = 4000000000; }
		for (j = 0; j < lim; j++) { acc = acc + j; }
		__sync_wait();
		out[i] = acc;
		__sync_post();
	}
	print_long(out[0]);
	print_char('\n');
	return 0;
}
`

// checkGoroutines polls until the goroutine count returns to the
// baseline (workers are joined before Run returns; the context watcher
// exits asynchronously just after).
func checkGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before run, %d after", base, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// checkCancelled asserts the deterministic structured error shape.
func checkCancelled(t *testing.T, err error, wantCause error) {
	t.Helper()
	if err == nil {
		t.Fatal("run completed despite cancellation")
	}
	var ce *interp.CancelledError
	if !errors.As(err, &ce) {
		t.Fatalf("error is %T, want *interp.CancelledError: %v", err, err)
	}
	if !errors.Is(err, wantCause) {
		t.Fatalf("error %v does not wrap %v", err, wantCause)
	}
}

// runCancelMid compiles src, starts it with the given options, cancels
// the context as soon as the first parallel region starts, and returns
// the run's error.
func runCancelMid(t *testing.T, src string, opts RunOptions) error {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	var once sync.Once
	opts.Ctx = ctx
	opts.Hooks = &interp.Hooks{
		ParallelStart: func(loopID, nthreads int) {
			once.Do(func() { close(started) })
		},
	}
	if opts.RegionTimeout == 0 {
		// Backstop: a run that ignores cancellation fails via the
		// region watchdog instead of hanging the test binary.
		opts.RegionTimeout = 30 * time.Second
	}
	errc := make(chan error, 1)
	go func() {
		_, err := runSource("cancel.c", src, opts)
		errc <- err
	}()
	<-started
	cancel()
	select {
	case err := <-errc:
		return err
	case <-time.After(60 * time.Second):
		t.Fatal("run did not return after cancellation")
		return nil
	}
}

// TestCancelMidParallelRegion cancels a DOALL region under every
// scheduler, with the optimization pipeline off and on: the run must
// return the structured cancellation error and leak no goroutines,
// under -race.
func TestCancelMidParallelRegion(t *testing.T) {
	for _, ps := range parityScheds {
		for _, lv := range optLevels {
			t.Run(ps.name+"/"+lv.name, func(t *testing.T) {
				base := runtime.NumGoroutine()
				err := runCancelMid(t, cancelLoopSrc,
					RunOptions{Threads: 4, Sched: ps.pol, Opt: lv.opt})
				checkCancelled(t, err, context.Canceled)
				want := "interp: run cancelled: context canceled"
				if err.Error() != want {
					t.Fatalf("error %q, want deterministic %q", err.Error(), want)
				}
				checkGoroutines(t, base)
			})
		}
	}
}

// TestCancelMidOrderedRegion cancels a DOACROSS region whose workers
// are blocked in the ordered-section spin — the cancellation must
// interrupt the spin (not just loop back-edges) with the optimization
// pipeline off and on, under static chunks and under self-scheduling
// (the stealing policy's DOACROSS dispatch).
func TestCancelMidOrderedRegion(t *testing.T) {
	for _, ps := range parityScheds {
		for _, lv := range optLevels {
			t.Run(ps.name+"/"+lv.name, func(t *testing.T) {
				base := runtime.NumGoroutine()
				err := runCancelMid(t, cancelOrderedSrc,
					RunOptions{Threads: 4, Sched: ps.pol, Opt: lv.opt})
				checkCancelled(t, err, context.Canceled)
				checkGoroutines(t, base)
			})
		}
	}
}

// TestCancelWithRecovery: a cancelled region must NOT be treated as a
// recoverable fault — region recovery re-executing a cancelled run
// sequentially would defeat the deadline. The run returns the
// cancellation error even with Recover enabled.
func TestCancelWithRecovery(t *testing.T) {
	base := runtime.NumGoroutine()
	err := runCancelMid(t, cancelLoopSrc,
		RunOptions{Threads: 4, Recover: &RecoverySpec{}})
	checkCancelled(t, err, context.Canceled)
	checkGoroutines(t, base)
}

// TestCancelBeforeRun: an already-cancelled context fails fast without
// executing anything.
func TestCancelBeforeRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := runSource("pre.c", cancelLoopSrc, RunOptions{Threads: 2, Ctx: ctx})
	checkCancelled(t, err, context.Canceled)
	if res.Output != "" {
		t.Fatalf("pre-cancelled run produced output %q", res.Output)
	}
}

// TestCancelDeadline: a context deadline maps to DeadlineExceeded as
// the wrapped cause, distinguishing timeouts from explicit cancels.
func TestCancelDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := runSource("deadline.c", cancelLoopSrc,
		RunOptions{Threads: 4, Ctx: ctx, RegionTimeout: 30 * time.Second})
	checkCancelled(t, err, context.DeadlineExceeded)
}

// TestUncancelledCtxIsFree: a background (never-cancellable) context
// must not change behaviour — the run completes normally.
func TestUncancelledCtxIsFree(t *testing.T) {
	res, err := runSource("bg.c", `
int main() {
	int i;
	long s = 0;
	parallel for (i = 0; i < 8; i++) { s = s + 1; }
	print_long(7);
	print_char('\n');
	return 0;
}
`, RunOptions{Threads: 2, Ctx: context.Background()})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Output != "7\n" {
		t.Fatalf("output %q, want %q", res.Output, "7\n")
	}
}
