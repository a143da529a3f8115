package main

import (
	"reflect"
	"testing"
	"time"
)

var testMix = mix{hot: []string{"a", "b"}, hotShare: 0.5, zipfS: 1.3, ranks: 100, baseN: 4, guardEvery: 5, tenants: 8}

func TestOpenLoopScheduleSeeded(t *testing.T) {
	a := openLoopSchedule(7, testMix, 25, 10*time.Second)
	b := openLoopSchedule(7, testMix, 25, 10*time.Second)
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed gave different schedules (%d and %d calls)", len(a), len(b))
	}
	if c := openLoopSchedule(8, testMix, 25, 10*time.Second); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	// About 25/s over 10 s, in increasing due order inside the window.
	if len(a) < 180 || len(a) > 320 {
		t.Errorf("%d calls in 10 s at 25/s", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i].due < a[i-1].due || a[i].due >= 10*time.Second {
			t.Fatalf("call %d due at %v after %v", i, a[i].due, a[i-1].due)
		}
	}
}

func TestOpenLoopLatencyFromDue(t *testing.T) {
	// One caller, two calls due together, each taking 30 ms: the second
	// is sent only when the first returns, and its latency includes that
	// wait because it is timed from its due time.
	calls := []call{{due: 0}, {due: time.Millisecond}}
	ts := runOpenLoop(calls, 1, func(int, int, call) { time.Sleep(30 * time.Millisecond) })
	if ts[1].lag() < 25*time.Millisecond {
		t.Errorf("second call lag %v, want at least the first call's 30 ms", ts[1].lag())
	}
	if ts[1].latency() < ts[1].end-ts[1].send+ts[1].lag() || ts[1].latency() < 55*time.Millisecond {
		t.Errorf("second call latency %v does not count its wait (lag %v)", ts[1].latency(), ts[1].lag())
	}
	if ts[0].due != 0 || ts[1].due != time.Millisecond {
		t.Errorf("due times %v, %v", ts[0].due, ts[1].due)
	}
}
