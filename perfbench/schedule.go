package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// reqSpec is one generated serve request.
type reqSpec struct {
	prog   string // a hot pool program, or "" for the kernel
	n      int    // the kernel's N
	guard  bool
	tenant int
}

func (r reqSpec) String() string {
	what := r.prog
	if what == "" {
		what = fmt.Sprintf("kernel N=%d", r.n)
	}
	if r.guard {
		what += " guard"
	}
	return fmt.Sprintf("%s tenant-%d", what, r.tenant)
}

// class names the request's kind for per-class latency: the program or
// the kernel, with or without guard.
func (r reqSpec) class() string {
	c := r.prog
	if c == "" {
		c = "kernel"
	}
	if r.guard {
		c += "+guard"
	}
	return c
}

// mix describes the serve traffic. A share hotShare of requests picks
// one of the hot programs uniformly; the rest run the kernel with
// N = baseN + rank, where rank follows a Zipf over ranks values, so a
// few N are hot and the rest form the long tail. One request in
// guardEvery sets guard; tenants are uniform.
type mix struct {
	hot        []string
	hotShare   float64
	zipfS      float64
	ranks      int
	baseN      int
	guardEvery int
	tenants    int
}

// drawer draws a seeded request sequence from a mix.
type drawer struct {
	m    mix
	r    *rand.Rand
	zipf *rand.Zipf
}

func newDrawer(m mix, seed int64) *drawer {
	r := rand.New(rand.NewSource(seed))
	return &drawer{m: m, r: r, zipf: rand.NewZipf(r, m.zipfS, 1, uint64(m.ranks-1))}
}

func (d *drawer) next() reqSpec {
	s := reqSpec{tenant: d.r.Intn(d.m.tenants), guard: d.r.Intn(d.m.guardEvery) == 0}
	if d.r.Float64() < d.m.hotShare {
		s.prog = d.m.hot[d.r.Intn(len(d.m.hot))]
	} else {
		s.n = d.m.baseN + int(d.zipf.Uint64())
	}
	return s
}

// call is one scheduled request, due at an offset from the phase start.
type call struct {
	due  time.Duration
	spec reqSpec
}

// openLoopSchedule draws Poisson arrivals at rate requests per second
// for dur, each with a request from the mix. The same seed gives the
// same requests and due times.
func openLoopSchedule(seed int64, m mix, rate float64, dur time.Duration) []call {
	d := newDrawer(m, seed)
	var calls []call
	at := 0.0
	for {
		at += d.r.ExpFloat64() / rate
		due := time.Duration(at * float64(time.Second))
		if due >= dur {
			return calls
		}
		calls = append(calls, call{due: due, spec: d.next()})
	}
}

// timing is when a call was due, sent and answered, relative to the
// start of its phase. Latency is end - due: a caller that is still busy
// when a call falls due delays it, and that wait counts.
type timing struct {
	due, send, end time.Duration
}

func (t timing) latency() time.Duration { return t.end - t.due }
func (t timing) lag() time.Duration     { return t.send - t.due }

// runOpenLoop sends each call at its due time through at most callers
// outstanding calls, and returns each call's timing in schedule order.
// do makes call i on caller goroutine lane.
func runOpenLoop(calls []call, callers int, do func(lane, i int, c call)) []timing {
	out := make([]timing, len(calls))
	work := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := range work {
				out[i].send = time.Since(start)
				do(lane, i, calls[i])
				out[i].end = time.Since(start)
			}
		}(w)
	}
	for i, c := range calls {
		out[i].due = c.due
		if wait := c.due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		work <- i // blocks while every caller is busy
	}
	close(work)
	wg.Wait()
	return out
}

// runClosedLoop runs callers goroutines that each send their next call
// as soon as the previous one returns, until the deadline, and returns
// the number of calls completed.
func runClosedLoop(d *drawer, callers int, deadline time.Time, do func(lane int, s reqSpec)) int {
	var mu sync.Mutex
	done := 0
	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				s := d.next()
				mu.Unlock()
				do(lane, s)
				mu.Lock()
				done++
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return done
}
