package interp

import (
	"runtime"
	"sync"
	"sync/atomic"

	"gdsx/internal/obs"
)

// SchedPolicy selects how parallel-loop iterations are dispatched to
// the simulated threads.
type SchedPolicy int

const (
	// SchedStealing (the default) runs DOALL loops on a work-stealing
	// scheduler: each worker starts with the contiguous chunk static
	// scheduling would give it, consumes it from the front in
	// grain-sized pieces, and — once out of work — steals the upper
	// half of a victim's remaining range, always choosing the lowest
	// range that still lies above its own last executed iteration.
	// That floor keeps every thread's executed iterations strictly
	// increasing under any interleaving, which the guard monitor's
	// replay relies on: same-thread accesses are serialized in
	// iteration order, exactly as under static scheduling. DOACROSS
	// loops self-schedule one iteration at a time from a shared
	// counter (the paper's chunk size 1), entering ordered sections in
	// iteration order.
	SchedStealing SchedPolicy = iota
	// SchedStatic is the deterministic reference: every worker runs
	// the contiguous static share of every parallel loop (DOACROSS
	// ordered sections still entered in iteration order via tickets).
	SchedStatic
)

func (p SchedPolicy) String() string {
	if p == SchedStatic {
		return "static"
	}
	return "stealing"
}

// SchedFromString parses a scheduler name ("stealing", "static", or ""
// for the default).
func SchedFromString(s string) (SchedPolicy, bool) {
	switch s {
	case "", "stealing":
		return SchedStealing, true
	case "static":
		return SchedStatic, true
	}
	return SchedStealing, false
}

// staticShare returns worker tid's contiguous share [lo, hi) of n
// iterations split over nt workers, the first n%nt shares holding one
// iteration more: the SchedStatic schedule, and the initial deques of
// the stealing one.
func staticShare(tid, nt int, n int64) (lo, hi int64) {
	t, chunk, rem := int64(tid), n/int64(nt), n%int64(nt)
	lo = t*chunk + min(t, rem)
	hi = lo + chunk
	if t < rem {
		hi++
	}
	return lo, hi
}

// stealDeque is one worker's range of unclaimed iterations. The owner
// takes grain-sized pieces from the front; thieves take the upper half
// of the stealable remainder from the back. A mutex (not a lock-free
// deque) is deliberate: operations move whole ranges, so the lock is
// taken once per O(grain) iterations and is almost always uncontended
// — the scalability win comes from there being one deque per worker,
// not from the deque's internals.
type stealDeque struct {
	mu sync.Mutex
	// [lo, hi) is the unclaimed range; iterations below pin may only
	// be taken by the owner.
	lo, hi, pin int64
	_           [4]int64 // keep neighbouring deques off one cache line
}

// take claims up to grain iterations from the front of the deque for
// its owner.
func (d *stealDeque) take(grain int64) (lo, hi int64, ok bool) {
	d.mu.Lock()
	if d.lo >= d.hi {
		d.mu.Unlock()
		return 0, 0, false
	}
	lo = d.lo
	hi = min(lo+grain, d.hi)
	d.lo = hi
	d.mu.Unlock()
	return lo, hi, true
}

// steal claims the upper half of the deque's stealable remainder,
// provided it starts above the thief's floor (the last iteration the
// thief executed). The floor keeps each thread's executed iterations
// strictly increasing — the monotonicity every dispatch policy
// guarantees and the guard monitor's replay depends on.
func (d *stealDeque) steal(floor int64) (lo, hi int64, ok bool) {
	d.mu.Lock()
	avail := d.hi - max(d.lo, d.pin)
	if avail <= 0 {
		d.mu.Unlock()
		return 0, 0, false
	}
	k := (avail + 1) / 2
	lo, hi = d.hi-k, d.hi
	if lo <= floor {
		d.mu.Unlock()
		return 0, 0, false
	}
	d.hi = lo
	d.mu.Unlock()
	return lo, hi, true
}

// peek reports the start of the range steal would claim, without
// claiming it.
func (d *stealDeque) peek(floor int64) (lo int64, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	avail := d.hi - max(d.lo, d.pin)
	if avail <= 0 {
		return 0, false
	}
	lo = d.hi - (avail+1)/2
	return lo, lo > floor
}

// put installs a stolen range as the deque's new content (the deque is
// empty when the owner resorts to stealing). Stolen ranges carry no
// pin: they may be re-stolen in their entirety.
func (d *stealDeque) put(lo, hi int64) {
	d.mu.Lock()
	d.lo, d.hi, d.pin = lo, hi, lo
	d.mu.Unlock()
}

// stealState is the shared state of one work-stealing DOALL region.
type stealState struct {
	deques []stealDeque
	// grain is how many iterations an owner claims from its own deque
	// at a time.
	grain int64
	// remaining counts unexecuted iterations; workers retire after it
	// reaches zero (claimed-but-unexecuted work cannot be stolen, so an
	// idle worker with no steal target left just waits for the field).
	remaining atomic.Int64
	// steals counts successful steals, for the region's obs summary.
	steals atomic.Int64
}

// stealGrainDiv sets the stealing granularity: a worker claims its own
// iterations in pieces of roughly share/stealGrainDiv, bounding both
// dispatch overhead (O(stealGrainDiv) deque operations per worker) and
// the work a thief cannot take from a nearly-done victim.
const stealGrainDiv = 8

// newStealState builds the initial deques: the same contiguous
// partition static scheduling uses, with each worker's first grain
// iterations pinned. The pin guarantees every worker executes at least
// one iteration of its own share even when the host serializes the
// goroutines (one worker would otherwise race ahead and steal
// everything), which keeps cross-thread effects — the guard monitor's
// whole subject — reproducible across hosts.
func newStealState(n int64, nt int) *stealState {
	st := &stealState{deques: make([]stealDeque, nt),
		grain: max(1, n/int64(nt)/stealGrainDiv)}
	st.remaining.Store(n)
	for t := range st.deques {
		d := &st.deques[t]
		d.lo, d.hi = staticShare(t, nt, n)
		d.pin = min(d.lo+st.grain, d.hi)
	}
	return st
}

// runStealing runs worker w's part of a DOALL region under the
// work-stealing scheduler: it claims a grain at a time from its own
// deque and, once that is empty, steals from the others.
func (w *thread) runStealing(r *region, f *frame) {
	st := r.steal
	nt := len(st.deques)
	own := &st.deques[w.tid]
	last := int64(-1) // last executed iteration: the steal floor
	o := w.m.opts.Obs
	for {
		lo, hi, ok := own.take(st.grain)
		for !ok {
			// Own deque empty: try to steal. Pick the victim whose
			// stolen range would start lowest among those above the
			// floor — taking the lowest eligible range first preserves
			// this thread's eligibility for the others. If no deque has
			// eligible work the remaining iterations are claimed and
			// running elsewhere (or below the floor), so wait for the
			// region to drain (or for a cancellation).
			if w.cancel.Load() {
				return
			}
			if w.m.stop.Load() {
				return // machine-level cancellation: see parallelAttempt
			}
			best, bestLo := -1, int64(0)
			for v := 0; v < nt; v++ {
				if v == w.tid {
					continue
				}
				if plo, pok := st.deques[v].peek(last); pok && (best < 0 || plo < bestLo) {
					best, bestLo = v, plo
				}
			}
			if best >= 0 {
				// A raced-away range just means another sweep.
				if slo, shi, sok := st.deques[best].steal(last); sok {
					st.steals.Add(1)
					if o != nil {
						o.Counter("sched.steals").Inc()
						o.Emit(obs.Event{Name: "steal", Ph: 'i', Tid: w.tid,
							Loop: r.x.ID, Iter: slo, Label: "doall", V1: int64(best), V2: shi - slo})
					}
					own.put(slo, shi)
				}
			}
			if lo, hi, ok = own.take(st.grain); !ok {
				if best < 0 {
					if st.remaining.Load() <= 0 {
						return
					}
					runtime.Gosched()
				}
			}
		}
		if !w.runIters(r, f, lo, hi) {
			return
		}
		st.remaining.Add(lo - hi)
		last = hi - 1
	}
}
