package interp

import (
	"runtime"
	"sync/atomic"

	"gdsx/internal/token"
)

// ctrl is the control-flow outcome of executing a statement.
type ctrl int

const (
	ctrlNext ctrl = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

// orderState carries the cross-thread ordering of a DOACROSS loop's
// ordered section: ticket is the iteration currently allowed in.
type orderState struct {
	ticket atomic.Int64
}

// syncWait blocks until all earlier iterations have posted. Outside a
// parallel DOACROSS execution it is a no-op.
func (t *thread) syncWait(pos token.Pos) {
	if t.ts != nil {
		t.ts.waitMark = t.counters[CatWork]
		return
	}
	if t.order == nil {
		t.inOrdered = true
		return
	}
	t.counters[CatSync]++
	// Spinning executes no statements, so the per-statement MaxOps
	// budget check cannot interrupt it: a program whose ordered sections never post
	// (reachable under fuzzing) would hang forever. Bound the spin
	// count by the same budget. Aborting an unlucky legitimate wait
	// early is acceptable — the budget exists only for harnesses that
	// already accept budget aborts.
	spinMax := int64(0)
	if t.m.opts.MaxOps > 0 {
		spinMax = t.m.opts.MaxOps * 4
	}
	spins := int64(0)
	for t.order.ticket.Load() != t.curIter {
		// A sibling worker may have faulted before posting its ticket;
		// spinning on it would deadlock. The cancellation panic is
		// swallowed by the worker's recover in runParallelFor. A
		// machine-level context cancellation interrupts the spin the
		// same way.
		if t.cancel != nil && t.cancel.Load() {
			panic(regionCanceled{})
		}
		if t.m.stop.Load() {
			t.raiseCancelled()
		}
		spins++
		if spinMax > 0 && spins > spinMax {
			rterrf(pos, "operation budget exceeded waiting for ordered section (iteration %d)", t.curIter)
		}
		if spins&63 == 0 {
			runtime.Gosched()
		}
	}
	t.counters[CatWait] += spins
	t.inOrdered = true
}

// syncPost releases the next iteration's ordered section.
func (t *thread) syncPost() {
	if t.ts != nil {
		t.ts.postMark = t.counters[CatWork]
		t.posted = true
		return
	}
	if t.order == nil {
		t.posted = true
		t.inOrdered = false
		return
	}
	t.counters[CatSync]++
	t.order.ticket.Store(t.curIter + 1)
	t.posted = true
	t.inOrdered = false
}
