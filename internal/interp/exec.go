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
// parallel DOACROSS execution it is a no-op. A worker without an order
// runs a DOALL body or a nested loop, whose sections order nothing, so
// there it leaves the worker's state alone: marking its accesses as
// ordered would hide their conflicts from the guard, which treats two
// ordered accesses as serialized.
func (t *thread) syncWait(pos token.Pos) {
	if t.ts != nil {
		t.ts.waitMark = t.counters[CatWork]
		return
	}
	if t.order == nil {
		if !t.parallel {
			t.inOrdered = true
		}
		return
	}
	t.counters[CatSync]++
	t.awaitTurn(pos)
	t.inOrdered = true
}

// syncPost releases the next iteration's ordered section. A post made
// outside the ordered section — by an iteration that skipped it, or a
// __sync_post with no __sync_wait before it — first waits for the
// iteration's turn: storing the ticket early would move it past an
// earlier iteration that has not reached its __sync_wait yet, and that
// iteration would then wait forever.
func (t *thread) syncPost(pos token.Pos) {
	if t.ts != nil {
		t.ts.postMark = t.counters[CatWork]
		t.posted = true
		return
	}
	if t.order == nil {
		if !t.parallel {
			t.posted = true
			t.inOrdered = false
		}
		return
	}
	t.counters[CatSync]++
	if !t.inOrdered {
		t.awaitTurn(pos)
	}
	t.order.ticket.Store(t.curIter + 1)
	t.posted = true
	t.inOrdered = false
}

// awaitTurn spins until the ordered-section ticket reaches the thread's
// iteration. Every post waits for its turn, so the ticket passes an
// iteration only once that iteration has posted; an iteration that
// finds its ticket already passed is waiting for a section it released
// itself, and raises an error rather than spinning forever.
func (t *thread) awaitTurn(pos token.Pos) {
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
	for {
		tk := t.order.ticket.Load()
		if tk == t.curIter {
			break
		}
		if tk > t.curIter {
			rterrf(pos, "ordered section of iteration %d already released", t.curIter)
		}
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
}
