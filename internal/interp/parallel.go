package interp

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gdsx/internal/ast"
	"gdsx/internal/obs"
	"gdsx/internal/token"
)

// loopBounds describes the iteration space of a parallel for loop:
// iteration k executes with indvar = start + k*step, for k in [0, n).
type loopBounds struct {
	start, step, n int64
}

// compileBounds compiles the iteration-space computation of parallel
// loop x. Parallel loops require loop-invariant bound and step
// expressions (as in OpenMP); the returned closure evaluates both once
// per region entry. Sema admits only the step shapes i++, i += e and
// i = i + e (or e + i), and only a comparison as the condition; the
// shapes it admits but the runtime cannot use fail at region entry.
func (c *compiler) compileBounds(x *ast.For) func(t *thread, f *frame) loopBounds {
	iv := x.IndVar
	pos := x.Pos()

	// Step from the post expression; nil means a zero step.
	var step cexpr
	unsupported := false
	switch p := x.Post.(type) {
	case *ast.IncDec:
		step = func(t *thread, f *frame) value { return value{I: 1} }
	case *ast.Assign:
		switch p.Op {
		case token.ADDASSIGN:
			step = c.compileExpr(p.RHS)
		case token.ASSIGN:
			b, ok := p.RHS.(*ast.Binary)
			if ok && b.Op == token.ADD {
				if id, ok := b.X.(*ast.Ident); ok && id.Sym == iv {
					step = c.compileExpr(b.Y)
				} else if id, ok := b.Y.(*ast.Ident); ok && id.Sym == iv {
					step = c.compileExpr(b.X)
				}
			}
			unsupported = step == nil
		}
	}

	// Bound from the condition, mirrored so the induction variable is
	// on the left; nil when the condition does not test it.
	cond := x.Cond.(*ast.Binary)
	op := cond.Op
	var bound cexpr
	if id, ok := cond.X.(*ast.Ident); ok && id.Sym == iv {
		bound = c.compileExpr(cond.Y)
	} else if id, ok := cond.Y.(*ast.Ident); ok && id.Sym == iv {
		bound = c.compileExpr(cond.X)
		switch op {
		case token.LSS:
			op = token.GTR
		case token.GTR:
			op = token.LSS
		case token.LEQ:
			op = token.GEQ
		case token.GEQ:
			op = token.LEQ
		}
	}

	return func(t *thread, f *frame) loopBounds {
		start := t.loadTyped(t.symAddr(f, iv, pos), iv.Type).I
		if unsupported {
			rterrf(pos, "unsupported parallel loop step")
		}
		var st int64
		if step != nil {
			st = step(t, f).I
		}
		if st == 0 {
			rterrf(pos, "parallel loop has zero step")
		}
		if bound == nil {
			rterrf(pos, "parallel loop condition does not test the induction variable")
		}
		return iterSpace(start, st, bound(t, f).I, op)
	}
}

// iterSpace counts the iterations of a loop running its induction
// variable from start by step while "indvar op bound" holds.
func iterSpace(start, step, bound int64, op token.Kind) loopBounds {
	var n int64
	switch op {
	case token.LSS:
		if step > 0 && bound > start {
			n = (bound - start + step - 1) / step
		}
	case token.LEQ:
		if step > 0 && bound >= start {
			n = (bound-start)/step + 1
		}
	case token.GTR:
		if step < 0 && bound < start {
			n = (start - bound + (-step) - 1) / (-step)
		}
	case token.GEQ:
		if step < 0 && bound <= start {
			n = (start-bound)/(-step) + 1
		}
	case token.NEQ:
		if step != 0 && (bound-start)%step == 0 && (bound-start)/step > 0 {
			n = (bound - start) / step
		}
	}
	return loopBounds{start: start, step: step, n: n}
}

// hasSyncStmts reports whether the loop body contains ordered-section
// markers placed by the sync-placement pass.
func hasSyncStmts(body ast.Stmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.SyncWait, *ast.SyncPost:
			found = true
		}
		return !found
	})
	return found
}

// parFor is a parallel for loop compiled for runParallelFor: init
// executes the loop initializer (nil when the loop has none), bounds
// computes the iteration space, body executes one iteration's body,
// and seq executes the entire loop sequentially on the calling thread
// (the sequential-for path), used by region recovery and demotion.
type parFor struct {
	x      *ast.For
	init   cstmt
	bounds func(t *thread, f *frame) loopBounds
	body   cstmt
	seq    cstmt
}

// runParallelFor executes a parallel-annotated for loop with
// N = Options.NumThreads simulated threads, one goroutine each.
// Dispatch follows Options.Sched: under the default SchedStealing,
// DOALL loops run on per-worker work-stealing deques (see sched.go)
// and DOACROSS loops self-schedule one iteration at a time from a
// shared counter; under SchedStatic every worker runs its contiguous
// static share, DOACROSS workers still entering their ordered sections
// in iteration order. Either way a worker runs the iterations it claims
// through runIters.
//
// Without Options.Recover the parallel attempt's failures propagate as
// panics (Machine.Run unwraps them into errors); with it, a guard
// abort, worker fault or watchdog timeout rolls the region back to its
// entry snapshot and re-executes just this loop via seq, so the run
// survives at O(region) cost. Neither path breaks or returns out of
// the loop: sema rejects a break or return whose innermost loop is
// parallel.
func (t *thread) runParallelFor(f *frame, p *parFor) ctrl {
	x := p.x
	rc := t.m.recovery
	if rc == nil {
		t.parallelAttempt(f, p)
		return ctrlNext
	}
	if !rc.admit(x.ID) {
		// Demoted: run sequentially without snapshot or region hooks.
		return p.seq(t, f)
	}
	snap := t.beginRegionSnapshot()
	var fail *regionFault
	func() {
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			switch v := r.(type) {
			case Abort:
				// The guard monitor aborted at the safe point: a
				// dependence violation.
				fail = &regionFault{kind: FailViolation, err: v.Err}
			case regionFault:
				fail = &v
			default:
				// A fault in region setup (bounds evaluation, spawning)
				// or an interpreter bug — not a contained worker fault.
				// Recovery cannot assume sequential re-execution
				// converges (a zero-step parallel loop re-executed
				// sequentially never terminates), so keep the state and
				// propagate.
				t.m.mem.Commit(snap.ms)
				panic(r)
			}
		}()
		t.parallelAttempt(f, p)
	}()
	if fail == nil && t.m.faults.injectRollback() {
		// Chaos injection (Options.FaultPlan): an otherwise-committing
		// region may be forced to roll back, exercising the ladder's
		// recovery path on demand.
		fail = &regionFault{kind: FailFault, err: fmt.Errorf("fault plan: injected rollback")}
	}
	if fail == nil {
		pages, bytes := t.m.mem.Commit(snap.ms)
		rc.noteSuccess(x.ID, pages, bytes)
		return ctrlNext
	}
	pages, bytes := t.rollbackRegion(snap)
	rc.noteFailure(x.ID, fail, pages, bytes)
	// Re-execute only this region, sequentially, from the restored
	// pre-region state. On thread 0 the expanded program touches only
	// copy 0 of every expanded structure, so this reproduces native
	// sequential semantics.
	return p.seq(t, f)
}

// parallelAttempt runs one parallel execution of the region. It
// returns normally on success and panics on failure: interp.Abort for
// a guard violation (raised by the monitor's safe-point hook),
// regionFault for a contained worker fault or a watchdog timeout.
func (t *thread) parallelAttempt(f *frame, p *parFor) {
	x := p.x
	if p.init != nil {
		p.init(t, f)
	}
	lb := p.bounds(t, f)
	iv := x.IndVar
	ivAddr := t.symAddr(f, iv, x.Pos())
	nt := t.m.opts.NumThreads
	if h := t.m.opts.Hooks; h != nil && h.ParallelStart != nil {
		h.ParallelStart(x.ID, nt)
	}
	var timedOut atomic.Bool
	t.m.inParallel = true
	defer func() {
		t.m.inParallel = false
		h := t.m.opts.Hooks
		if h == nil {
			return
		}
		if timedOut.Load() || t.m.stop.Load() {
			// The region was abandoned mid-flight (watchdog timeout or
			// machine-level context cancellation): per-thread logs are
			// partial, so the monitor must discard them rather than run
			// its safe-point replay on a truncated schedule.
			if h.ParallelCancel != nil {
				h.ParallelCancel(x.ID)
			}
			return
		}
		if h.ParallelEnd != nil {
			h.ParallelEnd(x.ID)
		}
	}()

	policy := t.m.opts.Sched
	reg := &region{x: x, lb: lb, body: p.body}
	if x.Par == ast.DOACROSS && hasSyncStmts(x.Body) {
		reg.order = &orderState{}
	}
	if h := t.m.opts.Hooks; h != nil {
		reg.iterStart, reg.iterEnd = h.IterStart, h.IterEnd
	}
	if x.Par == ast.DOALL && policy != SchedStatic {
		reg.steal = newStealState(lb.n, nt)
	}

	workers := make([]*thread, nt)
	for i := 0; i < nt; i++ {
		w, err := t.m.newThread(i)
		if err != nil {
			rterrf(x.Pos(), "spawning thread %d: %v", i, err)
		}
		w.parallel = true
		workers[i] = w
	}

	// Worker-fault containment: the first fault (in iteration order, to
	// match what sequential execution would hit first) cancels the
	// remaining workers at their next safe point — the iteration
	// dispatch, or the ordered-section spin, where a dead predecessor
	// would otherwise leave them waiting forever — and is re-raised on
	// the spawning thread as a positioned runtime error.
	var cancel atomic.Bool
	// Region watchdog: a stuck region (a worker spinning on state a
	// cancelled or misbehaving sibling will never produce) is cancelled
	// at the workers' next safe point — iteration dispatch, the
	// ordered-section spin, or any loop back-edge.
	if d := t.m.opts.RegionTimeout; d > 0 {
		timer := time.AfterFunc(d, func() {
			timedOut.Store(true)
			cancel.Store(true)
		})
		defer timer.Stop()
	}
	var wg sync.WaitGroup
	faults := make([]*workerFault, nt)
	for i := 0; i < nt; i++ {
		w := workers[i]
		w.cancel = &cancel
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(regionCanceled); ok {
						return
					}
					faults[idx] = &workerFault{iter: workers[idx].curIter, tid: idx, val: r}
					cancel.Store(true)
				}
			}()
			w.runWorker(reg, f)
		}(i)
	}
	wg.Wait()
	if o := t.m.opts.Obs; o != nil {
		var steals int64
		if reg.steal != nil {
			steals = reg.steal.steals.Load()
		}
		o.Emit(obs.Event{Name: "sched", Ph: 'i', Loop: x.ID, Iter: -1,
			Label: policy.String(), V1: steals, V2: int64(nt)})
	}

	for _, w := range workers {
		w.cancel = nil
		t.m.mergeCounters(w)
		w.release()
	}
	// Machine-level cancellation takes precedence over any worker fault
	// that raced with it: cancelled workers exit via regionCanceled (no
	// fault recorded), so honoring a raced fault here would make the
	// reported error depend on scheduling. The cancellation propagates
	// as a run-level panic — region recovery must not retry it.
	if t.m.stop.Load() {
		t.raiseCancelled()
	}
	if fault := firstFault(faults); fault != nil {
		if re, ok := fault.val.(RuntimeError); ok {
			// Annotate and re-panic as a contained region failure; the
			// region recovery (or, without one, Machine.Run) turns it
			// into the error callers see. The panic unwinds through the
			// deferred ParallelEnd above, so a guard monitor still gets
			// its safe-point check (a detected dependence violation
			// there takes precedence over the worker fault).
			// The message names the iteration but not the executing
			// worker: the iteration is sequential semantics, while the
			// iteration-to-thread assignment is a scheduling accident
			// (under work stealing it varies run to run), and fault
			// messages must be identical across scheduling policies.
			panic(regionFault{kind: FailFault, err: RuntimeError{Pos: re.Pos,
				Msg: fmt.Sprintf("%s (parallel worker, iteration %d)", re.Msg, fault.iter)}})
		}
		panic(fault.val) // interpreter bug: propagate unchanged
	}
	if timedOut.Load() {
		panic(regionFault{kind: FailTimeout, err: RuntimeError{Pos: x.Pos(),
			Msg: fmt.Sprintf("parallel region timed out after %v", t.m.opts.RegionTimeout)}})
	}
	// Sequential semantics after the loop: the induction variable holds
	// its first value failing the condition.
	t.storeTyped(ivAddr, iv.Type, truncInt(lb.start+lb.n*lb.step, iv.Type))
}

// workerFault records a panic caught in a parallel worker.
type workerFault struct {
	iter int64
	tid  int
	val  any
}

// regionCanceled is panicked inside a worker whose region was cancelled
// by a sibling's fault; the worker's recover swallows it.
type regionCanceled struct{}

// firstFault selects the fault of the earliest iteration (ties broken
// by thread ID), deterministically matching the fault sequential
// execution would reach first.
func firstFault(faults []*workerFault) *workerFault {
	var first *workerFault
	for _, fa := range faults {
		if fa == nil {
			continue
		}
		if first == nil || fa.iter < first.iter {
			first = fa
		}
	}
	return first
}

// region is the dispatch state one parallel attempt shares among its
// workers.
type region struct {
	x    *ast.For
	lb   loopBounds
	body cstmt
	// order is the ordered-section ticket of a DOACROSS loop with sync
	// statements, nil otherwise.
	order *orderState
	// next is the DOACROSS self-scheduling counter: the lowest
	// iteration no worker has claimed.
	next atomic.Int64
	// steal holds the deques of a DOALL loop under SchedStealing.
	steal              *stealState
	iterStart, iterEnd func(loopID int, iter int64, tid int)
}

// runWorker runs worker w's part of region r on a copy of the spawning
// frame f, the bottom record of w's own frame stack. f stays live
// while the spawning thread waits for the region, and the copy keeps
// no register file: promotion is off for every symbol a parallel loop
// mentions (see promotableSlots). The schedule only decides which
// ranges of iterations w claims; runIters runs each. Dispatch is
// charged one CatSync op per DOALL worker here and one per DOACROSS
// iteration in runIters, under every policy, so counters do not depend
// on the schedule.
func (w *thread) runWorker(r *region, f *frame) {
	x := r.x
	wf := w.pushFrame(f.fn, len(f.slots), 0, x.Pos())
	copy(wf.slots, f.slots)
	// Private induction variable cell on the worker's stack.
	wf.slots[x.IndVar.Index] = w.alloca(x.IndVar.Type.Size(), x.Pos())
	w.order = r.order
	if x.Par == ast.DOALL {
		w.counters[CatSync]++
	}
	switch {
	case w.m.opts.Sched == SchedStatic:
		lo, hi := staticShare(w.tid, w.m.opts.NumThreads, r.lb.n)
		w.runIters(r, wf, lo, hi)
	case r.steal != nil:
		w.runStealing(r, wf)
	default:
		// DOACROSS self-scheduling with the paper's chunk size 1.
		for {
			k := r.next.Add(1) - 1
			if k >= r.lb.n || !w.runIters(r, wf, k, k+1) {
				return
			}
		}
	}
}

// runIters runs iterations [lo, hi) of region r on worker w with frame
// f. It returns false, at the safe point before an iteration, once a
// sibling's fault has cancelled the region. Like every loop, it
// releases an iteration's stack temporaries when the iteration ends.
func (w *thread) runIters(r *region, f *frame, lo, hi int64) bool {
	x, lb, body := r.x, r.lb, r.body
	pv := f.slots[x.IndVar.Index]
	doacross := x.Par == ast.DOACROSS
	mark := w.sp
	for k := lo; k < hi; k++ {
		if w.cancel.Load() {
			return false
		}
		if doacross {
			w.counters[CatSync]++ // one dispatch per iteration
			w.posted, w.inOrdered = false, false
		}
		w.curIter = k
		w.storeTyped(pv, x.IndVar.Type, value{I: lb.start + k*lb.step})
		if r.iterStart != nil {
			r.iterStart(x.ID, k, w.tid)
		}
		body(w, f)
		if r.iterEnd != nil {
			r.iterEnd(x.ID, k, w.tid)
		}
		// An iteration that skipped its ordered section posts now, in
		// its turn, so later iterations are not blocked forever.
		if r.order != nil && !w.posted {
			w.syncPost(x.Pos())
		}
		w.sp = mark
	}
	return true
}
