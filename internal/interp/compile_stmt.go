package interp

import (
	"gdsx/internal/ast"
	"gdsx/internal/ctypes"
	"gdsx/internal/token"
)

// tickStmt wraps a compiled statement body with the per-statement work
// tick and, when the machine has an op budget, the budget check. A
// machine running under a cancellable context (Options.Ctx)
// additionally polls the stop flag at every statement; the check is
// compiled in only for such machines, so batch runs keep the tick
// branch-free.
func (c *compiler) tickStmt(pos token.Pos, body cstmt) cstmt {
	if c.cancellable {
		max := c.maxOp
		return func(t *thread, f *frame) ctrl {
			t.counters[CatWork]++
			if max > 0 && t.counters[CatWork] > max {
				rterrf(pos, "operation budget exceeded (%d ops)", max)
			}
			if t.m.stop.Load() {
				t.raiseCancelled()
			}
			return body(t, f)
		}
	}
	if max := c.maxOp; max > 0 {
		return func(t *thread, f *frame) ctrl {
			t.counters[CatWork]++
			if t.counters[CatWork] > max {
				rterrf(pos, "operation budget exceeded (%d ops)", max)
			}
			return body(t, f)
		}
	}
	return func(t *thread, f *frame) ctrl {
		t.counters[CatWork]++
		return body(t, f)
	}
}

// compileStmt compiles s to a closure executing it.
func (c *compiler) compileStmt(s ast.Stmt) cstmt {
	pos := s.Pos()
	switch x := s.(type) {
	case *ast.Block:
		return c.tickStmt(pos, c.compileBlock(x))

	case *ast.DeclStmt:
		if len(x.Decls) == 1 {
			cd := c.compileDecl(x.Decls[0])
			return c.tickStmt(pos, func(t *thread, f *frame) ctrl {
				cd(t, f)
				return ctrlNext
			})
		}
		decls := make([]func(t *thread, f *frame), len(x.Decls))
		for i, d := range x.Decls {
			decls[i] = c.compileDecl(d)
		}
		return c.tickStmt(pos, func(t *thread, f *frame) ctrl {
			for _, cd := range decls {
				cd(t, f)
			}
			return ctrlNext
		})

	case *ast.ExprStmt:
		ce := c.compileExpr(x.X)
		return c.tickStmt(pos, func(t *thread, f *frame) ctrl {
			ce(t, f)
			return ctrlNext
		})

	case *ast.If:
		cond := c.compileExpr(x.Cond)
		tr := truthC(x.Cond.ExprType())
		then := c.compileStmt(x.Then)
		if x.Else == nil {
			return c.tickStmt(pos, func(t *thread, f *frame) ctrl {
				if tr(cond(t, f)) {
					return then(t, f)
				}
				return ctrlNext
			})
		}
		els := c.compileStmt(x.Else)
		return c.tickStmt(pos, func(t *thread, f *frame) ctrl {
			if tr(cond(t, f)) {
				return then(t, f)
			}
			return els(t, f)
		})

	case *ast.While:
		return c.tickStmt(pos, c.compileWhile(x))

	case *ast.DoWhile:
		return c.tickStmt(pos, c.compileDoWhile(x))

	case *ast.For:
		return c.tickStmt(pos, c.compileFor(x))

	case *ast.Return:
		if x.X == nil {
			return c.tickStmt(pos, func(t *thread, f *frame) ctrl {
				t.retVal = value{}
				return ctrlReturn
			})
		}
		cx := c.compileExpr(x.X)
		cv := convC(x.X.ExprType(), c.curFn.Ret)
		return c.tickStmt(pos, func(t *thread, f *frame) ctrl {
			t.retVal = cv(cx(t, f))
			return ctrlReturn
		})

	case *ast.Break:
		return c.tickStmt(pos, func(t *thread, f *frame) ctrl { return ctrlBreak })

	case *ast.Continue:
		return c.tickStmt(pos, func(t *thread, f *frame) ctrl { return ctrlContinue })

	case *ast.SyncWait:
		return c.tickStmt(pos, func(t *thread, f *frame) ctrl {
			t.syncWait(pos)
			return ctrlNext
		})

	case *ast.SyncPost:
		return c.tickStmt(pos, func(t *thread, f *frame) ctrl {
			t.syncPost(pos)
			return ctrlNext
		})
	}
	return c.tickStmt(pos, fault[ctrl](pos, 0, "cannot execute statement"))
}

// compileBlock compiles a block body, releasing the stack space its
// declarations reserved on exit (no tick: function bodies run through
// here directly).
func (c *compiler) compileBlock(b *ast.Block) cstmt {
	stmts := make([]cstmt, len(b.Stmts))
	for i, s := range b.Stmts {
		stmts[i] = c.compileStmt(s)
	}
	if len(stmts) == 1 {
		s0 := stmts[0]
		return func(t *thread, f *frame) ctrl {
			mark := t.sp
			cc := s0(t, f)
			t.sp = mark
			if cc == ctrlNext {
				return ctrlNext
			}
			return cc
		}
	}
	return func(t *thread, f *frame) ctrl {
		mark := t.sp
		for _, cs := range stmts {
			if cc := cs(t, f); cc != ctrlNext {
				t.sp = mark
				return cc
			}
		}
		t.sp = mark
		return ctrlNext
	}
}

// compileDecl compiles one local variable declaration: size (VLA
// lengths evaluated at run time), alloca, slot definition, profiler
// definition report, then the initializer without access hooks.
func (c *compiler) compileDecl(d *ast.VarDecl) func(t *thread, f *frame) {
	pos := d.Pos()
	ty := d.Type
	idx := d.Sym.Index
	h := c.hooks
	defSite := d.Acc.Store

	if c.isPromoted(d.Sym) {
		// Promoted scalars keep the alloca and the definition report but
		// land their initial value in the register as well; with no
		// initializer the register starts zero, matching the zeroed slot.
		sz := ty.Size()
		var ci cexpr
		var cv cconv
		if d.Init != nil {
			ci = c.compileExpr(d.Init)
			cv = convC(d.Init.ExprType(), ty)
		}
		st := c.storerFor(ty)
		return func(t *thread, f *frame) {
			a := t.alloca(sz, pos)
			f.slots[idx] = a
			if h != nil {
				if h.Store != nil && t.isMain {
					h.Store(defSite, a, sz)
				}
				if h.Observe != nil && t.observeOK(h, a, sz) {
					h.Observe(Access{Site: defSite, Addr: a, Size: sz, Tid: t.tid,
						Iter: t.curIter, Store: true, Def: true, Ordered: t.inOrdered})
				}
			}
			if ci == nil {
				f.regs[idx] = value{}
				return
			}
			nv := cv(ci(t, f))
			f.regs[idx] = nv
			st(t, a, nv)
		}
	}

	var sizeOf func(t *thread, f *frame) int64
	switch {
	case d.VLALen != nil:
		cl := c.compileExpr(d.VLALen)
		name := d.Name
		elemTy := ty.Elem
		if elemTy.HasStaticSize() {
			esz := elemTy.Size()
			sizeOf = func(t *thread, f *frame) int64 {
				n := cl(t, f).I
				if n < 0 {
					rterrf(pos, "negative array length %d for %s", n, name)
				}
				size := n * esz
				if size == 0 {
					size = 1
				}
				return size
			}
		} else {
			sizeOf = func(t *thread, f *frame) int64 {
				n := cl(t, f).I
				if n < 0 {
					rterrf(pos, "negative array length %d for %s", n, name)
				}
				size := n * elemTy.Size()
				if size == 0 {
					size = 1
				}
				return size
			}
		}
	case ty.HasStaticSize():
		sz := ty.Size()
		sizeOf = func(t *thread, f *frame) int64 { return sz }
	default:
		sizeOf = func(t *thread, f *frame) int64 { return ty.Size() } // faults at run time
	}

	var init func(t *thread, f *frame, a int64)
	if d.Init != nil {
		ci := c.compileExpr(d.Init)
		if ty.Kind == ctypes.Struct {
			sz := ty.Size()
			mm := c.mem
			init = func(t *thread, f *frame, a int64) {
				src := ci(t, f).I
				mm.Memcpy(a, src, sz)
			}
		} else {
			cv := convC(d.Init.ExprType(), ty)
			st := c.storerFor(ty)
			init = func(t *thread, f *frame, a int64) {
				st(t, a, cv(ci(t, f)))
			}
		}
	}

	return func(t *thread, f *frame) {
		size := sizeOf(t, f)
		a := t.alloca(size, pos)
		f.slots[idx] = a
		if h != nil {
			if h.Store != nil && t.isMain {
				h.Store(defSite, a, size)
			}
			if h.Observe != nil && t.observeOK(h, a, size) {
				h.Observe(Access{Site: defSite, Addr: a, Size: size, Tid: t.tid,
					Iter: t.curIter, Store: true, Def: true, Ordered: t.inOrdered})
			}
		}
		if init != nil {
			init(t, f, a)
		}
	}
}

func (c *compiler) compileWhile(x *ast.While) cstmt {
	test := c.compileCondTest(x.Cond)
	body := c.compileStmt(x.Body)
	id := x.ID
	h := c.hooks
	if h == nil {
		return func(t *thread, f *frame) ctrl {
			mark := t.sp
			for {
				// Loop back-edges are cancellation safe points, so a
				// cancelled region (sibling fault, watchdog timeout) can
				// interrupt a worker stuck in a MiniC-level loop.
				if t.cancel != nil && t.cancel.Load() {
					panic(regionCanceled{})
				}
				if !test(t, f) {
					break
				}
				cc := body(t, f)
				if cc == ctrlBreak {
					break
				}
				if cc == ctrlReturn {
					return cc
				}
				// Release the iteration's temporaries (struct results).
				t.sp = mark
			}
			t.sp = mark
			return ctrlNext
		}
	}
	return func(t *thread, f *frame) ctrl {
		if t.isMain && h.LoopEnter != nil {
			h.LoopEnter(id)
		}
		mark := t.sp
		var iter int64
		for {
			if t.cancel != nil && t.cancel.Load() {
				panic(regionCanceled{}) // cancelled region safe point
			}
			if t.isMain && h.LoopIter != nil {
				h.LoopIter(id, iter)
			}
			iter++
			if !test(t, f) {
				break
			}
			cc := body(t, f)
			if cc == ctrlBreak {
				break
			}
			if cc == ctrlReturn {
				return cc
			}
			t.sp = mark
		}
		t.sp = mark
		if t.isMain && h.LoopExit != nil {
			h.LoopExit(id)
		}
		return ctrlNext
	}
}

func (c *compiler) compileDoWhile(x *ast.DoWhile) cstmt {
	test := c.compileCondTest(x.Cond)
	body := c.compileStmt(x.Body)
	id := x.ID
	h := c.hooks
	if h == nil {
		return func(t *thread, f *frame) ctrl {
			mark := t.sp
			for {
				if t.cancel != nil && t.cancel.Load() {
					panic(regionCanceled{}) // cancelled region safe point
				}
				cc := body(t, f)
				if cc == ctrlBreak {
					break
				}
				if cc == ctrlReturn {
					return cc
				}
				if !test(t, f) {
					break
				}
				t.sp = mark // release the iteration's temporaries
			}
			t.sp = mark
			return ctrlNext
		}
	}
	return func(t *thread, f *frame) ctrl {
		if t.isMain && h.LoopEnter != nil {
			h.LoopEnter(id)
		}
		mark := t.sp
		var iter int64
		for {
			if t.cancel != nil && t.cancel.Load() {
				panic(regionCanceled{}) // cancelled region safe point
			}
			if t.isMain && h.LoopIter != nil {
				h.LoopIter(id, iter)
			}
			iter++
			cc := body(t, f)
			if cc == ctrlBreak {
				break
			}
			if cc == ctrlReturn {
				return cc
			}
			if !test(t, f) {
				break
			}
			t.sp = mark
		}
		t.sp = mark
		if t.isMain && h.LoopExit != nil {
			h.LoopExit(id)
		}
		return ctrlNext
	}
}

// compileFor compiles a for loop, dispatching between sequential,
// traced and parallel execution. The machine options that pick the
// mode are fixed at compile time; only "am I already inside a parallel
// region" stays a runtime test.
func (c *compiler) compileFor(x *ast.For) cstmt {
	seq := c.compileSeqFor(x)
	if x.Par == ast.Sequential {
		return seq
	}

	var traced cstmt
	if c.m.opts.TraceParallel {
		traced = c.compileTracedFor(x)
	}
	useParallel := (c.m.opts.NumThreads > 1 || c.m.opts.ParallelizeSingle) &&
		!c.m.opts.ForceSequential
	if traced == nil && !useParallel {
		return seq
	}

	var par *parFor
	if traced == nil {
		par = &parFor{x: x, bounds: c.compileBounds(x),
			body: c.compileStmt(x.Body), seq: seq}
		if x.Init != nil {
			par.init = c.compileStmt(x.Init)
		}
	}

	return func(t *thread, f *frame) ctrl {
		if !t.parallel && t.ts == nil {
			if traced != nil {
				return traced(t, f)
			}
			return t.runParallelFor(f, par)
		}
		if t.order == nil {
			return seq(t, f)
		}
		// A parallel loop nested in a DOACROSS worker's iteration runs
		// sequentially, so its ordered sections order nothing. Without
		// the worker's order its __sync_wait/__sync_post do nothing
		// (see syncWait), instead of acting on the outer region's
		// ticket and the worker's posted and in-section state.
		order := t.order
		t.order = nil
		cc := seq(t, f)
		t.order = order
		return cc
	}
}

// compileSeqFor compiles a for loop run sequentially (also used for
// parallel loops under one thread or ForceSequential).
func (c *compiler) compileSeqFor(x *ast.For) cstmt {
	var init cstmt
	if x.Init != nil {
		init = c.compileStmt(x.Init)
	}
	var test func(t *thread, f *frame) bool
	if x.Cond != nil {
		test = c.compileCondTest(x.Cond)
	}
	var post cexpr
	if x.Post != nil {
		post = c.compileExpr(x.Post)
	}
	body := c.compileStmt(x.Body)
	id := x.ID
	h := c.hooks

	return func(t *thread, f *frame) ctrl {
		mark := t.sp
		defer func() { t.sp = mark }()
		if init != nil {
			if cc := init(t, f); cc != ctrlNext {
				return cc
			}
		}
		if h != nil && t.isMain && h.LoopEnter != nil {
			h.LoopEnter(id)
		}
		// Each iteration releases its temporaries (struct results of
		// the condition, body and post expression) down to the stack
		// top after the initializer.
		iterMark := t.sp
		var iter int64
		for {
			if t.cancel != nil && t.cancel.Load() {
				panic(regionCanceled{}) // cancelled region safe point
			}
			// Fire the iteration hook before the condition so the profiler
			// attributes condition and post-expression accesses to the
			// iteration they belong to (see package profile).
			if h != nil && t.isMain && h.LoopIter != nil {
				h.LoopIter(id, iter)
			}
			if test != nil && !test(t, f) {
				break
			}
			// A sequentially executed DOACROSS body still runs its
			// SyncWait/SyncPost statements; they are no-ops without an
			// order (syncWait checks t.order first, and compileFor clears
			// a worker's order around a nested parallel loop). No
			// bookkeeping may happen here: this path also executes nested
			// parallel loops inside a worker's iteration, and touching
			// t.curIter would corrupt the worker's ordered-section ticket.
			iter++
			cc := body(t, f)
			if cc == ctrlBreak {
				break
			}
			if cc == ctrlReturn {
				return cc
			}
			if post != nil {
				post(t, f)
			}
			t.sp = iterMark
		}
		if h != nil && t.isMain && h.LoopExit != nil {
			h.LoopExit(id)
		}
		return ctrlNext
	}
}

// compileTracedFor compiles a parallel loop for sequential execution
// that records the per-iteration cost trace the schedule simulator
// replays.
func (c *compiler) compileTracedFor(x *ast.For) cstmt {
	var init cstmt
	if x.Init != nil {
		init = c.compileStmt(x.Init)
	}
	var cond cexpr
	var trc func(value) bool
	if x.Cond != nil {
		cond = c.compileExpr(x.Cond)
		trc = truthC(x.Cond.ExprType())
	}
	var post cexpr
	if x.Post != nil {
		post = c.compileExpr(x.Post)
	}
	body := c.compileStmt(x.Body)
	id := x.ID
	kind := x.Par
	nt := c.m.opts.NumThreads
	h := c.hooks

	return func(t *thread, f *frame) ctrl {
		tr := &LoopTrace{LoopID: id, Kind: kind}
		t.ts = &traceState{trace: tr}
		if h != nil && h.ParallelStart != nil {
			h.ParallelStart(id, nt)
		}
		defer func() {
			t.ts = nil
			t.m.traces = append(t.m.traces, tr)
			if h != nil && h.ParallelEnd != nil {
				h.ParallelEnd(id)
			}
		}()

		mark := t.sp
		defer func() { t.sp = mark }()
		if init != nil {
			if cc := init(t, f); cc != ctrlNext {
				return cc
			}
		}
		iterMark := t.sp
		var iter int64
		for {
			if cond != nil && !trc(cond(t, f)) {
				break
			}
			t.curIter = iter
			t.posted = false
			iter++
			t.ts.beginIter(t)
			cc := body(t, f)
			t.ts.endIter(t)
			if cc == ctrlBreak {
				break
			}
			if cc == ctrlReturn {
				return cc
			}
			if post != nil {
				post(t, f)
			}
			t.sp = iterMark
		}
		return ctrlNext
	}
}
