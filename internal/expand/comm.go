package expand

import (
	"fmt"
	"slices"
	"sort"

	"gdsx/internal/ast"
	"gdsx/internal/ctypes"
	"gdsx/internal/ddg"
	"gdsx/internal/token"
)

// Commutative-update privatization. A class the classifier marked
// Commutative (every profiled site the same reduction operator, every
// carried dependence internal to the class) cannot be expanded, since
// its carried flow is real, but each thread can apply its updates to a
// private copy and the copies merge after the loop. The pass emits
// that as MiniC around the loop:
//
//	long *__comm1 = (long*)malloc(SPAN * __nthreads);
//	int __c1;
//	for (__c1 = 0; __c1 < CNT * __nthreads; __c1++) __comm1[__c1] = INIT;
//	parallel for (...) { ... __comm1[__tid * CNT + k] += x; ... }
//	for (__c1 = 0; __c1 < CNT * __nthreads; __c1++) MERGE;
//	free(__comm1);
//
// CNT is the element count and k an array accumulator's index. INIT is
// 0 for add; min and max are idempotent, so their copies start at the
// accumulator's own value, an identity for every integer type. MERGE
// folds copy element __c1 into accumulator element __c1 % CNT.
//
// The profile only nominates candidates: an input it never saw may
// touch the accumulator elsewhere, and the guard cannot see an access
// that reads a thread's copy. So a candidate is privatized only when
// static checks prove every access to it during the loop is one of its
// updates: its address never escapes anywhere in the program (no &acc
// or &acc[k], and an array is only ever the base of an index); every
// reference in the loop statement is an update sema tagged with the
// class's operator, whose value is discarded, and none is in the
// header; and no function the loop calls, transitively, names it.
//
// The copies are a plain malloc with no guard note, since the guard's
// carried-flow rule would flag every update of a noted copy; each
// thread touches only its own. A sequential run of the loop (one thread,
// rollback, demotion, ForceSequential, tracing) runs every iteration
// as __tid 0, and the other copies keep their initial value, so the
// merge is still exact.

// commPlan is one accumulator to privatize around one loop.
type commPlan struct {
	lc   *loopCtx
	sym  *ast.Symbol
	op   ddg.CommOp
	span int64 // accumulator bytes
	esz  int64 // element bytes
}

// planComm selects the commutative classes to privatize. Runs after
// computeExpansionSet: an object the expansion already privatizes
// (reachable from thread-private accesses of another loop) keeps the
// expansion — redirecting those accesses requires the copies to exist.
func (p *pass) planComm() {
	if !p.opts.Commutative {
		return
	}
	escaped := addrEscapes(p.in.Prog)
	for i := range p.loops {
		lc := &p.loops[i]
		for _, c := range lc.an.Class.Classes {
			if !c.Commutative {
				continue
			}
			sym := p.commTarget(c)
			if sym == nil || p.expandSet[objVar(sym)] || p.commPlanned(sym, lc.stmt) || escaped[sym] {
				continue
			}
			span, esz, ok := commGeometry(sym.Type)
			if !ok || callReaches(lc.stmt, sym) || !p.onlyCommUpdates(lc.stmt, sym, c.CommOp) {
				continue
			}
			p.commPlans = append(p.commPlans, commPlan{lc: lc, sym: sym, op: c.CommOp, span: span, esz: esz})
			if p.commSites == nil {
				p.commSites = map[int]bool{}
			}
			for _, s := range c.Sites {
				p.commSites[s] = true
			}
			p.report.CommClasses++
			p.report.CommNotes = append(p.report.CommNotes,
				fmt.Sprintf("loop %d: %s %s span=%d esz=%d", lc.an.ID, sym.Name, c.CommOp, span, esz))
		}
	}
	sort.Strings(p.report.CommNotes)
}

// commPlanned reports whether sym is already privatized around loop, a
// loop nested in it, or a loop it is nested in: a second rewrite would
// send the inner loop's updates into the outer loop's copies.
func (p *pass) commPlanned(sym *ast.Symbol, loop *ast.For) bool {
	for _, pl := range p.commPlans {
		if pl.sym == sym && (encloses(pl.lc.stmt, loop) || encloses(loop, pl.lc.stmt)) {
			return true
		}
	}
	return false
}

// commTarget resolves the single named variable every site of the
// class designates, or nil.
func (p *pass) commTarget(c *ddg.Class) *ast.Symbol {
	var sym *ast.Symbol
	for _, site := range c.Sites {
		as := p.in.Info.Accesses[site]
		if as == nil {
			return nil
		}
		var s *ast.Symbol
		switch n := as.Node.(type) {
		case *ast.Ident:
			s = n.Sym
		case *ast.Index:
			if id, ok := n.X.(*ast.Ident); ok && id.Sym != nil && id.Sym.Type != nil &&
				id.Sym.Type.Kind == ctypes.Array {
				s = id.Sym
			}
		}
		if s == nil || (sym != nil && s != sym) {
			return nil
		}
		sym = s
	}
	if sym == nil || p.bodyDecls[sym] {
		return nil
	}
	switch sym.Kind {
	case ast.SymGlobal, ast.SymLocal:
		return sym
	}
	return nil
}

// commMaxSpan bounds the accumulators privatized. The copies take
// span bytes per thread from the simulated heap, where a malloc that
// fails is a runtime error, and their set-up and merge run span/esz x
// threads iterations sequentially at every entry to the loop, while a
// shared accumulator costs only the guard's rollbacks. The bound sits
// near the break-even of a histogram loop of 8,192 iterations run
// guarded with recovery (2 CPUs): privatizing took 0.80-0.88x the
// shared run's time at 64 KiB and 2 threads, 1.08-1.19x at 4 threads,
// and 1.04-1.90x at 128 and 256 KiB. A longer loop moves it up.
const commMaxSpan = 64 << 10

// commGeometry returns the accumulator's (span, esz) or ok=false when
// the type is not a statically sized integer scalar or array of at
// most commMaxSpan bytes.
func commGeometry(t *ctypes.Type) (span, esz int64, ok bool) {
	if t == nil || !t.HasStaticSize() || t.Size() > commMaxSpan {
		return 0, 0, false
	}
	elem := t
	if t.Kind == ctypes.Array {
		elem = t.Elem
	}
	if !elem.IsInteger() {
		return 0, 0, false
	}
	return t.Size(), elem.Size(), true
}

// onlyCommUpdates reports whether every reference to sym in the loop
// statement is a commutative update under op whose value is discarded:
// the target of an assignment or increment statement, or an operand of
// an if condition's comparison (the min/max shape). Sema's tag on the
// reference's sites confirms the shape; the position rules out uses of
// an update's value, such as out[i] = total++.
func (p *pass) onlyCommUpdates(loop *ast.For, sym *ast.Symbol, op ddg.CommOp) bool {
	for _, h := range []ast.Node{loop.Init, loop.Cond, loop.Post} {
		if refers(h, sym) {
			return false
		}
	}
	update := map[ast.Expr]bool{}
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ExprStmt:
			switch u := x.X.(type) {
			case *ast.Assign:
				update[u.LHS] = true
			case *ast.IncDec:
				update[u.X] = true
			}
		case *ast.If:
			if b, ok := x.Cond.(*ast.Binary); ok {
				update[b.X], update[b.Y] = true, true
			}
		}
		return true
	})
	tagged := func(site int) bool {
		as := p.in.Info.Accesses[site]
		return site == 0 || (as != nil && as.Comm == op)
	}
	ok := true
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		var ref ast.Expr
		var acc ast.Access
		switch x := n.(type) {
		case *ast.Ident:
			if x.Sym == sym && sym.Type.Kind != ctypes.Array {
				ref, acc = x, x.Acc
			}
		case *ast.Index:
			if id, isID := x.X.(*ast.Ident); isID && id.Sym == sym {
				ref, acc = x, x.Acc
			}
		}
		if ref != nil && (!update[ref] || acc == (ast.Access{}) || !tagged(acc.Load) || !tagged(acc.Store)) {
			ok = false
		}
		return ok
	})
	return ok
}

// refers reports whether the subtree names sym.
func refers(n ast.Node, sym *ast.Symbol) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && id.Sym == sym {
			found = true
		}
		return !found
	})
	return found
}

// encloses reports whether inner is outer or lies inside it.
func encloses(outer, inner ast.Node) bool {
	found := false
	ast.Inspect(outer, func(n ast.Node) bool {
		found = found || n == inner
		return !found
	})
	return found
}

// callReaches reports whether a function the subtree calls, directly
// or transitively, names sym.
func callReaches(n ast.Node, sym *ast.Symbol) bool {
	seen := map[*ast.FuncDecl]bool{}
	var reach func(ast.Node) bool
	reach = func(n ast.Node) bool {
		found := false
		ast.Inspect(n, func(m ast.Node) bool {
			if c, ok := m.(*ast.Call); ok && !found && c.Fun.Sym != nil && c.Fun.Sym.Fn != nil && !seen[c.Fun.Sym.Fn] {
				seen[c.Fun.Sym.Fn] = true
				found = refers(c.Fun.Sym.Fn, sym) || reach(c.Fun.Sym.Fn)
			}
			return !found
		})
		return found
	}
	return reach(n)
}

// addrEscapes returns the variables whose address the program can
// observe: the operand of & (or the base of an indexed operand, as in
// &a[k]), and arrays used other than as the base of an index
// expression, which decays them to a pointer.
func addrEscapes(prog *ast.Program) map[*ast.Symbol]bool {
	out := map[*ast.Symbol]bool{}
	based := map[*ast.Ident]bool{}
	ast.Inspect(prog, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Unary:
			if x.Op != token.AND {
				break
			}
			e := x.X
			for ix, ok := e.(*ast.Index); ok; ix, ok = e.(*ast.Index) {
				e = ix.X
			}
			if id, ok := e.(*ast.Ident); ok && id.Sym != nil {
				out[id.Sym] = true
			}
		case *ast.Index:
			if id, ok := x.X.(*ast.Ident); ok {
				based[id] = true
			}
		case *ast.Ident:
			if x.Sym != nil && x.Sym.Type != nil && x.Sym.Type.Kind == ctypes.Array && !based[x] {
				out[x.Sym] = true
			}
		}
		return true
	})
	return out
}

// emitCommPlans rewrites each planned accumulator's references in its
// loop body to the thread's copy and places the allocation, the copy
// initialization, the merge and the free around the loop.
func (p *pass) emitCommPlans() {
	before := map[ast.Stmt][]ast.Stmt{}
	after := map[ast.Stmt][]ast.Stmt{}
	for _, pl := range p.commPlans {
		p.tmpN++
		copies := fmt.Sprintf("__comm%d", p.tmpN)
		ctr := fmt.Sprintf("__c%d", p.tmpN)
		cnt := pl.span / pl.esz
		isArr := pl.sym.Type.Kind == ctypes.Array
		ptr := ctypes.PointerTo(pl.sym.Type)
		if isArr {
			ptr = ctypes.PointerTo(pl.sym.Type.Elem)
		}
		ast.RewriteExprs(pl.lc.stmt.Body, func(e ast.Expr) ast.Expr {
			switch x := e.(type) {
			case *ast.Ident:
				if x.Sym == pl.sym && !isArr {
					return index(ident(copies), tidExpr())
				}
			case *ast.Index:
				if id, ok := x.X.(*ast.Ident); ok && id.Sym == pl.sym {
					return index(ident(copies), add(mul(tidExpr(), intLit(cnt)), x.I))
				}
			}
			return e
		})

		each := func(body ast.Stmt) ast.Stmt {
			return &ast.For{
				Init: assign(ident(ctr), intLit(0)),
				Cond: &ast.Binary{Op: token.LSS, X: ident(ctr), Y: mul(intLit(cnt), nthExpr())},
				Post: &ast.IncDec{Op: token.INC, X: ident(ctr), Post: true},
				Body: body,
			}
		}
		cp := func() ast.Expr { return index(ident(copies), ident(ctr)) }
		acc := func() ast.Expr {
			if !isArr {
				return ident(pl.sym.Name)
			}
			return index(ident(pl.sym.Name), &ast.Binary{Op: token.REM, X: ident(ctr), Y: intLit(cnt)})
		}
		init, merge := ast.Expr(intLit(0)), ast.Stmt(&ast.ExprStmt{X: &ast.Assign{Op: token.ADDASSIGN, LHS: acc(), RHS: cp()}})
		if pl.op != ddg.CommAdd {
			rel := token.GTR
			if pl.op == ddg.CommMin {
				rel = token.LSS
			}
			init = acc()
			merge = &ast.If{Cond: &ast.Binary{Op: rel, X: cp(), Y: acc()}, Then: assign(acc(), cp())}
		}
		alloc := &ast.Cast{To: ptr, X: &ast.Call{Fun: ident("malloc"), Args: []ast.Expr{mul(intLit(pl.span), nthExpr())}}}
		loop := ast.Stmt(pl.lc.stmt)
		before[loop] = append(before[loop],
			&ast.DeclStmt{Decls: []*ast.VarDecl{{Name: copies, Type: ptr, Init: alloc}}},
			&ast.DeclStmt{Decls: []*ast.VarDecl{{Name: ctr, Type: ctypes.IntType}}},
			each(assign(cp(), init)))
		after[loop] = append([]ast.Stmt{each(merge),
			&ast.ExprStmt{X: &ast.Call{Fun: ident("free"), Args: []ast.Expr{ident(copies)}}}},
			after[loop]...)
	}
	if len(before) == 0 {
		return
	}
	ast.RewriteStmts(p.in.Prog, func(s ast.Stmt) []ast.Stmt {
		if before[s] == nil {
			return []ast.Stmt{s}
		}
		return slices.Concat(before[s], []ast.Stmt{s}, after[s])
	})
}
