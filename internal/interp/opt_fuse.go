// Superinstruction fusion (pass 2 of the optimization pipeline, see
// opt.go).
//
// Fusion collapses closure chains whose links cannot observe or be
// observed: compile-time constants and register-promoted scalars have
// no cache traffic, fire no hooks, and fault only on the
// used-before-declaration check — so a consumer may evaluate them
// inline, bump the work counter by their static tick count up front,
// and skip the per-node closure calls. Operand order (and therefore
// fault order) is preserved; work-counter totals per statement are
// exact, which keeps MaxOps budgets and iteration cost traces
// identical to the unoptimized engine.
package interp

import (
	"gdsx/internal/ast"
	"gdsx/internal/ctypes"
	"gdsx/internal/token"
)

// convNC is convC except that statically-identity conversions return
// nil, letting fusion sites skip the call entirely. (Go function
// values cannot be compared against idConv, so the nil sentinel is the
// only way to detect identity.) Integer-typed values always carry
// F == 0, so widening to a full 8-byte slot is an identity too.
func convNC(from, to *ctypes.Type) cconv {
	if from == nil || to == nil || from.Kind == ctypes.Array {
		return nil
	}
	switch {
	case to.IsFloat() && from.IsFloat():
		if to.Kind == ctypes.Float {
			return func(v value) value { return fv(float64(float32(v.F))) }
		}
		return nil
	case to.IsFloat():
		if from.Unsigned {
			return func(v value) value { return fv(float64(uint64(v.I))) }
		}
		return func(v value) value { return fv(float64(v.I)) }
	case from.IsFloat(): // to integer
		tr := truncC(to)
		return func(v value) value { return tr(int64(v.F)) }
	case to.Kind == ctypes.Ptr:
		return nil
	case to.IsInteger():
		if to.HasStaticSize() && to.Size() == 8 {
			return nil
		}
		tr := truncC(to)
		return func(v value) value { return tr(v.I) }
	}
	return nil
}

// orIdent replaces a nil (identity) conversion with idConv so closure
// emitters that do not special-case identity can call it untested.
func orIdent(cv cconv) cconv {
	if cv == nil {
		return idConv
	}
	return cv
}

// fuseOperand compiles e into an unticked evaluator when e is free of
// memory traffic, hooks and faults other than the declared check:
// compile-time constants and register-promoted scalars. ticks is the
// number of work-counter ticks evaluating the subtree records; the
// consumer adds them to its own bump.
func (c *compiler) fuseOperand(e ast.Expr) (ev cexpr, ticks int64, ok bool) {
	if !c.opt.fuse {
		return nil, 0, false
	}
	if v, n, okc := c.constEval(e); okc {
		return func(t *thread, f *frame) value { return v }, n, true
	}
	if id, oki := e.(*ast.Ident); oki && c.isPromoted(id.Sym) {
		idx, name, pos := id.Sym.Index, id.Sym.Name, id.Pos()
		return func(t *thread, f *frame) value {
			if f.slots[idx] == 0 {
				rterrf(pos, "variable %s used before its declaration executed", name)
			}
			return f.regs[idx]
		}, 1, true
	}
	return nil, 0, false
}

// fuseBase compiles the base of an index expression into an unticked
// address evaluator when it is a register-promoted pointer.
func (c *compiler) fuseBase(e ast.Expr) (ev func(t *thread, f *frame) int64, ticks int64, ok bool) {
	if !c.opt.fuse {
		return nil, 0, false
	}
	id, oki := e.(*ast.Ident)
	if !oki || !c.isPromoted(id.Sym) || id.Sym.Type == nil || id.Sym.Type.Kind != ctypes.Ptr {
		return nil, 0, false
	}
	idx, name, pos := id.Sym.Index, id.Sym.Name, id.Pos()
	return func(t *thread, f *frame) int64 {
		if f.slots[idx] == 0 {
			rterrf(pos, "variable %s used before its declaration executed", name)
		}
		return f.regs[idx].I
	}, 1, true
}

// promotedLoad emits the read closure for a register-promoted scalar:
// one tick, the declared check, a register read. Replaces the
// tick → slot lookup → cache touch → bounds check → typed load chain.
func (c *compiler) promotedLoad(sym *ast.Symbol, pos token.Pos) cexpr {
	idx, name := sym.Index, sym.Name
	return func(t *thread, f *frame) value {
		t.counters[CatWork]++
		if f.slots[idx] == 0 {
			rterrf(pos, "variable %s used before its declaration executed", name)
		}
		return f.regs[idx]
	}
}

// compilePromotedAssign emits plain and compound assignment to a
// register-promoted scalar. The declared check runs before the RHS
// (matching the generic emitter's address computation), the register
// takes the new value, and the write goes through to the backing
// bytes raw — no cache touch, no bounds check: the address came from a
// successful alloca, and promotion is off whenever hooks watch.
// Compound assignment is the load–binop–store superinstruction: the
// old value is a register read instead of a memory load.
func (c *compiler) compilePromotedAssign(x *ast.Assign, id *ast.Ident) cexpr {
	sym := id.Sym
	lt := x.LHS.ExprType()
	idx, name := sym.Index, sym.Name
	pos := x.Pos()
	st := c.storerFor(lt)
	n := int64(1)
	var cr cexpr
	if fr, rn, ok := c.fuseOperand(x.RHS); ok {
		cr, n = fr, n+rn
	} else {
		cr = c.compileExpr(x.RHS)
	}
	if x.Op == token.ASSIGN {
		cv := convNC(x.RHS.ExprType(), lt)
		if cv == nil {
			return func(t *thread, f *frame) value {
				t.counters[CatWork] += n
				a := f.slots[idx]
				if a == 0 {
					rterrf(pos, "variable %s used before its declaration executed", name)
				}
				nv := cr(t, f)
				f.regs[idx] = nv
				st(t, a, nv)
				return nv
			}
		}
		return func(t *thread, f *frame) value {
			t.counters[CatWork] += n
			a := f.slots[idx]
			if a == 0 {
				rterrf(pos, "variable %s used before its declaration executed", name)
			}
			nv := cv(cr(t, f))
			f.regs[idx] = nv
			st(t, a, nv)
			return nv
		}
	}
	cop := compoundC(pos, x.Op.CompoundOp(), lt, x.RHS.ExprType())
	return func(t *thread, f *frame) value {
		t.counters[CatWork] += n
		a := f.slots[idx]
		if a == 0 {
			rterrf(pos, "variable %s used before its declaration executed", name)
		}
		old := f.regs[idx]
		rv := cr(t, f)
		nv := cop(old, rv)
		f.regs[idx] = nv
		st(t, a, nv)
		return nv
	}
}

// compilePromotedIncDec emits ++/-- on a register-promoted scalar as a
// single closure: declared check, register step, raw write-through.
func (c *compiler) compilePromotedIncDec(x *ast.IncDec, id *ast.Ident) cexpr {
	ty := x.ExprType()
	sym := id.Sym
	idx, name := sym.Index, sym.Name
	pos := x.Pos()
	st := c.storerFor(ty)
	step := c.incDecStep(x, ty)
	if x.Post {
		return func(t *thread, f *frame) value {
			t.counters[CatWork]++
			a := f.slots[idx]
			if a == 0 {
				rterrf(pos, "variable %s used before its declaration executed", name)
			}
			old := f.regs[idx]
			nv := step(old)
			f.regs[idx] = nv
			st(t, a, nv)
			return old
		}
	}
	return func(t *thread, f *frame) value {
		t.counters[CatWork]++
		a := f.slots[idx]
		if a == 0 {
			rterrf(pos, "variable %s used before its declaration executed", name)
		}
		nv := step(f.regs[idx])
		f.regs[idx] = nv
		st(t, a, nv)
		return nv
	}
}

// fusedIndexAddr emits the base + i*scale addressing superinstruction
// when the base pointer or the index (or both) can evaluate unticked;
// nil falls back to the generic two-closure chain.
func (c *compiler) fusedIndexAddr(x *ast.Index, esz int64) caddr {
	if !c.opt.fuse {
		return nil
	}
	fb, bn, bok := c.fuseBase(x.X)
	fi, in, iok := c.fuseOperand(x.I)
	if !bok && !iok {
		return nil
	}
	n := int64(0)
	var ob caddr
	if bok {
		ob, n = fb, n+bn
	} else {
		ob = c.compileBase(x.X)
	}
	var oi cexpr
	if iok {
		oi, n = fi, n+in
	} else {
		oi = c.compileExpr(x.I)
	}
	return func(t *thread, f *frame) int64 {
		t.counters[CatWork] += n
		b := ob(t, f)
		i := oi(t, f)
		return b + i.I*esz
	}
}

// isCmpOp reports whether op is one of the six comparisons.
func isCmpOp(op token.Kind) bool {
	switch op {
	case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
		return true
	}
	return false
}

// cmpIntBoolC compiles an integer comparison straight to bool, so
// fused loop conditions skip the value boxing of cmpInt plus the truth
// test.
func cmpIntBoolC(op token.Kind, unsigned bool) func(a, b int64) bool {
	if unsigned {
		switch op {
		case token.EQL:
			return func(a, b int64) bool { return a == b }
		case token.NEQ:
			return func(a, b int64) bool { return a != b }
		case token.LSS:
			return func(a, b int64) bool { return uint64(a) < uint64(b) }
		case token.GTR:
			return func(a, b int64) bool { return uint64(a) > uint64(b) }
		case token.LEQ:
			return func(a, b int64) bool { return uint64(a) <= uint64(b) }
		case token.GEQ:
			return func(a, b int64) bool { return uint64(a) >= uint64(b) }
		}
		return nil
	}
	switch op {
	case token.EQL:
		return func(a, b int64) bool { return a == b }
	case token.NEQ:
		return func(a, b int64) bool { return a != b }
	case token.LSS:
		return func(a, b int64) bool { return a < b }
	case token.GTR:
		return func(a, b int64) bool { return a > b }
	case token.LEQ:
		return func(a, b int64) bool { return a <= b }
	case token.GEQ:
		return func(a, b int64) bool { return a >= b }
	}
	return nil
}

// compileCondTest compiles a loop condition to a bool-returning
// closure. With fusion on, integer compare-and-branch conditions —
// the back-edge test of virtually every counted loop — evaluate both
// operands and compare in a single closure; constant and promoted
// conditions shrink further. The generic path wraps the ordinary
// expression closure and is emission-identical to the unoptimized
// engine.
func (c *compiler) compileCondTest(e ast.Expr) func(t *thread, f *frame) bool {
	if c.opt.fuse {
		if tst := c.fusedCondTest(e); tst != nil {
			return tst
		}
	}
	cond := c.compileExpr(e)
	tr := truthC(e.ExprType())
	return func(t *thread, f *frame) bool { return tr(cond(t, f)) }
}

func (c *compiler) fusedCondTest(e ast.Expr) func(t *thread, f *frame) bool {
	if v, n, ok := c.constEval(e); ok {
		res := truth(v, e.ExprType())
		return func(t *thread, f *frame) bool {
			t.counters[CatWork] += n
			return res
		}
	}
	x, ok := e.(*ast.Binary)
	if !ok || !isCmpOp(x.Op) {
		if fx, n, okf := c.fuseOperand(e); okf {
			tr := truthC(e.ExprType())
			return func(t *thread, f *frame) bool {
				t.counters[CatWork] += n
				return tr(fx(t, f))
			}
		}
		return nil
	}
	xt, yt := x.X.ExprType(), x.Y.ExprType()
	if xt == nil || yt == nil || !xt.IsInteger() || !yt.IsInteger() {
		return nil
	}
	common := ctypes.Common(xt, yt)
	cmp := cmpIntBoolC(x.Op, common.Unsigned)
	if cmp == nil {
		return nil
	}
	n := int64(1)
	ox, xn, xok := c.fuseOperand(x.X)
	if xok {
		n += xn
	} else {
		ox = c.compileExpr(x.X)
	}
	oy, yn, yok := c.fuseOperand(x.Y)
	if yok {
		n += yn
	} else {
		oy = c.compileExpr(x.Y)
	}
	cvx, cvy := convNC(xt, common), convNC(yt, common)
	if cvx == nil && cvy == nil {
		return func(t *thread, f *frame) bool {
			t.counters[CatWork] += n
			a := ox(t, f)
			b := oy(t, f)
			return cmp(a.I, b.I)
		}
	}
	fcx, fcy := orIdent(cvx), orIdent(cvy)
	return func(t *thread, f *frame) bool {
		t.counters[CatWork] += n
		a := fcx(ox(t, f))
		b := fcy(oy(t, f))
		return cmp(a.I, b.I)
	}
}
