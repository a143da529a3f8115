package interp

import (
	"fmt"
	"math"

	"gdsx/internal/ast"
	"gdsx/internal/ctypes"
	"gdsx/internal/token"
)

// fault compiles a construct that can only fail — or that sema never
// produces — to a closure that ticks the work counter ticks times (an
// rvalue node's own tick; an address computation has none) and raises
// the runtime error at pos. It serves rvalues (T = value), addresses
// (T = int64) and statement bodies (T = ctrl).
func fault[T any](pos token.Pos, ticks int64, format string, args ...any) func(*thread, *frame) T {
	msg := fmt.Sprintf(format, args...)
	return func(t *thread, f *frame) T {
		t.counters[CatWork] += ticks
		panic(RuntimeError{Pos: pos, Msg: msg})
	}
}

// compileExpr compiles e to a closure computing its rvalue: it ticks
// the work counter once for every node it evaluates and performs the
// node's memory accesses in source order.
func (c *compiler) compileExpr(e ast.Expr) cexpr {
	if v, n, ok := c.constEval(e); ok {
		return func(t *thread, f *frame) value {
			t.counters[CatWork] += n
			return v
		}
	}
	switch x := e.(type) {
	case *ast.StringLit:
		// Interning stays lazy, at first evaluation: eager interning
		// would shift every later allocation address.
		s := x.Value
		return func(t *thread, f *frame) value {
			t.counters[CatWork]++
			return iv(t.m.internString(s))
		}
	case *ast.Ident:
		return c.compileIdent(x)
	case *ast.Unary:
		return c.compileUnary(x)
	case *ast.Binary:
		return c.compileBinary(x)
	case *ast.Logical:
		return c.compileLogical(x)
	case *ast.Cond:
		return c.compileCond(x)
	case *ast.Assign:
		return c.compileAssign(x)
	case *ast.IncDec:
		return c.compileIncDec(x)
	case *ast.Index:
		return c.compileLoadable(x, x.Acc.Load)
	case *ast.Member:
		return c.compileLoadable(x, x.Acc.Load)
	case *ast.Call:
		return c.compileCall(x)
	case *ast.Cast:
		cv := convC(x.X.ExprType(), x.To)
		cx := c.compileExpr(x.X)
		return func(t *thread, f *frame) value {
			t.counters[CatWork]++
			return cv(cx(t, f))
		}
	case *ast.SizeofType:
		// Static sizes were folded by constEval; reaching here means
		// Size() must fault at evaluation time.
		ty := x.Of
		return func(t *thread, f *frame) value {
			t.counters[CatWork]++
			return iv(ty.Size())
		}
	case *ast.SizeofExpr:
		ty := x.X.ExprType()
		return func(t *thread, f *frame) value {
			t.counters[CatWork]++
			return iv(ty.Size())
		}
	}
	return fault[value](e.Pos(), 1, "cannot evaluate expression")
}

func (c *compiler) compileIdent(x *ast.Ident) cexpr {
	sym := x.Sym
	switch sym.Kind {
	case ast.SymTID:
		return func(t *thread, f *frame) value {
			t.counters[CatWork]++
			return iv(int64(t.tid))
		}
	case ast.SymNTH:
		nt := int64(c.m.opts.NumThreads)
		return func(t *thread, f *frame) value {
			t.counters[CatWork]++
			return iv(nt)
		}
	case ast.SymFunc, ast.SymBuiltin:
		return fault[value](x.Pos(), 1, "function %s used as a value", x.Name)
	}
	if c.isPromoted(sym) {
		return c.promotedLoad(sym, x.Pos())
	}
	ad := c.symAddrC(sym, x.Pos())
	if k := sym.Type.Kind; k == ctypes.Array || k == ctypes.Struct {
		return func(t *thread, f *frame) value {
			t.counters[CatWork]++
			return iv(ad(t, f))
		}
	}
	ld := c.loadAcc(x.Pos(), x.Acc.Load, sym.Type)
	return func(t *thread, f *frame) value {
		t.counters[CatWork]++
		return ld(t, ad(t, f))
	}
}

// compileLoadable compiles Index and Member rvalues: address plus a
// sited load, or the bare address for array/struct-typed results.
func (c *compiler) compileLoadable(e ast.Expr, site int) cexpr {
	ty := e.ExprType()
	if ty == nil {
		return fault[value](e.Pos(), 1, "untyped expression")
	}
	ad := c.compileAddr(e)
	if k := ty.Kind; k == ctypes.Array || k == ctypes.Struct {
		return func(t *thread, f *frame) value {
			t.counters[CatWork]++
			return iv(ad(t, f))
		}
	}
	ld := c.loadAcc(e.Pos(), site, ty)
	return func(t *thread, f *frame) value {
		t.counters[CatWork]++
		return ld(t, ad(t, f))
	}
}

// compileAddr compiles the lvalue address computation of e: the node
// itself does not tick; nested rvalues do.
func (c *compiler) compileAddr(e ast.Expr) caddr {
	switch x := e.(type) {
	case *ast.Ident:
		switch x.Sym.Kind {
		case ast.SymTID, ast.SymNTH:
			return fault[int64](x.Pos(), 0, "%s has no address", x.Name)
		}
		return c.symAddrC(x.Sym, x.Pos())

	case *ast.Index:
		elem := x.ExprType()
		if esz, ok := staticSizeOfElem(elem); ok {
			if fused := c.fusedIndexAddr(x, esz); fused != nil {
				return fused
			}
			base := c.compileBase(x.X)
			idx := c.compileExpr(x.I)
			return func(t *thread, f *frame) int64 {
				b := base(t, f)
				i := idx(t, f)
				return b + i.I*esz
			}
		}
		base := c.compileBase(x.X)
		idx := c.compileExpr(x.I)
		pos := x.Pos()
		return func(t *thread, f *frame) int64 {
			b := base(t, f)
			i := idx(t, f)
			return b + i.I*sizeOfElem(elem, pos)
		}

	case *ast.Member:
		off := x.Field.Offset
		if x.Arrow {
			cx := c.compileExpr(x.X)
			pos := x.Pos()
			name := x.Name
			return func(t *thread, f *frame) int64 {
				b := cx(t, f).I
				if b == 0 {
					rterrf(pos, "null pointer dereference (->%s)", name)
				}
				return b + off
			}
		}
		if _, isCall := x.X.(*ast.Call); isCall {
			cx := c.compileExpr(x.X)
			return func(t *thread, f *frame) int64 { return cx(t, f).I + off }
		}
		ax := c.compileAddr(x.X)
		return func(t *thread, f *frame) int64 { return ax(t, f) + off }

	case *ast.Unary:
		if x.Op == token.MUL {
			cx := c.compileExpr(x.X)
			pos := x.Pos()
			return func(t *thread, f *frame) int64 {
				p := cx(t, f)
				if p.I == 0 {
					rterrf(pos, "null pointer dereference")
				}
				return p.I
			}
		}
	}
	return fault[int64](e.Pos(), 0, "expression has no address")
}

// compileBase compiles an indexing or pointer-arithmetic base: arrays
// yield their address (no tick for the node), everything else its
// rvalue.
func (c *compiler) compileBase(e ast.Expr) caddr {
	if ty := e.ExprType(); ty != nil && ty.Kind == ctypes.Array {
		return c.compileAddr(e)
	}
	cx := c.compileExpr(e)
	return func(t *thread, f *frame) int64 { return cx(t, f).I }
}

func (c *compiler) compileUnary(x *ast.Unary) cexpr {
	rt := x.ExprType()
	switch x.Op {
	case token.AND:
		ad := c.compileAddr(x.X)
		return func(t *thread, f *frame) value {
			t.counters[CatWork]++
			return iv(ad(t, f))
		}
	case token.MUL:
		if rt == nil {
			return fault[value](x.Pos(), 1, "untyped expression")
		}
		ad := c.compileAddr(x) // includes the null check
		if k := rt.Kind; k == ctypes.Array || k == ctypes.Struct {
			return func(t *thread, f *frame) value {
				t.counters[CatWork]++
				return iv(ad(t, f))
			}
		}
		ld := c.loadAcc(x.Pos(), x.Acc.Load, rt)
		return func(t *thread, f *frame) value {
			t.counters[CatWork]++
			return ld(t, ad(t, f))
		}
	case token.SUB:
		cx := c.compileExpr(x.X)
		if rt.IsFloat() {
			tf := toFloatC(x.X.ExprType())
			return func(t *thread, f *frame) value {
				t.counters[CatWork]++
				return fv(-tf(cx(t, f)))
			}
		}
		tr := truncC(rt)
		return func(t *thread, f *frame) value {
			t.counters[CatWork]++
			return tr(-cx(t, f).I)
		}
	case token.ADD:
		cx := c.compileExpr(x.X)
		cv := convC(x.X.ExprType(), rt)
		return func(t *thread, f *frame) value {
			t.counters[CatWork]++
			return cv(cx(t, f))
		}
	case token.NOT:
		cx := c.compileExpr(x.X)
		tr := truncC(rt)
		return func(t *thread, f *frame) value {
			t.counters[CatWork]++
			return tr(^cx(t, f).I)
		}
	case token.LNOT:
		cx := c.compileExpr(x.X)
		tx := truthC(x.X.ExprType())
		return func(t *thread, f *frame) value {
			t.counters[CatWork]++
			if tx(cx(t, f)) {
				return iv(0)
			}
			return iv(1)
		}
	}
	return fault[value](x.Pos(), 1, "bad unary operator %s", x.Op)
}

func (c *compiler) compileLogical(x *ast.Logical) cexpr {
	cx := c.compileExpr(x.X)
	cy := c.compileExpr(x.Y)
	tx := truthC(x.X.ExprType())
	ty := truthC(x.Y.ExprType())
	if x.Op == token.LAND {
		return func(t *thread, f *frame) value {
			t.counters[CatWork]++
			if !tx(cx(t, f)) {
				return iv(0)
			}
			if ty(cy(t, f)) {
				return iv(1)
			}
			return iv(0)
		}
	}
	return func(t *thread, f *frame) value {
		t.counters[CatWork]++
		if tx(cx(t, f)) {
			return iv(1)
		}
		if ty(cy(t, f)) {
			return iv(1)
		}
		return iv(0)
	}
}

func (c *compiler) compileCond(x *ast.Cond) cexpr {
	cc := c.compileExpr(x.C)
	tc := truthC(x.C.ExprType())
	ct := c.compileExpr(x.Then)
	cvt := convC(x.Then.ExprType(), x.ExprType())
	ce := c.compileExpr(x.Else)
	cve := convC(x.Else.ExprType(), x.ExprType())
	return func(t *thread, f *frame) value {
		t.counters[CatWork]++
		if tc(cc(t, f)) {
			return cvt(ct(t, f))
		}
		return cve(ce(t, f))
	}
}

func (c *compiler) compileBinary(x *ast.Binary) cexpr {
	xt, yt := x.X.ExprType(), x.Y.ExprType()
	if xt == nil || yt == nil {
		return fault[value](x.Pos(), 1, "untyped expression")
	}
	xIsPtr := xt.Kind == ctypes.Ptr || xt.Kind == ctypes.Array
	yIsPtr := yt.Kind == ctypes.Ptr || yt.Kind == ctypes.Array

	if xIsPtr || yIsPtr {
		return c.compilePtrBinary(x, xt, yt, xIsPtr, yIsPtr)
	}

	common := ctypes.Common(xt, yt)
	// Fused operands (constants, promoted scalars) evaluate unticked;
	// their static tick counts fold into the node's own bump. Identity
	// conversions drop out of the fused kernels entirely.
	n := int64(1)
	var ex, ey cexpr
	if fx, xn, ok := c.fuseOperand(x.X); ok {
		ex, n = fx, n+xn
	} else {
		ex = c.compileExpr(x.X)
	}
	if fy, yn, ok := c.fuseOperand(x.Y); ok {
		ey, n = fy, n+yn
	} else {
		ey = c.compileExpr(x.Y)
	}
	var cvx, cvy cconv
	skipConv := false
	if c.opt.fuse {
		cvxn, cvyn := convNC(xt, common), convNC(yt, common)
		skipConv = cvxn == nil && cvyn == nil
		cvx, cvy = orIdent(cvxn), orIdent(cvyn)
	} else {
		cvx, cvy = convC(xt, common), convC(yt, common)
	}

	// mk wires the converted operands into a binary kernel.
	mk := func(op2 func(a, b value) value) cexpr {
		if skipConv {
			return func(t *thread, f *frame) value {
				t.counters[CatWork] += n
				a := ex(t, f)
				b := ey(t, f)
				return op2(a, b)
			}
		}
		return func(t *thread, f *frame) value {
			t.counters[CatWork] += n
			a := cvx(ex(t, f))
			b := cvy(ey(t, f))
			return op2(a, b)
		}
	}

	if common.IsFloat() {
		switch x.Op {
		case token.ADD:
			return mk(func(a, b value) value { return fv(a.F + b.F) })
		case token.SUB:
			return mk(func(a, b value) value { return fv(a.F - b.F) })
		case token.MUL:
			return mk(func(a, b value) value { return fv(a.F * b.F) })
		case token.QUO:
			return mk(func(a, b value) value { return fv(a.F / b.F) })
		case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
			cmp := cmpFloatOpC(x.Op)
			return mk(func(a, b value) value { return cmp(a.F, b.F) })
		}
		return fault[value](x.Pos(), 1, "bad float operation %s", x.Op)
	}

	rt := x.ExprType()
	if rt == nil {
		return fault[value](x.Pos(), 1, "untyped expression")
	}
	tr := truncC(rt)
	pos := x.Pos()
	switch x.Op {
	case token.ADD:
		return mk(func(a, b value) value { return tr(a.I + b.I) })
	case token.SUB:
		return mk(func(a, b value) value { return tr(a.I - b.I) })
	case token.MUL:
		return mk(func(a, b value) value { return tr(a.I * b.I) })
	case token.QUO:
		if common.Unsigned {
			return mk(func(a, b value) value {
				if b.I == 0 {
					rterrf(pos, "integer division by zero")
				}
				return tr(int64(uint64(a.I) / uint64(b.I)))
			})
		}
		return mk(func(a, b value) value {
			if b.I == 0 {
				rterrf(pos, "integer division by zero")
			}
			return tr(a.I / b.I)
		})
	case token.REM:
		if common.Unsigned {
			return mk(func(a, b value) value {
				if b.I == 0 {
					rterrf(pos, "integer modulo by zero")
				}
				return tr(int64(uint64(a.I) % uint64(b.I)))
			})
		}
		return mk(func(a, b value) value {
			if b.I == 0 {
				rterrf(pos, "integer modulo by zero")
			}
			return tr(a.I % b.I)
		})
	case token.SHL:
		return mk(func(a, b value) value { return tr(a.I << uint(b.I&63)) })
	case token.SHR:
		if xt.Unsigned {
			if promSize(xt) == 4 {
				return mk(func(a, b value) value { return tr(int64(uint32(a.I) >> uint(b.I&63))) })
			}
			return mk(func(a, b value) value { return tr(int64(uint64(a.I) >> uint(b.I&63))) })
		}
		return mk(func(a, b value) value { return tr(a.I >> uint(b.I&63)) })
	case token.AND:
		return mk(func(a, b value) value { return tr(a.I & b.I) })
	case token.OR:
		return mk(func(a, b value) value { return tr(a.I | b.I) })
	case token.XOR:
		return mk(func(a, b value) value { return tr(a.I ^ b.I) })
	case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
		cmp := cmpIntOpC(x.Op, common.Unsigned)
		return mk(func(a, b value) value { return cmp(a.I, b.I) })
	}
	return fault[value](x.Pos(), 1, "bad integer operation %s", x.Op)
}

// compilePtrBinary compiles pointer arithmetic and pointer comparison.
func (c *compiler) compilePtrBinary(x *ast.Binary, xt, yt *ctypes.Type, xIsPtr, yIsPtr bool) cexpr {
	var cx, cy caddr
	if xIsPtr {
		cx = c.compileBase(x.X)
	} else {
		ex := c.compileExpr(x.X)
		cx = func(t *thread, f *frame) int64 { return ex(t, f).I }
	}
	if yIsPtr {
		cy = c.compileBase(x.Y)
	} else {
		ey := c.compileExpr(x.Y)
		cy = func(t *thread, f *frame) int64 { return ey(t, f).I }
	}
	pos := x.Pos()

	// elemScale computes ptrElemSize(pt, pos) with the size resolved at
	// compile time when static; the dynamic path faults at run time.
	elemScale := func(pt *ctypes.Type) func() int64 {
		if pt != nil {
			if esz, ok := staticSizeOfElem(pt.Elem); ok {
				return func() int64 { return esz }
			}
		}
		return func() int64 { return ptrElemSize(pt, pos) }
	}

	switch x.Op {
	case token.ADD:
		if xIsPtr {
			esz := elemScale(xt)
			return func(t *thread, f *frame) value {
				t.counters[CatWork]++
				a := cx(t, f)
				b := cy(t, f)
				return iv(a + b*esz())
			}
		}
		esz := elemScale(yt)
		return func(t *thread, f *frame) value {
			t.counters[CatWork]++
			a := cx(t, f)
			b := cy(t, f)
			return iv(b + a*esz())
		}
	case token.SUB:
		// Scale by xt's element size even when only the right operand
		// is a pointer (sema admits no int - pointer, so that case is
		// never reached).
		esz := elemScale(xt)
		if xIsPtr && yIsPtr {
			return func(t *thread, f *frame) value {
				t.counters[CatWork]++
				a := cx(t, f)
				b := cy(t, f)
				return iv((a - b) / esz())
			}
		}
		return func(t *thread, f *frame) value {
			t.counters[CatWork]++
			a := cx(t, f)
			b := cy(t, f)
			return iv(a - b*esz())
		}
	case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
		cmp := cmpIntOpC(x.Op, false)
		return func(t *thread, f *frame) value {
			t.counters[CatWork]++
			a := cx(t, f)
			b := cy(t, f)
			return cmp(a, b)
		}
	}
	return fault[value](x.Pos(), 1, "bad pointer operation %s", x.Op)
}

func cmpIntOpC(op token.Kind, unsigned bool) func(a, b int64) value {
	bool2v := func(r bool) value {
		if r {
			return iv(1)
		}
		return iv(0)
	}
	if unsigned {
		switch op {
		case token.EQL:
			return func(a, b int64) value { return bool2v(uint64(a) == uint64(b)) }
		case token.NEQ:
			return func(a, b int64) value { return bool2v(uint64(a) != uint64(b)) }
		case token.LSS:
			return func(a, b int64) value { return bool2v(uint64(a) < uint64(b)) }
		case token.GTR:
			return func(a, b int64) value { return bool2v(uint64(a) > uint64(b)) }
		case token.LEQ:
			return func(a, b int64) value { return bool2v(uint64(a) <= uint64(b)) }
		default:
			return func(a, b int64) value { return bool2v(uint64(a) >= uint64(b)) }
		}
	}
	switch op {
	case token.EQL:
		return func(a, b int64) value { return bool2v(a == b) }
	case token.NEQ:
		return func(a, b int64) value { return bool2v(a != b) }
	case token.LSS:
		return func(a, b int64) value { return bool2v(a < b) }
	case token.GTR:
		return func(a, b int64) value { return bool2v(a > b) }
	case token.LEQ:
		return func(a, b int64) value { return bool2v(a <= b) }
	default:
		return func(a, b int64) value { return bool2v(a >= b) }
	}
}

func cmpFloatOpC(op token.Kind) func(a, b float64) value {
	bool2v := func(r bool) value {
		if r {
			return iv(1)
		}
		return iv(0)
	}
	switch op {
	case token.EQL:
		return func(a, b float64) value { return bool2v(a == b) }
	case token.NEQ:
		return func(a, b float64) value { return bool2v(a != b) }
	case token.LSS:
		return func(a, b float64) value { return bool2v(a < b) }
	case token.GTR:
		return func(a, b float64) value { return bool2v(a > b) }
	case token.LEQ:
		return func(a, b float64) value { return bool2v(a <= b) }
	default:
		return func(a, b float64) value { return bool2v(a >= b) }
	}
}

func (c *compiler) compileAssign(x *ast.Assign) cexpr {
	lt := x.LHS.ExprType()
	if lt == nil {
		return fault[value](x.Pos(), 1, "untyped expression")
	}

	// Whole-struct assignment is a hooked memcpy.
	if lt.Kind == ctypes.Struct && x.Op == token.ASSIGN {
		size := lt.Size()
		ad := c.compileAddr(x.LHS)
		cr := c.compileExpr(x.RHS)
		lsite := loadSite(x.RHS)
		ssite := storeSite(x.LHS)
		pos := x.Pos()
		h := c.hooks
		mm := c.mem
		if h == nil {
			return func(t *thread, f *frame) value {
				t.counters[CatWork]++
				dst := ad(t, f)
				src := cr(t, f).I
				t.touchCache(src)
				t.touchCache(dst)
				t.checkAccess(pos, src, size)
				t.checkAccess(pos, dst, size)
				mm.Memcpy(dst, src, size)
				return iv(dst)
			}
		}
		return func(t *thread, f *frame) value {
			t.counters[CatWork]++
			dst := ad(t, f)
			src := cr(t, f).I
			t.touchCache(src)
			t.touchCache(dst)
			if h.Redirect != nil {
				var c1, c2 int64
				src, c1 = h.Redirect(lsite, src, size, t.tid)
				dst, c2 = h.Redirect(ssite, dst, size, t.tid)
				t.counters[CatWork] += c1 + c2
			}
			t.checkAccess(pos, src, size)
			t.checkAccess(pos, dst, size)
			if t.isMain {
				if h.Load != nil {
					h.Load(lsite, src, size)
				}
				if h.Store != nil {
					h.Store(ssite, dst, size)
				}
			}
			if h.Observe != nil {
				h.Observe(Access{Site: lsite, Addr: src, Size: size, Tid: t.tid,
					Iter: t.curIter, Ordered: t.inOrdered})
				h.Observe(Access{Site: ssite, Addr: dst, Size: size, Tid: t.tid,
					Iter: t.curIter, Store: true, Ordered: t.inOrdered})
			}
			mm.Memcpy(dst, src, size)
			return iv(dst)
		}
	}

	if id, ok := x.LHS.(*ast.Ident); ok && c.isPromoted(id.Sym) {
		return c.compilePromotedAssign(x, id)
	}
	ad := c.compileAddr(x.LHS)
	cr := c.compileExpr(x.RHS)
	if x.Op == token.ASSIGN {
		cv := convC(x.RHS.ExprType(), lt)
		st := c.storeAcc(x.Pos(), storeSite(x.LHS), lt)
		return func(t *thread, f *frame) value {
			t.counters[CatWork]++
			a := ad(t, f)
			nv := cv(cr(t, f))
			st(t, a, nv)
			return nv
		}
	}
	ld := c.loadAcc(x.Pos(), loadSite(x.LHS), lt)
	cop := compoundC(x.Pos(), x.Op.CompoundOp(), lt, x.RHS.ExprType())
	st := c.storeAcc(x.Pos(), storeSite(x.LHS), lt)
	return func(t *thread, f *frame) value {
		t.counters[CatWork]++
		a := ad(t, f)
		old := ld(t, a)
		rv := cr(t, f)
		nv := cop(old, rv)
		st(t, a, nv)
		return nv
	}
}

// compoundC compiles compound() for the statically known operator and
// operand types. Anything unusual uses the shared routine.
func compoundC(pos token.Pos, op token.Kind, lt, rt *ctypes.Type) func(old, rv value) value {
	generic := func(old, rv value) value { return compound(pos, op, old, rv, lt, rt) }

	if lt.Kind == ctypes.Ptr {
		esz, ok := staticSizeOfElem(lt.Elem)
		if !ok {
			return generic
		}
		// SUB negates the delta; every other compound operator on a
		// pointer behaves like ADD (see compound).
		if op == token.SUB {
			return func(old, rv value) value { return iv(old.I - rv.I*esz) }
		}
		return func(old, rv value) value { return iv(old.I + rv.I*esz) }
	}
	if rt == nil {
		return generic
	}

	common := ctypes.Common(lt, rt)
	ca := convC(lt, common)
	cb := convC(rt, common)
	back := convC(common, lt)

	if common.IsFloat() {
		switch op {
		case token.ADD:
			return func(old, rv value) value { return back(fv(ca(old).F + cb(rv).F)) }
		case token.SUB:
			return func(old, rv value) value { return back(fv(ca(old).F - cb(rv).F)) }
		case token.MUL:
			return func(old, rv value) value { return back(fv(ca(old).F * cb(rv).F)) }
		case token.QUO:
			return func(old, rv value) value { return back(fv(ca(old).F / cb(rv).F)) }
		}
		return generic
	}

	switch op {
	case token.ADD:
		return func(old, rv value) value { return back(iv(ca(old).I + cb(rv).I)) }
	case token.SUB:
		return func(old, rv value) value { return back(iv(ca(old).I - cb(rv).I)) }
	case token.MUL:
		return func(old, rv value) value { return back(iv(ca(old).I * cb(rv).I)) }
	case token.QUO:
		if common.Unsigned {
			return func(old, rv value) value {
				b := cb(rv).I
				if b == 0 {
					rterrf(pos, "integer division by zero")
				}
				return back(iv(int64(uint64(ca(old).I) / uint64(b))))
			}
		}
		return func(old, rv value) value {
			b := cb(rv).I
			if b == 0 {
				rterrf(pos, "integer division by zero")
			}
			return back(iv(ca(old).I / b))
		}
	case token.REM:
		if common.Unsigned {
			return func(old, rv value) value {
				b := cb(rv).I
				if b == 0 {
					rterrf(pos, "integer modulo by zero")
				}
				return back(iv(int64(uint64(ca(old).I) % uint64(b))))
			}
		}
		return func(old, rv value) value {
			b := cb(rv).I
			if b == 0 {
				rterrf(pos, "integer modulo by zero")
			}
			return back(iv(ca(old).I % b))
		}
	case token.SHL:
		return func(old, rv value) value { return back(iv(ca(old).I << uint(cb(rv).I&63))) }
	case token.SHR:
		if lt.Unsigned {
			if promSize(lt) == 4 {
				return func(old, rv value) value {
					return back(iv(int64(uint32(ca(old).I) >> uint(cb(rv).I&63))))
				}
			}
			return func(old, rv value) value {
				return back(iv(int64(uint64(ca(old).I) >> uint(cb(rv).I&63))))
			}
		}
		return func(old, rv value) value { return back(iv(ca(old).I >> uint(cb(rv).I&63))) }
	case token.AND:
		return func(old, rv value) value { return back(iv(ca(old).I & cb(rv).I)) }
	case token.OR:
		return func(old, rv value) value { return back(iv(ca(old).I | cb(rv).I)) }
	case token.XOR:
		return func(old, rv value) value { return back(iv(ca(old).I ^ cb(rv).I)) }
	}
	return generic
}

// incDecStep compiles the ±1 update for an increment or decrement of
// type ty, shared by the generic and register-promoted emitters.
func (c *compiler) incDecStep(x *ast.IncDec, ty *ctypes.Type) func(old value) value {
	dec := x.Op == token.DEC
	switch {
	case ty.Kind == ctypes.Ptr:
		if esz, ok := staticSizeOfElem(ty.Elem); ok {
			d := esz
			if dec {
				d = -d
			}
			return func(old value) value { return iv(old.I + d) }
		}
		pos := x.Pos()
		et := ty.Elem
		return func(old value) value {
			d := sizeOfElem(et, pos)
			if dec {
				d = -d
			}
			return iv(old.I + d)
		}
	case ty.IsFloat():
		d := 1.0
		if dec {
			d = -1
		}
		cv := convC(ctypes.DoubleType, ty)
		return func(old value) value { return cv(fv(old.F + d)) }
	default:
		d := int64(1)
		if dec {
			d = -1
		}
		cv := convC(ctypes.LongType, ty)
		return func(old value) value { return cv(iv(old.I + d)) }
	}
}

func (c *compiler) compileIncDec(x *ast.IncDec) cexpr {
	ty := x.ExprType()
	if ty == nil {
		return fault[value](x.Pos(), 1, "untyped expression")
	}
	if id, ok := x.X.(*ast.Ident); ok && c.isPromoted(id.Sym) {
		return c.compilePromotedIncDec(x, id)
	}
	ad := c.compileAddr(x.X)
	ld := c.loadAcc(x.Pos(), loadSite(x.X), ty)
	st := c.storeAcc(x.Pos(), storeSite(x.X), ty)
	step := c.incDecStep(x, ty)

	if x.Post {
		return func(t *thread, f *frame) value {
			t.counters[CatWork]++
			a := ad(t, f)
			old := ld(t, a)
			st(t, a, step(old))
			return old
		}
	}
	return func(t *thread, f *frame) value {
		t.counters[CatWork]++
		a := ad(t, f)
		nv := step(ld(t, a))
		st(t, a, nv)
		return nv
	}
}

func (c *compiler) compileCall(x *ast.Call) cexpr {
	sym := x.Fun.Sym
	pos := x.Pos()

	if sym.Kind == ast.SymFunc {
		cf := c.prog.funcs[sym.Fn]
		if cf == nil {
			return fault[value](pos, 1, "undefined function %s", sym.Name)
		}
		n := len(x.Args)
		if n == 0 {
			return func(t *thread, f *frame) value {
				t.counters[CatWork]++
				return t.callCompiled(cf, nil, pos)
			}
		}
		cargs := make([]cexpr, n)
		convs := make([]cconv, n)
		for i, a := range x.Args {
			cargs[i] = c.compileExpr(a)
			convs[i] = convC(a.ExprType(), sym.Type.Params[i])
		}
		return func(t *thread, f *frame) value {
			t.counters[CatWork]++
			args := make([]value, n)
			for i, ca := range cargs {
				args[i] = convs[i](ca(t, f))
			}
			return t.callCompiled(cf, args, pos)
		}
	}
	return c.compileBuiltin(x)
}

func (c *compiler) compileBuiltin(x *ast.Call) cexpr {
	sym := x.Fun.Sym
	pos := x.Pos()
	site := x.AllocSite
	defSite := x.Acc.Store
	h := c.hooks
	mm := c.mem

	// allocDef reports the definition of a fresh heap block to the
	// profiler (see AccessSite.IsDef).
	allocDef := func(t *thread, base, size int64) {
		if h != nil {
			if h.Store != nil && t.isMain {
				h.Store(defSite, base, size)
			}
			if h.Observe != nil {
				h.Observe(Access{Site: defSite, Addr: base, Size: size, Tid: t.tid,
					Iter: t.curIter, Store: true, Def: true, Ordered: t.inOrdered})
			}
		}
	}
	arg := func(i int) cexpr { return c.compileExpr(x.Args[i]) }

	switch sym.Builtin {
	case ast.BMalloc:
		a0 := arg(0)
		return func(t *thread, f *frame) value {
			t.counters[CatWork]++
			n := a0(t, f).I
			a, err := mm.AllocOn(t.allocTid(), n, site, "")
			if err != nil {
				rterrf(pos, "%v", err)
			}
			allocDef(t, a, n)
			return iv(a)
		}
	case ast.BCalloc:
		a0, a1 := arg(0), arg(1)
		return func(t *thread, f *frame) value {
			t.counters[CatWork]++
			n := a0(t, f).I * a1(t, f).I
			a, err := mm.AllocOn(t.allocTid(), n, site, "")
			if err != nil {
				rterrf(pos, "%v", err)
			}
			allocDef(t, a, n)
			return iv(a)
		}
	case ast.BRealloc:
		a0, a1 := arg(0), arg(1)
		return func(t *thread, f *frame) value {
			t.counters[CatWork]++
			p := a0(t, f).I
			n := a1(t, f).I
			if h != nil && h.Free != nil && p != 0 {
				h.Free(p)
			}
			a, err := mm.ReallocOn(t.allocTid(), p, n, site)
			if err != nil {
				rterrf(pos, "%v", err)
			}
			allocDef(t, a, n)
			return iv(a)
		}
	case ast.BFree:
		a0 := arg(0)
		return func(t *thread, f *frame) value {
			t.counters[CatWork]++
			p := a0(t, f).I
			if h != nil && h.Free != nil && p != 0 {
				h.Free(p)
			}
			if err := mm.Free(p); err != nil {
				rterrf(pos, "%v", err)
			}
			return value{}
		}
	case ast.BMemset:
		a0, a1, a2 := arg(0), arg(1), arg(2)
		return func(t *thread, f *frame) value {
			t.counters[CatWork]++
			p, v, n := a0(t, f).I, a1(t, f).I, a2(t, f).I
			if n > 0 {
				t.checkAccess(pos, p, n)
				mm.Memset(p, byte(v), n)
			}
			return value{}
		}
	case ast.BMemcpy:
		a0, a1, a2 := arg(0), arg(1), arg(2)
		return func(t *thread, f *frame) value {
			t.counters[CatWork]++
			d, s, n := a0(t, f).I, a1(t, f).I, a2(t, f).I
			if n > 0 {
				t.checkAccess(pos, s, n)
				t.checkAccess(pos, d, n)
				mm.Memcpy(d, s, n)
			}
			return value{}
		}
	case ast.BExpandMalloc:
		// Guard marker emitted by the expansion pass in place of an
		// expanded allocation: span bytes per thread copy, esz = element
		// size for interleaved layout (0 = bonded). Allocates all
		// NumThreads copies in one block, like the plain expansion.
		a0, a1 := arg(0), arg(1)
		nt := int64(c.m.opts.NumThreads)
		return func(t *thread, f *frame) value {
			t.counters[CatWork]++
			span := a0(t, f).I
			esz := a1(t, f).I
			n := span * nt
			a, err := mm.AllocOn(t.allocTid(), n, site, "")
			if err != nil {
				rterrf(pos, "%v", err)
			}
			if h != nil && h.Expand != nil {
				h.Expand(a, span, esz)
			}
			allocDef(t, a, n)
			return iv(a)
		}
	case ast.BExpandNote:
		a0, a1, a2 := arg(0), arg(1), arg(2)
		return func(t *thread, f *frame) value {
			t.counters[CatWork]++
			base, span, esz := a0(t, f).I, a1(t, f).I, a2(t, f).I
			if h != nil && h.Expand != nil {
				h.Expand(base, span, esz)
			}
			return value{}
		}
	case ast.BCommNote:
		a0, a1, a2, a3 := arg(0), arg(1), arg(2), arg(3)
		return func(t *thread, f *frame) value {
			t.counters[CatWork]++
			base, span, esz, op := a0(t, f).I, a1(t, f).I, a2(t, f).I, a3(t, f).I
			if h != nil && h.Commute != nil {
				h.Commute(base, span, esz, op)
			}
			return value{}
		}
	case ast.BPrintInt, ast.BPrintLong:
		a0 := arg(0)
		return func(t *thread, f *frame) value {
			t.counters[CatWork]++
			t.m.printf("%d", a0(t, f).I)
			return value{}
		}
	case ast.BPrintDouble:
		a0 := arg(0)
		tf := toFloatC(x.Args[0].ExprType())
		return func(t *thread, f *frame) value {
			t.counters[CatWork]++
			t.m.printf("%.6f", tf(a0(t, f)))
			return value{}
		}
	case ast.BPrintChar:
		a0 := arg(0)
		return func(t *thread, f *frame) value {
			t.counters[CatWork]++
			t.m.printf("%c", rune(a0(t, f).I))
			return value{}
		}
	case ast.BPrintStr:
		a0 := arg(0)
		return func(t *thread, f *frame) value {
			t.counters[CatWork]++
			p := a0(t, f).I
			var bs []byte
			for {
				t.checkAccess(pos, p, 1)
				b := byte(mm.Load1(p))
				if b == 0 {
					break
				}
				bs = append(bs, b)
				p++
			}
			t.m.printf("%s", bs)
			return value{}
		}
	case ast.BSqrt:
		a0 := arg(0)
		tf := toFloatC(x.Args[0].ExprType())
		return func(t *thread, f *frame) value {
			t.counters[CatWork]++
			return fv(math.Sqrt(tf(a0(t, f))))
		}
	case ast.BFabs:
		a0 := arg(0)
		tf := toFloatC(x.Args[0].ExprType())
		return func(t *thread, f *frame) value {
			t.counters[CatWork]++
			return fv(math.Abs(tf(a0(t, f))))
		}
	case ast.BAbs:
		a0 := arg(0)
		return func(t *thread, f *frame) value {
			t.counters[CatWork]++
			v := a0(t, f).I
			if v < 0 {
				v = -v
			}
			return iv(v)
		}
	}
	return fault[value](pos, 1, "unknown builtin %s", sym.Name)
}
