// Closure-compilation execution engine.
//
// After sema, compileProgram walks each function body and each global
// initializer exactly once and produces a tree of Go closures:
//
//   - identifiers resolve to a fixed frame-slot or global-table index
//     at compile time (no symbol-kind switch per access),
//   - types, access widths, conversion paths and element sizes are
//     chosen once (no ctypes dispatch per evaluation),
//   - constant subtrees fold to a single closure that bumps the work
//     counter by the subtree's static node count,
//   - no closure switches on the AST node kind: each calls its
//     children directly.
//
// Every executed statement and every evaluated rvalue node ticks the
// work counter once (address computations do not); the optimization
// pipeline (opt.go) keeps those totals exact. The engine fires every
// Hooks callback (Load/Store/LoopEnter/LoopIter/LoopExit/Redirect/
// Free/ParallelStart/ParallelEnd) at fixed program points with the
// access-site IDs sema assigned, and raises positioned runtime errors.
// Constructs sema never produces compile to a closure that raises a
// runtime error (fault); cold paths that run once per loop instance
// or once per run (parallel-loop bounds, global initializers) are
// compiled like everything else.
package interp

import (
	"math"

	"gdsx/internal/ast"
	"gdsx/internal/ctypes"
	"gdsx/internal/mem"
	"gdsx/internal/token"
)

// cstmt executes one compiled statement.
type cstmt func(t *thread, f *frame) ctrl

// cexpr computes the rvalue of one compiled expression.
type cexpr func(t *thread, f *frame) value

// caddr computes the lvalue address of one compiled expression.
type caddr func(t *thread, f *frame) int64

// cconv converts a value between two statically known types.
type cconv func(v value) value

// compiledFunc is one closure-compiled function body.
type compiledFunc struct {
	fn   *ast.FuncDecl
	body cstmt
	// nregs is the register-file size callCompiled reserves for the
	// frame; 0 unless the optimizing compiler promoted something.
	nregs int
	// pparams maps argument positions to the register slots of
	// promoted parameters.
	pparams []promotedParam
}

// promotedParam records that argument arg of a call initializes the
// frame register of the parameter at slot index slot.
type promotedParam struct {
	arg, slot int
}

// compiledProg holds the compiled bodies of every function in a
// program, keyed by declaration (declarations are shared pointers),
// and the compiled initializers of its globals, indexed like
// sema.Info.Globals (nil for a global without one). An initializer
// closure yields the value already converted to the global's type.
type compiledProg struct {
	funcs   map[*ast.FuncDecl]*compiledFunc
	globals []cexpr
}

// compiler compiles one program for one machine. Options are fixed at
// Machine creation, so hook presence, thread count and the op budget
// specialize the generated closures.
type compiler struct {
	m     *Machine
	mem   *mem.Memory
	hooks *Hooks // nil when the machine runs without hooks
	prog  *compiledProg
	curFn *ast.FuncDecl
	maxOp int64
	// cancellable compiles the cooperative-cancellation poll into every
	// statement tick; set when the machine runs under Options.Ctx.
	cancellable bool
	// opt holds the resolved optimization-pipeline switches (opt.go).
	opt optConfig
	// promoted flags, by Symbol.Index, which of curFn's slots live in
	// frame registers; nil when nothing in curFn is promoted.
	promoted []bool
}

// compileProgram compiles every function and global initializer of
// m's program. Functions may be mutually recursive, so the
// compiledFunc shells are created first and the bodies filled in a
// second pass.
func compileProgram(m *Machine) *compiledProg {
	c := &compiler{
		m:     m,
		mem:   m.mem,
		hooks: m.opts.Hooks,
		prog:  &compiledProg{funcs: map[*ast.FuncDecl]*compiledFunc{}},
		maxOp: m.opts.MaxOps,
		opt:   newOptConfig(m),
	}
	c.cancellable = m.opts.Ctx != nil && m.opts.Ctx.Done() != nil
	fns := m.prog.Funcs()
	for _, fn := range fns {
		c.prog.funcs[fn] = &compiledFunc{fn: fn}
	}
	for _, fn := range fns {
		c.curFn = fn
		c.promoted = c.promotableSlots(fn)
		cf := c.prog.funcs[fn]
		cf.body = c.compileBlock(fn.Body)
		if c.promoted != nil {
			cf.nregs = fn.NumSlots
			for i, p := range fn.Params {
				if c.promoted[p.Sym.Index] {
					cf.pparams = append(cf.pparams, promotedParam{arg: i, slot: p.Sym.Index})
				}
			}
		}
	}
	// Global initializers are constant expressions (sema rejects
	// anything else), so they run without a frame.
	c.curFn, c.promoted = nil, nil
	c.prog.globals = make([]cexpr, len(m.info.Globals))
	for i, g := range m.info.Globals {
		if g.Init == nil {
			continue
		}
		ce := c.compileExpr(g.Init)
		cv := convC(g.Init.ExprType(), g.Type)
		c.prog.globals[i] = func(t *thread, f *frame) value { return cv(ce(t, f)) }
	}
	return c.prog
}

// ---------------------------------------------------------------------
// Type-directed helper compilation
// ---------------------------------------------------------------------

func idConv(v value) value { return v }

// truncC compiles truncInt for the statically known integer type t.
func truncC(t *ctypes.Type) func(int64) value {
	if !t.HasStaticSize() {
		// The size computation itself faults at evaluation time, not at
		// compile time.
		return func(i int64) value { return truncInt(i, t) }
	}
	switch t.Size() {
	case 1:
		if t.Unsigned {
			return func(i int64) value { return iv(int64(uint8(i))) }
		}
		return func(i int64) value { return iv(int64(int8(i))) }
	case 2:
		if t.Unsigned {
			return func(i int64) value { return iv(int64(uint16(i))) }
		}
		return func(i int64) value { return iv(int64(int16(i))) }
	case 4:
		if t.Unsigned {
			return func(i int64) value { return iv(int64(uint32(i))) }
		}
		return func(i int64) value { return iv(int64(int32(i))) }
	default:
		return func(i int64) value { return iv(i) }
	}
}

// convC compiles convert for the statically known (from, to) pair.
func convC(from, to *ctypes.Type) cconv {
	if from == nil || to == nil {
		return idConv
	}
	if from.Kind == ctypes.Array {
		return idConv // decayed address
	}
	switch {
	case to.IsFloat() && from.IsFloat():
		if to.Kind == ctypes.Float {
			return func(v value) value { return fv(float64(float32(v.F))) }
		}
		return idConv
	case to.IsFloat():
		if from.Unsigned {
			return func(v value) value { return fv(float64(uint64(v.I))) }
		}
		return func(v value) value { return fv(float64(v.I)) }
	case from.IsFloat(): // to integer
		tr := truncC(to)
		return func(v value) value { return tr(int64(v.F)) }
	case to.Kind == ctypes.Ptr:
		return idConv
	case to.IsInteger():
		tr := truncC(to)
		return func(v value) value { return tr(v.I) }
	}
	return idConv
}

// truthC compiles truth for the statically known type t.
func truthC(t *ctypes.Type) func(value) bool {
	if t != nil && t.IsFloat() {
		return func(v value) bool { return v.F != 0 }
	}
	return func(v value) bool { return v.I != 0 }
}

// toFloatC compiles toFloat for the statically known type t.
func toFloatC(t *ctypes.Type) func(value) float64 {
	if t.IsFloat() {
		return func(v value) float64 { return v.F }
	}
	if t.Unsigned {
		return func(v value) float64 { return float64(uint64(v.I)) }
	}
	return func(v value) float64 { return float64(v.I) }
}

// staticSizeOfElem returns sizeOfElem's result for types whose size is
// statically known; ok == false means sizeOfElem raises a runtime
// error (or needs a dynamic computation) for this type.
func staticSizeOfElem(t *ctypes.Type) (int64, bool) {
	if t == nil {
		return 0, false
	}
	if t.Kind == ctypes.Void {
		return 1, true
	}
	if !t.HasStaticSize() {
		return 0, false
	}
	return t.Size(), true
}

// loaderFor compiles loadTyped for the statically known type ty.
func (c *compiler) loaderFor(ty *ctypes.Type) func(t *thread, addr int64) value {
	mm := c.mem
	switch ty.Kind {
	case ctypes.Float:
		return func(t *thread, addr int64) value {
			return fv(float64(math.Float32frombits(uint32(mm.Load4(addr)))))
		}
	case ctypes.Double:
		return func(t *thread, addr int64) value {
			return fv(math.Float64frombits(mm.Load8(addr)))
		}
	case ctypes.Ptr:
		return func(t *thread, addr int64) value { return iv(int64(mm.Load8(addr))) }
	}
	if !ty.HasStaticSize() {
		return func(t *thread, addr int64) value { return t.loadTyped(addr, ty) }
	}
	switch ty.Size() {
	case 1:
		if ty.Unsigned {
			return func(t *thread, addr int64) value { return iv(int64(uint8(mm.Load1(addr)))) }
		}
		return func(t *thread, addr int64) value { return iv(int64(int8(mm.Load1(addr)))) }
	case 2:
		if ty.Unsigned {
			return func(t *thread, addr int64) value { return iv(int64(uint16(mm.Load2(addr)))) }
		}
		return func(t *thread, addr int64) value { return iv(int64(int16(mm.Load2(addr)))) }
	case 4:
		if ty.Unsigned {
			return func(t *thread, addr int64) value { return iv(int64(uint32(mm.Load4(addr)))) }
		}
		return func(t *thread, addr int64) value { return iv(int64(int32(mm.Load4(addr)))) }
	case 8:
		return func(t *thread, addr int64) value { return iv(int64(mm.Load8(addr))) }
	}
	// Odd width (e.g. a struct type reaching a scalar load): use the
	// generic path, which faults at run time.
	return func(t *thread, addr int64) value { return t.loadTyped(addr, ty) }
}

// storerFor compiles storeTyped for the statically known type ty.
func (c *compiler) storerFor(ty *ctypes.Type) func(t *thread, addr int64, v value) {
	mm := c.mem
	switch ty.Kind {
	case ctypes.Float:
		return func(t *thread, addr int64, v value) {
			mm.Store4(addr, uint64(math.Float32bits(float32(v.F))))
		}
	case ctypes.Double:
		return func(t *thread, addr int64, v value) { mm.Store8(addr, math.Float64bits(v.F)) }
	case ctypes.Ptr:
		return func(t *thread, addr int64, v value) { mm.Store8(addr, uint64(v.I)) }
	case ctypes.Struct:
		return func(t *thread, addr int64, v value) { t.storeTyped(addr, ty, v) } // rterrf
	}
	if !ty.HasStaticSize() {
		return func(t *thread, addr int64, v value) { t.storeTyped(addr, ty, v) }
	}
	switch ty.Size() {
	case 1:
		return func(t *thread, addr int64, v value) { mm.Store1(addr, uint64(v.I)) }
	case 2:
		return func(t *thread, addr int64, v value) { mm.Store2(addr, uint64(v.I)) }
	case 4:
		return func(t *thread, addr int64, v value) { mm.Store4(addr, uint64(v.I)) }
	case 8:
		return func(t *thread, addr int64, v value) { mm.Store8(addr, uint64(v.I)) }
	}
	return func(t *thread, addr int64, v value) { t.storeTyped(addr, ty, v) }
}

// loadAcc compiles loadAccess for a fixed site and type: cache-model
// touch, profiling/redirection hooks, the null/bounds check, then the
// typed load. The hook branch disappears entirely when the machine's
// hook chain carries no per-access hooks (region-level layers like the
// observability adapter compile to the same closures as no hooks at
// all).
func (c *compiler) loadAcc(pos token.Pos, site int, ty *ctypes.Type) func(t *thread, addr int64) value {
	ld := c.loaderFor(ty)
	size := accSize(ty)
	if !c.hooks.HasAccessHooks() {
		return func(t *thread, addr int64) value {
			t.touchCache(addr)
			t.checkAccess(pos, addr, size)
			return ld(t, addr)
		}
	}
	h := c.hooks
	return func(t *thread, addr int64) value {
		t.touchCache(addr)
		if h.Redirect != nil {
			var cost int64
			addr, cost = h.Redirect(site, addr, size, t.tid)
			t.counters[CatWork] += cost
		}
		t.checkAccess(pos, addr, size)
		if h.Load != nil && t.isMain {
			h.Load(site, addr, size)
		}
		if h.Observe != nil && t.observeOK(h, addr, size) {
			h.Observe(Access{Site: site, Addr: addr, Size: size, Tid: t.tid,
				Iter: t.curIter, Ordered: t.inOrdered})
		}
		return ld(t, addr)
	}
}

// storeAcc compiles storeAccess for a fixed site and type.
func (c *compiler) storeAcc(pos token.Pos, site int, ty *ctypes.Type) func(t *thread, addr int64, v value) {
	st := c.storerFor(ty)
	size := accSize(ty)
	if !c.hooks.HasAccessHooks() {
		return func(t *thread, addr int64, v value) {
			t.touchCache(addr)
			t.checkAccess(pos, addr, size)
			st(t, addr, v)
		}
	}
	h := c.hooks
	return func(t *thread, addr int64, v value) {
		t.touchCache(addr)
		if h.Redirect != nil {
			var cost int64
			addr, cost = h.Redirect(site, addr, size, t.tid)
			t.counters[CatWork] += cost
		}
		t.checkAccess(pos, addr, size)
		if h.Store != nil && t.isMain {
			h.Store(site, addr, size)
		}
		if h.Observe != nil && t.observeOK(h, addr, size) {
			h.Observe(Access{Site: site, Addr: addr, Size: size, Tid: t.tid,
				Iter: t.curIter, Store: true, Ordered: t.inOrdered})
		}
		st(t, addr, v)
	}
}

// accSize is the byte size the hooks observe for an access of type ty.
func accSize(ty *ctypes.Type) int64 {
	if ty == nil || !ty.HasStaticSize() {
		return 0
	}
	return ty.Size()
}

// symAddrC compiles symAddr for a fixed symbol.
func (c *compiler) symAddrC(sym *ast.Symbol, pos token.Pos) caddr {
	switch sym.Kind {
	case ast.SymGlobal:
		idx := sym.Index
		return func(t *thread, f *frame) int64 { return t.m.globalAddr[idx] }
	case ast.SymLocal, ast.SymParam:
		idx := sym.Index
		name := sym.Name
		return func(t *thread, f *frame) int64 {
			a := f.slots[idx]
			if a == 0 {
				rterrf(pos, "variable %s used before its declaration executed", name)
			}
			return a
		}
	}
	name := sym.Name
	return func(t *thread, f *frame) int64 {
		rterrf(pos, "%s has no address", name)
		return 0
	}
}

// ---------------------------------------------------------------------
// Compile-time constant folding
// ---------------------------------------------------------------------

// constEval evaluates e at compile time when the subtree is
// side-effect free, deterministic and cannot raise a runtime error.
// n is the number of work-counter ticks evaluating the subtree would
// record, so the folded closure stays counter-exact.
func (c *compiler) constEval(e ast.Expr) (v value, n int64, ok bool) {
	switch x := e.(type) {
	case *ast.IntLit:
		return iv(x.Value), 1, true
	case *ast.FloatLit:
		return fv(x.Value), 1, true
	case *ast.SizeofType:
		if !x.Of.HasStaticSize() {
			return value{}, 0, false
		}
		return iv(x.Of.Size()), 1, true
	case *ast.SizeofExpr:
		t := x.X.ExprType()
		if t == nil || !t.HasStaticSize() {
			return value{}, 0, false
		}
		return iv(t.Size()), 1, true
	case *ast.Cast:
		xv, xn, xok := c.constEval(x.X)
		if !xok || x.To == nil || !x.To.HasStaticSize() {
			return value{}, 0, false
		}
		return convert(xv, x.X.ExprType(), x.To), xn + 1, true
	case *ast.Unary:
		return c.constUnary(x)
	case *ast.Binary:
		return c.constBinary(x)
	case *ast.Logical:
		return c.constLogical(x)
	case *ast.Cond:
		return c.constCond(x)
	}
	return value{}, 0, false
}

// constLogical folds && / || with short-circuit-exact tick counts: the
// right operand is never evaluated (or ticked) once the left decides,
// so a decided left folds the whole expression even when the right is
// not constant.
func (c *compiler) constLogical(x *ast.Logical) (value, int64, bool) {
	xv, xn, ok := c.constEval(x.X)
	if !ok {
		return value{}, 0, false
	}
	tx := truth(xv, x.X.ExprType())
	if x.Op == token.LAND && !tx {
		return iv(0), xn + 1, true
	}
	if x.Op == token.LOR && tx {
		return iv(1), xn + 1, true
	}
	yv, yn, ok := c.constEval(x.Y)
	if !ok {
		return value{}, 0, false
	}
	if truth(yv, x.Y.ExprType()) {
		return iv(1), xn + yn + 1, true
	}
	return iv(0), xn + yn + 1, true
}

// constCond folds ?: when the condition and the taken branch are
// constant. The untaken branch never runs, so it needs no folding —
// only the taken branch's ticks count.
func (c *compiler) constCond(x *ast.Cond) (value, int64, bool) {
	cv, cn, ok := c.constEval(x.C)
	if !ok || x.ExprType() == nil {
		return value{}, 0, false
	}
	taken := x.Then
	if !truth(cv, x.C.ExprType()) {
		taken = x.Else
	}
	tv, tn, ok := c.constEval(taken)
	if !ok {
		return value{}, 0, false
	}
	return convert(tv, taken.ExprType(), x.ExprType()), cn + tn + 1, true
}

func (c *compiler) constUnary(x *ast.Unary) (value, int64, bool) {
	xt, rt := x.X.ExprType(), x.ExprType()
	if xt == nil || rt == nil || !rt.HasStaticSize() {
		return value{}, 0, false
	}
	xv, xn, ok := c.constEval(x.X)
	if !ok {
		return value{}, 0, false
	}
	switch x.Op {
	case token.SUB:
		if rt.IsFloat() {
			return fv(-toFloat(xv, xt)), xn + 1, true
		}
		return truncInt(-xv.I, rt), xn + 1, true
	case token.ADD:
		return convert(xv, xt, rt), xn + 1, true
	case token.NOT:
		return truncInt(^xv.I, rt), xn + 1, true
	case token.LNOT:
		if truth(xv, xt) {
			return iv(0), xn + 1, true
		}
		return iv(1), xn + 1, true
	}
	return value{}, 0, false
}

func (c *compiler) constBinary(x *ast.Binary) (value, int64, bool) {
	xt, yt, rt := x.X.ExprType(), x.Y.ExprType(), x.ExprType()
	if xt == nil || yt == nil || rt == nil || !rt.HasStaticSize() {
		return value{}, 0, false
	}
	if xt.Kind == ctypes.Ptr || xt.Kind == ctypes.Array ||
		yt.Kind == ctypes.Ptr || yt.Kind == ctypes.Array {
		return value{}, 0, false
	}
	xv, xn, ok := c.constEval(x.X)
	if !ok {
		return value{}, 0, false
	}
	yv, yn, ok := c.constEval(x.Y)
	if !ok {
		return value{}, 0, false
	}
	n := xn + yn + 1
	common := ctypes.Common(xt, yt)
	a := convert(xv, xt, common)
	b := convert(yv, yt, common)

	if common.IsFloat() {
		switch x.Op {
		case token.ADD:
			return fv(a.F + b.F), n, true
		case token.SUB:
			return fv(a.F - b.F), n, true
		case token.MUL:
			return fv(a.F * b.F), n, true
		case token.QUO:
			return fv(a.F / b.F), n, true
		case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
			return cmpFloat(x.Op, a.F, b.F), n, true
		}
		return value{}, 0, false
	}

	switch x.Op {
	case token.ADD:
		return truncInt(a.I+b.I, rt), n, true
	case token.SUB:
		return truncInt(a.I-b.I, rt), n, true
	case token.MUL:
		return truncInt(a.I*b.I, rt), n, true
	case token.QUO, token.REM:
		if b.I == 0 {
			return value{}, 0, false // must raise at run time
		}
		var r int64
		if common.Unsigned {
			if x.Op == token.QUO {
				r = int64(uint64(a.I) / uint64(b.I))
			} else {
				r = int64(uint64(a.I) % uint64(b.I))
			}
		} else {
			if x.Op == token.QUO {
				r = a.I / b.I
			} else {
				r = a.I % b.I
			}
		}
		return truncInt(r, rt), n, true
	case token.SHL:
		return truncInt(a.I<<uint(b.I&63), rt), n, true
	case token.SHR:
		if xt.Unsigned {
			if promSize(xt) == 4 {
				return truncInt(int64(uint32(a.I)>>uint(b.I&63)), rt), n, true
			}
			return truncInt(int64(uint64(a.I)>>uint(b.I&63)), rt), n, true
		}
		return truncInt(a.I>>uint(b.I&63), rt), n, true
	case token.AND:
		return truncInt(a.I&b.I, rt), n, true
	case token.OR:
		return truncInt(a.I|b.I, rt), n, true
	case token.XOR:
		return truncInt(a.I^b.I, rt), n, true
	case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
		return cmpInt(x.Op, a.I, b.I, common.Unsigned), n, true
	}
	return value{}, 0, false
}
