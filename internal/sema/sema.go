// Package sema performs semantic analysis of MiniC programs: name
// resolution with lexical scoping, type checking, slot assignment for
// activation records, and the numbering of memory-access sites,
// allocation sites and loops that the dependence profiler and the
// expansion pass key on.
package sema

import (
	"errors"
	"fmt"

	"gdsx/internal/ast"
	"gdsx/internal/ctypes"
	"gdsx/internal/ddg"
	"gdsx/internal/token"
)

// AccessSite describes one static memory access (one direction of one
// expression node, or the implicit definition performed by a local
// declaration or heap allocation). Access sites are the vertices of
// the loop-level data dependence graph.
type AccessSite struct {
	ID      int
	IsStore bool
	Node    ast.Node // *ast.Ident, *ast.Index, *ast.Member, *ast.Unary, *ast.VarDecl or *ast.Call
	Pos     token.Pos
	Func    *ast.FuncDecl
	Text    string // printable form of the accessed expression
	// Loops contains the IDs of all loops lexically enclosing the
	// access, innermost last.
	Loops []int
	// IsDef marks implicit definition sites (declarations and heap
	// allocations) that exist only so the profiler sees fresh storage
	// as written; they are never redirected.
	IsDef bool
	// Comm marks the site as a commutative update: the load/store pair
	// of an integer += / -= / ++ / -- (CommAdd) or of a guarded
	// min/max update pattern (CommMin/CommMax). The classifier promotes
	// classes made entirely of same-operator commutative sites to
	// privatizable reductions (see ddg.Options.CommSites).
	Comm ddg.CommOp
}

// LoopInfo describes one loop in the program.
type LoopInfo struct {
	ID   int
	Stmt ast.Stmt // *ast.For, *ast.While or *ast.DoWhile
	Func *ast.FuncDecl
	Par  ast.ParKind
}

// Info is the result of Check.
type Info struct {
	Prog     *ast.Program
	Loops    map[int]*LoopInfo
	Accesses map[int]*AccessSite // by access ID
	Allocs   map[int]*ast.Call   // by allocation-site ID
	Globals  []*ast.VarDecl
	TID      *ast.Symbol // the __tid pseudo-variable
	NTH      *ast.Symbol // the __nthreads pseudo-variable
}

// Check analyzes prog in place: it resolves identifiers, types every
// expression, assigns access/alloc/loop identifiers, and returns the
// collected tables. The program must contain a main() function.
func Check(prog *ast.Program) (*Info, error) {
	c := &checker{
		info: &Info{
			Prog:     prog,
			Loops:    map[int]*LoopInfo{},
			Accesses: map[int]*AccessSite{},
			Allocs:   map[int]*ast.Call{},
		},
		globals:  map[string]*ast.Symbol{},
		builtins: map[string]*ast.Symbol{},
	}
	c.declareBuiltins()
	if err := c.program(prog); err != nil {
		return nil, err
	}
	if len(c.errs) > 0 {
		return nil, errors.Join(c.errs...)
	}
	prog.NumAccesses = c.accessID
	prog.NumAllocSites = c.allocID
	return c.info, nil
}

type checker struct {
	info     *Info
	globals  map[string]*ast.Symbol
	builtins map[string]*ast.Symbol
	errs     []error

	fn        *ast.FuncDecl
	scopes    []map[string]*ast.Symbol
	slotCount int
	loopStack []int // enclosing loop IDs, innermost last
	parDepth  int   // > 0 inside a parallel loop body
	loopDepth int   // loop nesting inside current function
	accessID  int
	allocID   int
	globalIdx int
}

func (c *checker) errf(pos token.Pos, format string, args ...any) {
	c.errs = append(c.errs, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

func (c *checker) declareBuiltins() {
	voidPtr := ctypes.PointerTo(ctypes.VoidType)
	charPtr := ctypes.PointerTo(ctypes.CharType)
	l, i, d, v := ctypes.LongType, ctypes.IntType, ctypes.DoubleType, ctypes.VoidType
	decl := func(name string, b ast.BuiltinKind, ret *ctypes.Type, params ...*ctypes.Type) {
		c.builtins[name] = &ast.Symbol{
			Name: name, Kind: ast.SymBuiltin, Builtin: b,
			Type: ctypes.FuncOf(ret, params),
		}
	}
	decl("malloc", ast.BMalloc, voidPtr, l)
	decl("calloc", ast.BCalloc, voidPtr, l, l)
	decl("realloc", ast.BRealloc, voidPtr, voidPtr, l)
	decl("free", ast.BFree, v, voidPtr)
	decl("memset", ast.BMemset, v, voidPtr, i, l)
	decl("memcpy", ast.BMemcpy, v, voidPtr, voidPtr, l)
	decl("print_int", ast.BPrintInt, v, i)
	decl("print_long", ast.BPrintLong, v, l)
	decl("print_double", ast.BPrintDouble, v, d)
	decl("print_char", ast.BPrintChar, v, i)
	decl("print_str", ast.BPrintStr, v, charPtr)
	decl("sqrt", ast.BSqrt, d, d)
	decl("fabs", ast.BFabs, d, d)
	decl("abs", ast.BAbs, i, i)
	// Guarded-expansion markers (see ast.BExpandMalloc/BExpandNote).
	decl("__expand_malloc", ast.BExpandMalloc, voidPtr, l, l)
	decl("__expand_note", ast.BExpandNote, v, voidPtr, l, l)

	c.info.TID = &ast.Symbol{Name: "__tid", Kind: ast.SymTID, Type: ctypes.IntType}
	c.info.NTH = &ast.Symbol{Name: "__nthreads", Kind: ast.SymNTH, Type: ctypes.IntType}
	c.builtins["__tid"] = c.info.TID
	c.builtins["__nthreads"] = c.info.NTH
}

func (c *checker) program(prog *ast.Program) error {
	// Pass 1: declare globals and functions.
	for _, d := range prog.Decls {
		switch x := d.(type) {
		case *ast.VarDecl:
			if _, dup := c.globals[x.Name]; dup {
				c.errf(x.Pos(), "global %s redeclared", x.Name)
				continue
			}
			if x.VLALen != nil {
				c.errf(x.Pos(), "global %s has dynamic array size", x.Name)
			} else if !x.Type.HasStaticSize() {
				c.errf(x.Pos(), "global %s has incomplete type %s", x.Name, x.Type)
			}
			sym := &ast.Symbol{
				Name: x.Name, Kind: ast.SymGlobal, Type: x.Type,
				Index: c.globalIdx, Decl: x,
			}
			c.globalIdx++
			x.Sym = sym
			c.globals[x.Name] = sym
			c.info.Globals = append(c.info.Globals, x)
		case *ast.FuncDecl:
			if _, dup := c.globals[x.Name]; dup {
				c.errf(x.Pos(), "%s redeclared", x.Name)
				continue
			}
			var params []*ctypes.Type
			for _, p := range x.Params {
				params = append(params, p.Type)
			}
			sym := &ast.Symbol{
				Name: x.Name, Kind: ast.SymFunc,
				Type: ctypes.FuncOf(x.Ret, params), Fn: x,
			}
			x.Sym = sym
			c.globals[x.Name] = sym
		}
	}
	// Pass 2: check global initializers (constants only).
	for _, d := range prog.Decls {
		if v, ok := d.(*ast.VarDecl); ok && v.Init != nil {
			init := c.expr(v.Init, rvalue)
			v.Init = init
			if init.ExprType() != nil && !isConstExpr(init) {
				c.errf(v.Pos(), "global initializer for %s is not constant", v.Name)
			}
			c.checkAssignable(v.Pos(), v.Type, init)
		}
	}
	// Pass 3: check function bodies.
	for _, d := range prog.Decls {
		if f, ok := d.(*ast.FuncDecl); ok {
			c.function(f)
		}
	}
	if prog.Func("main") == nil {
		c.errf(token.Pos{File: prog.File}, "program has no main function")
	}
	return nil
}

func isConstExpr(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.IntLit, *ast.FloatLit, *ast.StringLit:
		return true
	case *ast.Unary:
		return x.Op != token.MUL && x.Op != token.AND && isConstExpr(x.X)
	case *ast.Binary:
		return isConstExpr(x.X) && isConstExpr(x.Y)
	case *ast.Cast:
		return isConstExpr(x.X)
	case *ast.SizeofType:
		return true
	}
	return false
}

func (c *checker) function(f *ast.FuncDecl) {
	c.fn = f
	c.slotCount = 0
	c.scopes = []map[string]*ast.Symbol{{}}
	c.loopStack = nil
	c.parDepth = 0
	for _, p := range f.Params {
		if c.lookupLocal(p.Name) != nil {
			c.errf(p.Pos(), "parameter %s redeclared", p.Name)
			continue
		}
		sym := &ast.Symbol{
			Name: p.Name, Kind: ast.SymParam, Type: p.Type,
			Index: c.slotCount, Decl: p,
		}
		c.slotCount++
		p.Sym = sym
		c.scopes[0][p.Name] = sym
		// Binding an argument defines the parameter slot afresh on
		// every call; the profiler needs the definition site so reused
		// slots carry no stale shadow history (see package profile).
		c.accessID++
		p.Acc.Store = c.accessID
		c.info.Accesses[c.accessID] = &AccessSite{
			ID: c.accessID, IsStore: true, Node: p, Pos: p.Pos(), Func: f,
			Text: p.Name + " (param)", IsDef: true,
		}
	}
	c.stmt(f.Body)
	f.NumSlots = c.slotCount
	c.fn = nil
}

func (c *checker) pushScope() { c.scopes = append(c.scopes, map[string]*ast.Symbol{}) }
func (c *checker) popScope()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) lookupLocal(name string) *ast.Symbol {
	return c.scopes[len(c.scopes)-1][name]
}

func (c *checker) lookup(name string) *ast.Symbol {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if s := c.scopes[i][name]; s != nil {
			return s
		}
	}
	if s := c.globals[name]; s != nil {
		return s
	}
	return c.builtins[name]
}

func (c *checker) declareLocal(d *ast.VarDecl) {
	if c.lookupLocal(d.Name) != nil {
		c.errf(d.Pos(), "%s redeclared in this scope", d.Name)
		return
	}
	sym := &ast.Symbol{
		Name: d.Name, Kind: ast.SymLocal, Type: d.Type,
		Index: c.slotCount, Decl: d,
	}
	c.slotCount++
	d.Sym = sym
	c.scopes[len(c.scopes)-1][d.Name] = sym
	// Executing the declaration defines a fresh zeroed object; the
	// profiler needs that definition as a store site so that stack
	// addresses reused across iterations do not leak stale shadow
	// state (see package profile).
	c.accessID++
	d.Acc.Store = c.accessID
	c.info.Accesses[c.accessID] = &AccessSite{
		ID: c.accessID, IsStore: true, Node: d, Pos: d.Pos(), Func: c.fn,
		Text: d.Name + " (decl)", Loops: append([]int(nil), c.loopStack...),
		IsDef: true,
	}
}

func (c *checker) stmt(s ast.Stmt) {
	switch x := s.(type) {
	case *ast.Block:
		c.pushScope()
		for _, st := range x.Stmts {
			c.stmt(st)
		}
		c.popScope()
	case *ast.DeclStmt:
		for _, d := range x.Decls {
			if d.VLALen != nil {
				d.VLALen = c.expr(d.VLALen, rvalue)
				if t := d.VLALen.ExprType(); t != nil && !t.IsInteger() {
					c.errf(d.Pos(), "array length of %s is not an integer", d.Name)
				}
			} else if !d.Type.HasStaticSize() {
				c.errf(d.Pos(), "%s has incomplete type %s", d.Name, d.Type)
			}
			if d.Init != nil {
				d.Init = c.expr(d.Init, rvalue)
				c.checkAssignable(d.Pos(), d.Type, d.Init)
			}
			c.declareLocal(d)
		}
	case *ast.ExprStmt:
		x.X = c.expr(x.X, rvalue)
	case *ast.If:
		x.Cond = c.expr(x.Cond, rvalue)
		c.wantScalar(x.Cond)
		c.stmt(x.Then)
		if x.Else != nil {
			c.stmt(x.Else)
		}
		c.markCommMinMax(x)
	case *ast.For:
		c.forStmt(x)
	case *ast.While:
		x.Cond = c.expr(x.Cond, rvalue)
		c.wantScalar(x.Cond)
		c.enterLoop(x.ID, ast.Sequential, x)
		c.stmt(x.Body)
		c.exitLoop()
	case *ast.DoWhile:
		c.enterLoop(x.ID, ast.Sequential, x)
		c.stmt(x.Body)
		c.exitLoop()
		x.Cond = c.expr(x.Cond, rvalue)
		c.wantScalar(x.Cond)
	case *ast.Return:
		if c.parDepth > 0 {
			c.errf(x.Pos(), "return inside a parallel loop")
		}
		if x.X != nil {
			x.X = c.expr(x.X, rvalue)
			c.checkAssignable(x.Pos(), c.fn.Ret, x.X)
		} else if c.fn.Ret.Kind != ctypes.Void {
			c.errf(x.Pos(), "missing return value in %s", c.fn.Name)
		}
	case *ast.Break, *ast.Continue:
		if len(c.loopStack) == 0 {
			c.errf(x.Pos(), "break/continue outside a loop")
		} else if _, brk := x.(*ast.Break); brk &&
			c.info.Loops[c.loopStack[len(c.loopStack)-1]].Par != ast.Sequential {
			c.errf(x.Pos(), "break out of a parallel loop")
		}
	case *ast.SyncWait, *ast.SyncPost:
		// Inserted by passes; nothing to check.
	}
}

func (c *checker) enterLoop(id int, par ast.ParKind, s ast.Stmt) {
	c.loopStack = append(c.loopStack, id)
	c.info.Loops[id] = &LoopInfo{ID: id, Stmt: s, Func: c.fn, Par: par}
	if par != ast.Sequential {
		c.parDepth++
	}
}

func (c *checker) exitLoop() {
	id := c.loopStack[len(c.loopStack)-1]
	c.loopStack = c.loopStack[:len(c.loopStack)-1]
	if c.info.Loops[id].Par != ast.Sequential {
		c.parDepth--
	}
}

func (c *checker) forStmt(x *ast.For) {
	c.pushScope() // for-init scope
	if x.Init != nil {
		c.stmt(x.Init)
	}
	if x.Cond != nil {
		x.Cond = c.expr(x.Cond, rvalue)
		c.wantScalar(x.Cond)
	}
	if x.Post != nil {
		x.Post = c.expr(x.Post, rvalue)
	}
	if x.Par != ast.Sequential {
		c.bindIndVar(x)
	}
	c.enterLoop(x.ID, x.Par, x)
	c.stmt(x.Body)
	c.exitLoop()
	c.popScope()
}

// bindIndVar identifies the induction variable of a parallel for loop:
// Init must assign or declare a single integer local, Cond must compare
// it, and Post must step it.
func (c *checker) bindIndVar(x *ast.For) {
	var sym *ast.Symbol
	switch init := x.Init.(type) {
	case *ast.DeclStmt:
		if len(init.Decls) == 1 {
			sym = init.Decls[0].Sym
		}
	case *ast.ExprStmt:
		if a, ok := init.X.(*ast.Assign); ok && a.Op == token.ASSIGN {
			if id, ok := a.LHS.(*ast.Ident); ok {
				sym = id.Sym
			}
		}
	}
	if sym == nil || sym.Type == nil || !sym.Type.IsInteger() {
		c.errf(x.Pos(), "parallel for needs a single integer induction variable")
		return
	}
	if sym.Kind != ast.SymLocal && sym.Kind != ast.SymParam {
		c.errf(x.Pos(), "parallel for induction variable %s must be a local", sym.Name)
		return
	}
	step := func(e ast.Expr) bool {
		switch p := e.(type) {
		case *ast.IncDec:
			id, ok := p.X.(*ast.Ident)
			return ok && id.Sym == sym && p.Op == token.INC
		case *ast.Assign:
			id, ok := p.LHS.(*ast.Ident)
			if !ok || id.Sym != sym {
				return false
			}
			return p.Op == token.ADDASSIGN || p.Op == token.ASSIGN
		}
		return false
	}
	if x.Post == nil || !step(x.Post) {
		c.errf(x.Pos(), "parallel for must increment its induction variable in the post statement")
		return
	}
	if x.Cond == nil {
		c.errf(x.Pos(), "parallel for must have a bound condition")
		return
	}
	b, ok := x.Cond.(*ast.Binary)
	if !ok ||
		(b.Op != token.LSS && b.Op != token.LEQ && b.Op != token.GTR && b.Op != token.GEQ && b.Op != token.NEQ) {
		c.errf(x.Pos(), "parallel for condition must be a comparison")
		return
	}
	// The runtime evaluates the bound and step once at loop entry
	// (like OpenMP), so they must be pure expressions.
	if !pureExpr(b.X) || !pureExpr(b.Y) {
		c.errf(x.Pos(), "parallel for bound must be a pure expression (no calls or assignments)")
		return
	}
	if a, ok := x.Post.(*ast.Assign); ok && !pureExpr(a.RHS) {
		c.errf(x.Pos(), "parallel for step must be a pure expression (no calls or assignments)")
		return
	}
	x.IndVar = sym
}

// pureExpr reports whether evaluating e has no side effects and no
// dependence on evaluation count (no calls, assignments or increments).
func pureExpr(e ast.Expr) bool {
	pure := true
	ast.Inspect(e, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.Call, *ast.Assign, *ast.IncDec:
			pure = false
		}
		return pure
	})
	return pure
}

func (c *checker) wantScalar(e ast.Expr) {
	if t := e.ExprType(); t != nil && !t.IsScalar() {
		c.errf(e.Pos(), "condition has non-scalar type %s", t)
	}
}
