// Package ast defines the abstract syntax tree for MiniC programs,
// together with cloning, traversal, and a source printer. The data
// structure expansion pass rewrites this tree in place; the printer
// renders the transformed tree back to legal MiniC so every stage of
// the transformation is inspectable and re-parsable.
package ast

import (
	"gdsx/internal/ctypes"
	"gdsx/internal/token"
)

// Node is the interface implemented by all AST nodes.
type Node interface {
	Pos() token.Pos
}

// Expr is the interface of expression nodes. After semantic analysis,
// ExprType reports the checked type of the expression.
type Expr interface {
	Node
	ExprType() *ctypes.Type
	exprNode()
}

// Stmt is the interface of statement nodes.
type Stmt interface {
	Node
	stmtNode()
}

// Decl is the interface of top-level declaration nodes.
type Decl interface {
	Node
	declNode()
}

// Access carries the static memory-access identifiers assigned by
// semantic analysis to expressions that can read or write simulated
// memory. The zero value means "no access of that direction". These
// identifiers are the vertices of the loop-level data dependence graph
// (paper Definition 1).
type Access struct {
	Load  int // > 0 if this node performs a memory load
	Store int // > 0 if this node performs a memory store
}

// SymKind classifies what a resolved identifier denotes.
type SymKind int

// Symbol kinds.
const (
	SymGlobal SymKind = iota
	SymLocal
	SymParam
	SymFunc
	SymBuiltin // runtime intrinsics: malloc, print_int, ...
	SymTID     // the __tid pseudo-variable (current thread index)
	SymNTH     // the __nthreads pseudo-variable (thread count)
)

// BuiltinKind identifies a runtime intrinsic function.
type BuiltinKind int

// Builtin functions provided by the runtime.
const (
	BNone BuiltinKind = iota
	BMalloc
	BCalloc
	BRealloc
	BFree
	BMemset
	BMemcpy
	BPrintInt
	BPrintLong
	BPrintDouble
	BPrintChar
	BPrintStr
	BSqrt
	BFabs
	BAbs
	// BExpandMalloc and BExpandNote are markers the guarded expansion
	// pass emits (see internal/expand, Options.GuardNotes):
	// __expand_malloc(span, esz) allocates span*__nthreads bytes and
	// reports the expanded extent to the access monitor;
	// __expand_note(base, span, esz) reports an expanded stack or
	// global object without allocating. esz is the element size for
	// interleaved layout, 0 for bonded.
	BExpandMalloc
	BExpandNote
)

// Symbol is the semantic object an identifier resolves to. Symbols are
// created by the sema package and shared by all references.
type Symbol struct {
	Name    string
	Kind    SymKind
	Type    *ctypes.Type
	Index   int      // slot index among a function's locals/params, or global index
	Decl    *VarDecl // defining declaration for variables
	Fn      *FuncDecl
	Builtin BuiltinKind

	// AddrTaken is set by sema when the variable's address is observed
	// (&x, sizeof x, or as the base of a member access). Variables whose
	// address is never taken can only be reached through their name,
	// which makes them safe for register promotion in the compiled
	// engine.
	AddrTaken bool
}

func (s *Symbol) String() string { return s.Name }

// ---------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------

type exprBase struct {
	P token.Pos
	T *ctypes.Type
}

func (e *exprBase) Pos() token.Pos         { return e.P }
func (e *exprBase) ExprType() *ctypes.Type { return e.T }
func (e *exprBase) SetType(t *ctypes.Type) { e.T = t }
func (e *exprBase) SetPos(p token.Pos)     { e.P = p }

// Ident is a reference to a named variable or function.
type Ident struct {
	exprBase
	Name string
	Sym  *Symbol
	Acc  Access
}

// IntLit is an integer constant. Type defaults to int, or long when the
// value does not fit in 32 bits.
type IntLit struct {
	exprBase
	Value int64
}

// FloatLit is a floating constant (double).
type FloatLit struct {
	exprBase
	Value float64
}

// StringLit is a string constant; it evaluates to a char* into an
// interned, NUL-terminated buffer.
type StringLit struct {
	exprBase
	Value string
}

// Unary is a prefix operator application. Op is one of SUB, ADD, LNOT,
// NOT, MUL (dereference), AND (address-of).
type Unary struct {
	exprBase
	Op token.Kind
	X  Expr
	// Acc is set for dereferences (Op == MUL), which access memory.
	Acc Access
}

// Binary is a binary operator application (no assignment, no &&/|| —
// see Logical).
type Binary struct {
	exprBase
	Op   token.Kind
	X, Y Expr
}

// Logical is a short-circuit && or || expression.
type Logical struct {
	exprBase
	Op   token.Kind // LAND or LOR
	X, Y Expr
}

// Cond is the ternary ?: expression.
type Cond struct {
	exprBase
	C, Then, Else Expr
}

// Assign is an assignment expression; Op is ASSIGN or a compound
// assignment token. The LHS carries the store access; for compound
// assignments it also carries a load access.
type Assign struct {
	exprBase
	Op  token.Kind
	LHS Expr
	RHS Expr
}

// IncDec is ++x, --x, x++ or x--.
type IncDec struct {
	exprBase
	Op   token.Kind // INC or DEC
	X    Expr
	Post bool
}

// Index is the subscript expression X[I].
type Index struct {
	exprBase
	X, I Expr
	Acc  Access
}

// Member is a field selection X.Name or X->Name.
type Member struct {
	exprBase
	X     Expr
	Name  string
	Arrow bool
	Field *ctypes.Field
	Acc   Access
}

// Call is a function or builtin invocation.
type Call struct {
	exprBase
	Fun  *Ident
	Args []Expr
	// AllocSite is a positive identifier when this call is a heap
	// allocation (malloc/calloc/realloc); it names the allocation site
	// for the points-to analysis and the expansion pass.
	AllocSite int
	// Acc.Store is the implicit definition the allocation performs on
	// the fresh block (the profiler needs it so reused addresses do not
	// leak dependences from dead blocks).
	Acc Access
}

// Cast is an explicit type conversion (T)X, including pointer recasts
// such as the bzip2 short*/int* pattern.
type Cast struct {
	exprBase
	To *ctypes.Type
	X  Expr
}

// SizeofType is sizeof(T).
type SizeofType struct {
	exprBase
	Of *ctypes.Type
}

// SizeofExpr is sizeof expr.
type SizeofExpr struct {
	exprBase
	X Expr
}

func (*Ident) exprNode()      {}
func (*IntLit) exprNode()     {}
func (*FloatLit) exprNode()   {}
func (*StringLit) exprNode()  {}
func (*Unary) exprNode()      {}
func (*Binary) exprNode()     {}
func (*Logical) exprNode()    {}
func (*Cond) exprNode()       {}
func (*Assign) exprNode()     {}
func (*IncDec) exprNode()     {}
func (*Index) exprNode()      {}
func (*Member) exprNode()     {}
func (*Call) exprNode()       {}
func (*Cast) exprNode()       {}
func (*SizeofType) exprNode() {}
func (*SizeofExpr) exprNode() {}

// ---------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------

type stmtBase struct{ P token.Pos }

func (s *stmtBase) Pos() token.Pos     { return s.P }
func (s *stmtBase) SetPos(p token.Pos) { s.P = p }

// Block is a brace-delimited statement list with its own scope.
type Block struct {
	stmtBase
	Stmts []Stmt
}

// DeclStmt declares one or more local variables.
type DeclStmt struct {
	stmtBase
	Decls []*VarDecl
}

// ExprStmt evaluates an expression for its effects.
type ExprStmt struct {
	stmtBase
	X Expr
}

// If is the conditional statement.
type If struct {
	stmtBase
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
}

// ParKind classifies the parallelism annotation on a loop.
type ParKind int

// Parallel loop kinds.
const (
	Sequential ParKind = iota
	DOALL              // independent iterations, static chunking
	DOACROSS           // cross-iteration deps, dynamic chunk-1 + ordered sync
)

func (k ParKind) String() string {
	switch k {
	case DOALL:
		return "DOALL"
	case DOACROSS:
		return "DOACROSS"
	}
	return "sequential"
}

// For is a C for loop. Loops annotated "parallel for" (DOALL) or
// "parallel doacross for" carry Par != Sequential and are the
// candidates for expansion + parallel execution. Every loop in a
// program gets a unique positive ID for profiling.
type For struct {
	stmtBase
	Init Stmt // nil, DeclStmt or ExprStmt
	Cond Expr // nil means true
	Post Expr // nil allowed
	Body Stmt
	Par  ParKind
	ID   int

	// Filled by sema for parallel loops: the induction variable
	// (single local scalar assigned in Init and stepped in Post).
	IndVar *Symbol
}

// While is a while loop.
type While struct {
	stmtBase
	Cond Expr
	Body Stmt
	ID   int
}

// DoWhile is a do { } while loop.
type DoWhile struct {
	stmtBase
	Body Stmt
	Cond Expr
	ID   int
}

// Return returns from the enclosing function.
type Return struct {
	stmtBase
	X Expr // nil for void
}

// Break exits the innermost loop.
type Break struct{ stmtBase }

// Continue advances the innermost loop.
type Continue struct{ stmtBase }

// SyncWait blocks until all prior iterations of the enclosing DOACROSS
// loop have executed their matching SyncPost (ordered-section entry).
// Inserted by the sync-placement pass; not written in source programs.
type SyncWait struct{ stmtBase }

// SyncPost signals completion of the current iteration's ordered
// section (ordered-section exit).
type SyncPost struct{ stmtBase }

func (*Block) stmtNode()    {}
func (*DeclStmt) stmtNode() {}
func (*ExprStmt) stmtNode() {}
func (*If) stmtNode()       {}
func (*For) stmtNode()      {}
func (*While) stmtNode()    {}
func (*DoWhile) stmtNode()  {}
func (*Return) stmtNode()   {}
func (*Break) stmtNode()    {}
func (*Continue) stmtNode() {}
func (*SyncWait) stmtNode() {}
func (*SyncPost) stmtNode() {}

// ---------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------

// VarDecl declares a variable (global or local) or a parameter.
// For a VLA (outermost array dimension of dynamic length), Type has
// Len < 0 on its outer array and VLALen holds the length expression.
type VarDecl struct {
	P      token.Pos
	Name   string
	Type   *ctypes.Type
	VLALen Expr // nil unless outer array dimension is dynamic
	Init   Expr // nil if none
	Sym    *Symbol
	// Acc.Store is the implicit definition executing the declaration
	// performs (local declarations create a fresh zeroed object each
	// time they execute; see package profile).
	Acc Access
}

func (d *VarDecl) Pos() token.Pos { return d.P }
func (d *VarDecl) declNode()      {}

// FuncDecl defines a function.
type FuncDecl struct {
	P      token.Pos
	Name   string
	Ret    *ctypes.Type
	Params []*VarDecl
	Body   *Block
	Sym    *Symbol

	// Filled by sema.
	NumSlots int // locals+params slot count for activation records
}

func (d *FuncDecl) Pos() token.Pos { return d.P }
func (d *FuncDecl) declNode()      {}

// StructDef records a struct type definition for printing.
type StructDef struct {
	P    token.Pos
	Type *ctypes.Type
}

func (d *StructDef) Pos() token.Pos { return d.P }
func (d *StructDef) declNode()      {}

// Program is a parsed MiniC translation unit. It implements Node so
// tree-walking helpers accept it as a root.
type Program struct {
	File  string
	Decls []Decl

	// NumLoops is the number of loop IDs assigned (IDs are 1..NumLoops).
	NumLoops int
	// NumAccesses is the number of access IDs assigned (1..NumAccesses).
	NumAccesses int
	// NumAllocSites is the number of heap allocation sites (1..N).
	NumAllocSites int
}

// Pos implements Node; a program has no single position.
func (p *Program) Pos() token.Pos { return token.Pos{} }

// Funcs returns the function declarations of the program in order.
func (p *Program) Funcs() []*FuncDecl {
	var fs []*FuncDecl
	for _, d := range p.Decls {
		if f, ok := d.(*FuncDecl); ok {
			fs = append(fs, f)
		}
	}
	return fs
}

// Func returns the function with the given name, or nil.
func (p *Program) Func(name string) *FuncDecl {
	for _, d := range p.Decls {
		if f, ok := d.(*FuncDecl); ok && f.Name == name {
			return f
		}
	}
	return nil
}

// Globals returns the global variable declarations in order.
func (p *Program) Globals() []*VarDecl {
	var gs []*VarDecl
	for _, d := range p.Decls {
		if v, ok := d.(*VarDecl); ok {
			gs = append(gs, v)
		}
	}
	return gs
}
