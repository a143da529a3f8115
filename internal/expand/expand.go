// Package expand implements the paper's core contribution: general
// data structure expansion for multi-threading. Given a target loop,
// its loop-level data dependence graph, the access classification of
// Definition 5 and a points-to analysis, it rewrites the program so
// that every contentious data structure holds N adjacent copies
// (Table 1), pointers that may reach expanded structures become fat
// pointers carrying a span field (Figures 4–6, Table 3), and every
// memory access is redirected to its thread's copy or the shared copy
// (Table 2). For DOACROSS loops it also places ordered-section
// synchronization around the residual loop-carried dependences.
//
// The transformation is source-to-source: the mutated AST prints back
// to legal MiniC (referencing the __tid and __nthreads pseudo-
// variables), which the driver re-parses, re-checks and executes.
package expand

import (
	"fmt"
	"sort"

	"gdsx/internal/alias"
	"gdsx/internal/ast"
	"gdsx/internal/ctypes"
	"gdsx/internal/ddg"
	"gdsx/internal/sema"
	"gdsx/internal/token"
)

// Token aliases keep generated-AST helpers compact.
const (
	tokMUL    = token.MUL
	tokADD    = token.ADD
	tokQUO    = token.QUO
	tokASSIGN = token.ASSIGN
)

// Layout selects the copy layout of expanded structures (paper Fig. 2).
type Layout int

// Layouts.
const (
	// Bonded replicates a structure in its entirety, copies adjacent —
	// the paper's preferred mode (survives recasts, better locality).
	Bonded Layout = iota
	// Interleaved replicates each primitive element, copies of one
	// element adjacent. Implemented for primitive-element structures
	// only; it fails by construction on recast buffers, which is the
	// paper's argument for bonded mode.
	Interleaved
	// Adaptive implements the scheme the paper's §6 proposes as future
	// work: use the interleaved layout when every expanded structure
	// supports it (single-typed heap buffers accessed only inside the
	// loop), and fall back to bonded otherwise.
	Adaptive
)

func (l Layout) String() string {
	switch l {
	case Interleaved:
		return "interleaved"
	case Adaptive:
		return "adaptive"
	}
	return "bonded"
}

// Options control the transformation.
type Options struct {
	Layout Layout

	// AliasFilter expands only data structures that may be referenced
	// by thread-private accesses (§3.4). When false, every global,
	// heap site and enclosing-function local is expanded.
	AliasFilter bool

	// ConstSpan elides pointer promotion when every object a pointer
	// may reach has the same statically known size; the redirection
	// then uses the constant (§3.4 constant/copy propagation).
	ConstSpan bool

	// SpanDSE suppresses span stores that provably do not change the
	// span (p = p + 1 and p = p, §3.4 dead store elimination).
	SpanDSE bool

	// HoistBases hoists loop-invariant redirected base addresses
	// (p + __tid*span/sizeof(elem)) to the loop body top or function
	// entry, the effect the paper gets from the compiler's ordinary
	// copy-propagation/CSE once the pass has run (§3.4).
	HoistBases bool

	// ConservativeSync emulates a coarse DOACROSS sync placement by
	// ordering the entire loop body instead of the minimal residual
	// range. The paper notes its own placement algorithm "still has
	// room for improvement" (256.bzip2 and 456.hmmer were dominated by
	// synchronization); this option is the ablation that reproduces
	// that behaviour.
	ConservativeSync bool

	// GuardNotes makes the expanded program self-describing for the
	// guarded-execution monitor: expanded heap allocations become
	// __expand_malloc(span, esz) calls (the builtin multiplies by the
	// thread count itself and announces the copy geometry through
	// Hooks.Expand), and each expanded local declaration is followed by
	// an __expand_note(base, span, esz) marker. Off by default because
	// the marker calls change the generated code and therefore the
	// deterministic instruction counters.
	GuardNotes bool

	// Commutative privatizes reduction-shaped classes
	// (ddg.Class.Commutative) that static checks prove are only ever
	// updated in the loop: the loop's updates go to per-thread copies
	// the pass allocates before it, and the copies merge into the
	// accumulator after it (see comm.go). Requires the classifier to
	// have run with ddg.Options.CommSites populated. A class that fails
	// the checks keeps its carried flow, which guarded execution
	// catches as before.
	Commutative bool
}

// Optimized returns the §3.4-optimized configuration (paper Fig. 9b).
func Optimized() Options {
	return Options{Layout: Bonded, AliasFilter: true, ConstSpan: true, SpanDSE: true, HoistBases: true}
}

// Unoptimized returns the configuration without the §3.4 optimizations
// (paper Fig. 9a): everything is expanded, every pointer that may
// reach an expanded structure is promoted, and every pointer
// assignment recomputes its span.
func Unoptimized() Options {
	return Options{Layout: Bonded}
}

// LoopAnalysis bundles the per-loop analyses: the profiled dependence
// graph and the Definition 5 classification.
type LoopAnalysis struct {
	ID    int
	Graph *ddg.Graph
	Class *ddg.Classification
}

// Input bundles the analyses the pass consumes. All parallel loops are
// transformed in one pass: expansion of a structure shared between
// loops must see every loop's classification at once.
type Input struct {
	Prog  *ast.Program
	Info  *sema.Info
	Loops []LoopAnalysis
	Alias *alias.Analysis
}

// Report describes what the pass did.
type Report struct {
	// LoopIDs lists the transformed loops.
	LoopIDs []int
	// Expanded lists the privatized abstract objects.
	Expanded []alias.Object
	// Structures counts privatized dynamic data structures the way the
	// paper's Table 5 does: allocation sites that are alternatives for
	// the same pointer (reached by one access, like hmmer's two mx
	// sites) count as one structure.
	Structures int
	// Promoted lists the pointer slots promoted to fat pointers.
	Promoted []string
	// PrivateSites is the number of thread-private access sites.
	PrivateSites int
	// SpanStores / SpanStoresElided count Table 3 statements inserted
	// and suppressed by optimization.
	SpanStores       int
	SpanStoresElided int
	// SyncPlaced lists the DOACROSS loops that received an ordered
	// section.
	SyncPlaced []int
	// LayoutUsed is the copy layout actually applied (relevant for
	// Adaptive).
	LayoutUsed Layout
	// CommClasses counts the privatized commutative classes;
	// CommNotes describes each one.
	CommClasses int
	CommNotes   []string
}

// Expand applies the transformation for the program's parallel loops,
// mutating in.Prog. The caller re-parses the printed program before
// execution.
func Expand(in Input, opts Options) (*Report, error) {
	if len(in.Loops) == 0 {
		return nil, fmt.Errorf("expand: no loops to transform")
	}
	p := &pass{in: in, opts: opts, report: &Report{}}
	for _, la := range in.Loops {
		li, ok := in.Info.Loops[la.ID]
		if !ok {
			return nil, fmt.Errorf("expand: no loop %d", la.ID)
		}
		loop, ok := li.Stmt.(*ast.For)
		if !ok || loop.Par == ast.Sequential {
			return nil, fmt.Errorf("expand: loop %d is not a parallel candidate", la.ID)
		}
		p.loops = append(p.loops, loopCtx{an: la, stmt: loop, fn: li.Func})
		p.report.LoopIDs = append(p.report.LoopIDs, la.ID)
	}
	if err := p.run(); err != nil {
		return nil, err
	}
	return p.report, nil
}

// loopCtx pairs a target loop's analyses with its AST.
type loopCtx struct {
	an   LoopAnalysis
	stmt *ast.For
	fn   *ast.FuncDecl
}

type pass struct {
	in     Input
	opts   Options
	loops  []loopCtx
	report *Report

	// objects to expand and the pointer slots to promote.
	expandSet map[alias.Object]bool
	promote   map[slot]bool
	constSpan map[slot]int64 // slots with statically known span

	// skipSites are private sites whose targets are all iteration-fresh
	// and therefore need no redirection.
	skipSites map[int]bool

	// bodyDecls is the set of symbols declared inside the loop body.
	bodyDecls map[*ast.Symbol]bool
	// symFunc maps each local/param symbol to its declaring function.
	symFunc map[*ast.Symbol]*ast.FuncDecl
	// tmpN numbers generated temporaries.
	tmpN int
	// ptrPlans are the pointer-based redirections to perform.
	ptrPlans []*ptrPlan
	// fieldRefCache indexes Member expressions by field.
	fieldRefCache map[*ctypes.Field][]ast.Expr
	// siteIdx maps base Ident nodes of accesses to their access site.
	siteIdx map[*ast.Ident]int
	// entries holds the registered reference rewrites, applied in one
	// sweep by applyReplacements.
	entries map[ast.Expr]*replEntry
	// bare marks promoted references passed/copied as whole fat values.
	bare map[ast.Expr]bool
	// unitType snapshots each expanded variable's pre-expansion type.
	unitType map[*ast.Symbol]*ctypes.Type
	// globalConv records converted globals: -1 for scalar/record, or
	// the row count copies are apart for arrays.
	globalConv map[*ast.Symbol]int64
	// interleavedDone tracks Index nodes already rewritten.
	interleavedDone map[*ast.Index]bool
	// indVarSet caches the induction variables of parallel loops.
	indVarSet map[*ast.Symbol]bool
	// clonePairs records (original, clone) expression pairs whose
	// rewrite entries must be mirrored before the final sweep.
	clonePairs [][2]ast.Expr
	// hoists holds the hoisted base computations (see hoist.go).
	hoists map[hoistKey]*hoistInfo
	// commPlans are the commutative accumulators to privatize, and
	// commSites their classes' sites, which need no ordered section.
	commPlans []commPlan
	commSites map[int]bool

	// fat types per original pointee type string.
	fatTypes map[string]*ctypes.Type
}

// slot identifies a promotable pointer location: a named variable, a
// struct field, or a function's return value.
type slot struct {
	sym   *ast.Symbol   // variable slot (nil otherwise)
	owner *ctypes.Type  // struct type for field slots
	field *ctypes.Field // field slot
	fn    *ast.FuncDecl // return-value slot
}

func (s slot) String() string {
	switch {
	case s.sym != nil:
		return s.sym.Name
	case s.fn != nil:
		return s.fn.Name + "()"
	default:
		return s.owner.Name + "." + s.field.Name
	}
}

// promotedSlots returns the promoted slots in a fixed order. Code that
// emits declarations from them must use it rather than range over the
// promote map, or the output would depend on map iteration order.
func (p *pass) promotedSlots() []slot {
	out := make([]slot, 0, len(p.promote))
	for s := range p.promote {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return slotLess(out[i], out[j]) })
	return out
}

// slotLess orders variables by declaration position, then struct fields
// by struct name and field index, then function returns by name.
func slotLess(a, b slot) bool {
	rank := func(s slot) int {
		switch {
		case s.sym != nil:
			return 0
		case s.field != nil:
			return 1
		}
		return 2
	}
	if ra, rb := rank(a), rank(b); ra != rb {
		return ra < rb
	}
	switch {
	case a.sym != nil:
		pa, pb := declPos(a.sym), declPos(b.sym)
		if pa.Line != pb.Line {
			return pa.Line < pb.Line
		}
		if pa.Col != pb.Col {
			return pa.Col < pb.Col
		}
		return a.sym.Name < b.sym.Name
	case a.field != nil:
		if a.owner.Name != b.owner.Name {
			return a.owner.Name < b.owner.Name
		}
		return a.field.Index < b.field.Index
	}
	return a.fn.Name < b.fn.Name
}

func declPos(sym *ast.Symbol) token.Pos {
	if sym.Decl == nil {
		return token.Pos{}
	}
	return sym.Decl.P
}

func (p *pass) run() error {
	p.collectBodyDecls()
	if err := p.computeExpansionSet(); err != nil {
		return err
	}
	// Count Table 5 structures before any rewriting invalidates the
	// type annotations countStructures relies on.
	p.report.Structures = p.countStructures()
	p.planComm()
	if err := p.computePromotion(); err != nil {
		return err
	}
	if err := p.promotePointers(); err != nil {
		return err
	}
	// Constant spans must be evaluated after promotion finalizes struct
	// sizes but before expansion multiplies allocation sizes by the
	// thread count.
	if err := p.resolveConstPlans(); err != nil {
		return err
	}
	if err := p.expandTypes(); err != nil {
		return err
	}
	if err := p.redirectAccesses(); err != nil {
		return err
	}
	p.insertHoists()
	p.applyReplacements()
	p.emitCommPlans()
	for _, lc := range p.loops {
		if lc.stmt.Par != ast.DOACROSS {
			continue
		}
		placed, err := p.placeSync(lc)
		if err != nil {
			return err
		}
		if placed {
			p.report.SyncPlaced = append(p.report.SyncPlaced, lc.an.ID)
		}
	}
	p.finishReport()
	return nil
}

func (p *pass) collectBodyDecls() {
	p.bodyDecls = map[*ast.Symbol]bool{}
	for _, lc := range p.loops {
		ast.Inspect(lc.stmt.Body, func(n ast.Node) bool {
			if d, ok := n.(*ast.VarDecl); ok && d.Sym != nil {
				p.bodyDecls[d.Sym] = true
			}
			return true
		})
	}
}

func (p *pass) finishReport() {
	for o := range p.expandSet {
		p.report.Expanded = append(p.report.Expanded, o)
	}
	sort.Slice(p.report.Expanded, func(i, j int) bool {
		return objLess(p.report.Expanded[i], p.report.Expanded[j])
	})
	for s := range p.promote {
		p.report.Promoted = append(p.report.Promoted, s.String())
	}
	sort.Strings(p.report.Promoted)
	for _, site := range p.privateSites() {
		_ = site
		p.report.PrivateSites++
	}
}

func objLess(a, b alias.Object) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Site != b.Site {
		return a.Site < b.Site
	}
	an, bn := "", ""
	if a.Sym != nil {
		an = a.Sym.Name
	}
	if b.Sym != nil {
		bn = b.Sym.Name
	}
	return an < bn
}

// privateSites returns the non-definition access sites that are
// thread-private in at least one target loop, excluding loop-control
// (induction variable) accesses. A site private in one loop and shared
// in another is treated as private; this is sound here only when its
// shared uses are reads of data the other loop does not expand, which
// holds for the benchmark programs (shared helpers only read
// loop-invariant data).
func (p *pass) privateSites() []int {
	seen := map[int]bool{}
	var out []int
	for _, lc := range p.loops {
		for site := range lc.an.Graph.Sites {
			if seen[site] || !lc.an.Class.Private(site) {
				continue
			}
			as := p.in.Info.Accesses[site]
			if as == nil || as.IsDef {
				continue
			}
			if p.isControlSite(as) {
				continue
			}
			seen[site] = true
			out = append(out, site)
		}
	}
	sort.Ints(out)
	return out
}

// sitePrivate reports whether a site is private in some target loop.
func (p *pass) sitePrivate(site int) bool {
	for _, lc := range p.loops {
		if _, in := lc.an.Graph.Sites[site]; in && lc.an.Class.Private(site) {
			return true
		}
	}
	return false
}

// siteInAnyLoop reports whether the site executed inside any target loop.
func (p *pass) siteInAnyLoop(site int) bool {
	for _, lc := range p.loops {
		if _, in := lc.an.Graph.Sites[site]; in {
			return true
		}
	}
	return false
}

// isControlSite reports whether the access reads or writes a parallel
// loop's induction variable, which the parallel runtime privatizes
// natively.
func (p *pass) isControlSite(as *sema.AccessSite) bool {
	if id, ok := as.Node.(*ast.Ident); ok {
		return id.Sym != nil && p.indVars()[id.Sym]
	}
	return false
}

// ---------------------------------------------------------------------
// Generated-AST helpers
// ---------------------------------------------------------------------

func ident(name string) *ast.Ident { return &ast.Ident{Name: name} }
func intLit(v int64) *ast.IntLit   { return &ast.IntLit{Value: v} }
func tidExpr() ast.Expr            { return ident("__tid") }
func nthExpr() ast.Expr            { return ident("__nthreads") }
func member(x ast.Expr, f string) *ast.Member {
	return &ast.Member{X: x, Name: f}
}
func index(x, i ast.Expr) *ast.Index { return &ast.Index{X: x, I: i} }

func mul(x, y ast.Expr) ast.Expr {
	if l, ok := x.(*ast.IntLit); ok {
		if l.Value == 1 {
			return y
		}
		if l.Value == 0 {
			return intLit(0)
		}
	}
	if l, ok := y.(*ast.IntLit); ok {
		if l.Value == 1 {
			return x
		}
		if l.Value == 0 {
			return intLit(0)
		}
	}
	return &ast.Binary{Op: tokMUL, X: x, Y: y}
}

func add(x, y ast.Expr) ast.Expr {
	if l, ok := y.(*ast.IntLit); ok && l.Value == 0 {
		return x
	}
	return &ast.Binary{Op: tokADD, X: x, Y: y}
}

func quo(x, y ast.Expr) ast.Expr {
	if l, ok := y.(*ast.IntLit); ok && l.Value == 1 {
		return x
	}
	return &ast.Binary{Op: tokQUO, X: x, Y: y}
}

func assign(lhs, rhs ast.Expr) *ast.ExprStmt {
	return &ast.ExprStmt{X: &ast.Assign{Op: tokASSIGN, LHS: lhs, RHS: rhs}}
}
