package expand

import (
	"fmt"

	"gdsx/internal/alias"
	"gdsx/internal/ast"
	"gdsx/internal/ctypes"
	"gdsx/internal/ddg"
	"gdsx/internal/token"
)

func objVar(sym *ast.Symbol) alias.Object { return alias.Object{Kind: alias.ObjVar, Sym: sym} }

// expandTypes applies the paper's Table 1: expanded locals gain an
// outer [__nthreads] dimension, expanded globals are converted to heap
// objects allocated at program start, and expanded heap allocations
// multiply their size by the thread count.
func (p *pass) expandTypes() error {
	p.unitType = map[*ast.Symbol]*ctypes.Type{}
	p.globalConv = map[*ast.Symbol]int64{}

	var mainInit []ast.Stmt
	noteDecls := map[*ast.VarDecl]int64{} // expanded local decl -> per-copy span
	for o := range p.expandSet {
		switch o.Kind {
		case alias.ObjVar:
			sym := o.Sym
			p.unitType[sym] = sym.Type
			d := sym.Decl
			if d == nil {
				return fmt.Errorf("expand: no declaration for %s", sym.Name)
			}
			if sym.Kind == ast.SymGlobal {
				stmts, err := p.convertGlobal(sym, d)
				if err != nil {
					return err
				}
				mainInit = append(mainInit, stmts...)
				continue
			}
			if d.VLALen != nil {
				return fmt.Errorf("expand: cannot expand dynamically sized local %s", sym.Name)
			}
			// Local scalar/record/array: T a -> T a[N].
			span := d.Type.Size()
			d.Type = ctypes.ArrayOf(d.Type, -1)
			d.VLALen = nthExpr()
			sym.Type = d.Type
			if p.opts.GuardNotes {
				noteDecls[d] = span
			}

		case alias.ObjHeap:
			call := p.in.Info.Allocs[o.Site]
			switch call.Fun.Sym.Builtin {
			case ast.BMalloc:
				if p.opts.GuardNotes {
					call.Fun = ident("__expand_malloc")
					call.Args = append(call.Args, intLit(0))
				} else {
					call.Args[0] = mul(call.Args[0], nthExpr())
				}
			case ast.BCalloc:
				if p.opts.GuardNotes {
					call.Fun = ident("__expand_malloc")
					call.Args = []ast.Expr{mul(call.Args[0], call.Args[1]), intLit(0)}
				} else {
					call.Args[0] = mul(call.Args[0], nthExpr())
				}
			case ast.BRealloc:
				return fmt.Errorf("expand: realloc site %d cannot be expanded", o.Site)
			}
		}
	}
	if len(noteDecls) > 0 {
		if err := p.insertExpandNotes(noteDecls); err != nil {
			return err
		}
	}
	if len(mainInit) > 0 {
		// Deterministic order: sort by the printed form.
		sortStmts(mainInit)
		mainFn := p.in.Prog.Func("main")
		mainFn.Body.Stmts = append(mainInit, mainFn.Body.Stmts...)
	}
	return nil
}

// insertExpandNotes places an __expand_note(a, span, 0) marker directly
// after each expanded local declaration so the guard monitor learns the
// copy geometry of stack-expanded structures every time the frame is
// (re)entered.
func (p *pass) insertExpandNotes(noteDecls map[*ast.VarDecl]int64) error {
	remaining := len(noteDecls)
	ast.Inspect(p.in.Prog, func(n ast.Node) bool {
		blk, ok := n.(*ast.Block)
		if !ok || remaining == 0 {
			return remaining > 0
		}
		for i := 0; i < len(blk.Stmts); i++ {
			ds, ok := blk.Stmts[i].(*ast.DeclStmt)
			if !ok {
				continue
			}
			var notes []ast.Stmt
			for _, d := range ds.Decls {
				span, want := noteDecls[d]
				if !want {
					continue
				}
				notes = append(notes, &ast.ExprStmt{X: &ast.Call{
					Fun:  ident("__expand_note"),
					Args: []ast.Expr{ident(d.Sym.Name), intLit(span), intLit(0)},
				}})
				remaining--
			}
			if len(notes) > 0 {
				blk.Stmts = append(blk.Stmts[:i+1], append(notes, blk.Stmts[i+1:]...)...)
				i += len(notes)
			}
		}
		return true
	})
	if remaining > 0 {
		return fmt.Errorf("expand: could not place %d guard note(s) (expanded local not declared in a block)", remaining)
	}
	return nil
}

func sortStmts(ss []ast.Stmt) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ast.PrintStmt(ss[j-1]) > ast.PrintStmt(ss[j]); j-- {
			ss[j-1], ss[j] = ss[j], ss[j-1]
		}
	}
}

// convertGlobal rewrites `T g` into `R *g` plus an allocation of
// N copies at the start of main (Table 1's global rules; globals
// cannot be statically sized by a runtime thread count, which is the
// paper's motivation for heap conversion).
func (p *pass) convertGlobal(sym *ast.Symbol, d *ast.VarDecl) ([]ast.Stmt, error) {
	orig := sym.Type
	unitSize := orig.Size() // size of one copy, after field promotion
	elem := orig
	if orig.Kind == ctypes.Array {
		elem = orig.Elem
		p.globalConv[sym] = orig.Len // copies are Len rows apart
	} else {
		p.globalConv[sym] = -1 // scalar/record: copies indexed directly
	}
	newType := ctypes.PointerTo(elem)
	d.Type = newType
	sym.Type = newType
	init := d.Init
	d.Init = nil

	allocCall := &ast.Call{
		Fun:  ident("malloc"),
		Args: []ast.Expr{mul(intLit(unitSize), nthExpr())},
	}
	if p.opts.GuardNotes {
		allocCall = &ast.Call{
			Fun:  ident("__expand_malloc"),
			Args: []ast.Expr{intLit(unitSize), intLit(0)},
		}
	}
	alloc := assign(ident(sym.Name), &ast.Cast{To: newType, X: allocCall})
	out := []ast.Stmt{alloc}
	if init != nil {
		out = append(out, assign(index(ident(sym.Name), intLit(0)), init))
	}
	return out, nil
}

// redirectAccesses applies the paper's Table 2: every reference to an
// expanded variable is directed to a copy (its thread's copy for
// private accesses, copy 0 otherwise), and every redirected
// pointer-based access adds tid*span/sizeof(elem) to its pointer.
func (p *pass) redirectAccesses() error {
	layout := p.opts.Layout
	if layout == Adaptive {
		// The paper's §6 adaptive scheme: interleave when possible,
		// bond otherwise.
		if err := p.checkInterleaved(false); err == nil {
			layout = Interleaved
		} else {
			layout = Bonded
		}
	}
	p.report.LayoutUsed = layout
	if layout == Interleaved {
		return p.redirectInterleaved()
	}
	if err := p.redirectVarRefs(); err != nil {
		return err
	}
	for _, plan := range p.ptrPlans {
		if err := p.applyPtrPlan(plan); err != nil {
			return err
		}
	}
	return nil
}

// redirectVarRefs registers the copy-index rewriting of every original
// reference to an expanded variable.
func (p *pass) redirectVarRefs() error {
	var err error
	ast.Inspect(p.in.Prog, func(n ast.Node) bool {
		if err != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || id.Sym == nil || !p.expandedVar(id.Sym) {
			return true
		}
		idx := p.idxExprFor(p.siteIdx[id])
		sym := id.Sym
		if rows, isGlobal := p.globalConv[sym]; isGlobal {
			if rows < 0 {
				// Converted scalar/record global: g -> g[idx].
				err = p.setBase(id, func(e ast.Expr) ast.Expr {
					return index(e, cloneGenerated(idx))
				})
				return true
			}
			// Converted array global: g -> g + idx*rows, hoisted to the
			// loop body / function entry for private accesses when the
			// optimization is on (globals are never reassigned: array
			// variables are not assignable).
			if _, isTid := idx.(*ast.Ident); isTid && p.opts.HoistBases {
				if as := p.in.Info.Accesses[p.siteIdx[id]]; as != nil {
					if fn, body, ok := p.hoistSite(as, nil); ok {
						hi := p.hoistFor(
							hoistKey{fn: fn, body: body, sym: sym},
							sym.Type, // already R* after conversion
							func() ast.Expr {
								return add(ident(sym.Name), mul(tidExpr(), intLit(rows)))
							})
						err = p.setBase(id, func(e ast.Expr) ast.Expr {
							return ident(hi.name)
						})
						return true
					}
				}
			}
			err = p.setBase(id, func(e ast.Expr) ast.Expr {
				return add(e, mul(cloneGenerated(idx), intLit(rows)))
			})
			return true
		}
		// Expanded local: a -> a[idx].
		err = p.setBase(id, func(e ast.Expr) ast.Expr {
			return index(e, cloneGenerated(idx))
		})
		return true
	})
	return err
}

// applyPtrPlan wraps the pointer operand of one redirected private
// access: P becomes P + __tid * (span / sizeof(elem)). With HoistBases,
// bare-root operands instead read a base temporary computed once per
// loop body or function entry.
func (p *pass) applyPtrPlan(plan *ptrPlan) error {
	elems, err := p.planElems(plan)
	if err != nil {
		return err
	}
	child := func() ast.Expr {
		switch node := plan.node.(type) {
		case *ast.Unary:
			return node.X
		case *ast.Index:
			return node.X
		case *ast.Member:
			return node.X
		}
		return nil
	}()
	if child == nil {
		return fmt.Errorf("expand: unexpected redirected node %T", plan.node)
	}
	setChild := func(e ast.Expr) {
		switch node := plan.node.(type) {
		case *ast.Unary:
			node.X = e
		case *ast.Index:
			node.X = e
		case *ast.Member:
			node.X = e
		}
	}

	if p.opts.HoistBases {
		if root := hoistRootSym(child); root != nil && !p.expandedVar(root) {
			if as := p.in.Info.Accesses[plan.site]; as != nil {
				if fn, body, ok := p.hoistSite(as, root); ok {
					c := child
					hi := p.hoistFor(
						hoistKey{fn: fn, body: body, sym: root, elem: plan.elem},
						ctypes.PointerTo(plan.elemType),
						func() ast.Expr {
							return add(p.cloneWithEntries(c), mul(tidExpr(), elems))
						})
					setChild(ident(hi.name))
					return nil
				}
			}
		}
	}
	setChild(add(child, mul(tidExpr(), elems)))
	return nil
}

// planElems builds the element-count expression span/sizeof(elem) for
// one plan.
func (p *pass) planElems(plan *ptrPlan) (ast.Expr, error) {
	as := p.in.Info.Accesses[plan.site]
	if plan.hasConst {
		// Resolved by resolveConstPlans before allocation sizes were
		// multiplied by the thread count.
		return intLit(plan.constVal / plan.elem), nil
	}
	spanRef := p.spanRefOfLHS(plan.rootExpr, plan.root)
	if spanRef == nil {
		return nil, fmt.Errorf("expand: %s: cannot build span reference for %q", as.Pos, as.Text)
	}
	return quo(spanRef, intLit(plan.elem)), nil
}

// ---------------------------------------------------------------------
// Interleaved layout (paper Fig. 2b) — ablation support
// ---------------------------------------------------------------------

// redirectInterleaved implements the interleaved copy layout for the
// restricted case the ablation study needs: heap buffers of primitive
// elements whose every access is an Index inside the target loop.
// Element i of copy t lives at base + (i*N + t)*sizeof(elem). The
// paper prefers bonded mode precisely because this layout cannot
// survive recast buffers or interior pointers; those cases are
// rejected here, demonstrating the limitation.
func (p *pass) redirectInterleaved() error {
	return p.checkInterleaved(true)
}

// checkInterleaved validates that the expansion set supports the
// interleaved layout and, when apply is set, performs the rewriting.
func (p *pass) checkInterleaved(apply bool) error {
	// Validate the expansion set: heap objects only.
	elemOf := map[alias.Object]int64{}
	for o := range p.expandSet {
		if o.Kind != alias.ObjHeap {
			return fmt.Errorf("expand: interleaved layout supports heap structures only (got %s)", o)
		}
		call := p.in.Info.Allocs[o.Site]
		if call.Fun.Sym == nil {
			// Already rewritten to __expand_malloc by expandTypes under
			// GuardNotes; expandTypes rejects every allocator but
			// malloc/calloc before rewriting.
		} else {
			switch call.Fun.Sym.Builtin {
			case ast.BMalloc, ast.BCalloc:
			default:
				return fmt.Errorf("expand: interleaved layout: unsupported allocator at site %d", o.Site)
			}
		}
		elemOf[o] = 0
	}
	// Find every access touching an interleaved object.
	for id, as := range p.in.Info.Accesses {
		if as.IsDef {
			continue
		}
		node, ok := as.Node.(ast.Expr)
		if !ok {
			continue
		}
		base, err := p.baseOf(node)
		if err != nil || base.ptr == nil {
			continue
		}
		touches := false
		for _, o := range p.in.Alias.PointsTo(base.ptr) {
			if _, yes := elemOf[o]; yes {
				touches = true
				elem, _, err := pointeeSize(base.ptr)
				if err != nil {
					return err
				}
				if elemOf[o] != 0 && elemOf[o] != elem {
					return fmt.Errorf("expand: %s: interleaved layout cannot expand %s: "+
						"buffer is recast between element sizes %d and %d (the bzip2 zptr case; use bonded mode)",
						as.Pos, o, elemOf[o], elem)
				}
				elemOf[o] = elem
			}
		}
		if !touches {
			continue
		}
		if !p.siteInAnyLoop(id) {
			return fmt.Errorf("expand: %s: interleaved layout requires all accesses inside the loop (%q is outside)",
				as.Pos, as.Text)
		}
		idxNode, ok := node.(*ast.Index)
		if !ok {
			return fmt.Errorf("expand: %s: interleaved layout supports subscript accesses only (%q)",
				as.Pos, as.Text)
		}
		if !apply {
			continue
		}
		var idx ast.Expr = intLit(0)
		if p.sitePrivate(id) && !p.skipSites[id] {
			idx = tidExpr()
		}
		// a[i] -> a[i*N + idx]; registering on the index expression via
		// direct mutation (each Index node is visited at most once per
		// access pair because load and store share the node).
		if !p.interleavedDone[idxNode] {
			if p.interleavedDone == nil {
				p.interleavedDone = map[*ast.Index]bool{}
			}
			idxNode.I = add(mul(idxNode.I, nthExpr()), idx)
			p.interleavedDone[idxNode] = true
		}
	}
	if !apply {
		return nil
	}
	// Multiply the allocation sizes (with guard notes, the
	// __expand_malloc builtin performs the multiplication itself and
	// carries the element size so the monitor can invert the
	// interleaved address mapping).
	for o := range p.expandSet {
		call := p.in.Info.Allocs[o.Site]
		if p.opts.GuardNotes {
			// expandTypes already rewrote the call to
			// __expand_malloc(span, 0); record the element size.
			call.Args[1] = intLit(elemOf[o])
			continue
		}
		call.Args[0] = mul(call.Args[0], nthExpr())
	}
	return nil
}

// placeSync inserts one DOACROSS loop's ordered section: the smallest
// contiguous range of top-level body statements covering every shared
// access involved in a residual loop-carried dependence, and every
// other access of its access class, is bracketed with __sync_wait /
// __sync_post (§4.3).
func (p *pass) placeSync(lc loopCtx) (bool, error) {
	g, cls := lc.an.Graph, lc.an.Class
	orderable := func(site int) bool {
		as := p.in.Info.Accesses[site]
		// Private sites never need ordering: redirected ones touch
		// per-thread copies, and skipped ones touch iteration-fresh
		// storage. Nor do privatized commutative updates.
		return as != nil && !as.IsDef && !p.isControlSite(as) &&
			!cls.Private(site) && !p.commSites[site]
	}
	residual := map[int]bool{}
	var classes []*ddg.Class
	for site := range g.Sites {
		if orderable(site) && (g.HasCarried(site, ddg.Flow) ||
			g.HasCarried(site, ddg.Anti) ||
			g.HasCarried(site, ddg.Output)) {
			residual[site] = true
			if c := cls.ClassOf(site); c != nil {
				classes = append(classes, c)
			}
		}
	}
	if len(residual) == 0 {
		return false, nil
	}
	// The profiler keeps only the latest reader of each byte, so a read
	// of a value that a carried dependence orders can show only a
	// loop-independent flow edge from the iteration's own write. That
	// edge puts it in the write's access class (Definition 4), and it
	// must read the value before the next iteration's write: order it
	// too.
	for _, c := range classes {
		for _, site := range c.Sites {
			if orderable(site) {
				residual[site] = true
			}
		}
	}

	body, ok := lc.stmt.Body.(*ast.Block)
	if !ok {
		body = &ast.Block{Stmts: []ast.Stmt{lc.stmt.Body}}
		lc.stmt.Body = body
	}
	if p.opts.ConservativeSync {
		body.Stmts = append([]ast.Stmt{&ast.SyncWait{}}, append(body.Stmts, &ast.SyncPost{})...)
		return true, nil
	}
	lo, hi := -1, -1
	covered := map[int]bool{}
	for i, s := range body.Stmts {
		found := false
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				for _, site := range accessIDsOf(e) {
					if residual[site] {
						found = true
						covered[site] = true
					}
				}
			}
			return true
		})
		if found {
			if lo < 0 {
				lo = i
			}
			hi = i
		}
	}
	for site := range residual {
		if !covered[site] {
			// A residual access outside the lexical body (inside a
			// callee): order the entire body conservatively.
			lo, hi = 0, len(body.Stmts)-1
			break
		}
	}
	if lo < 0 {
		lo, hi = 0, len(body.Stmts)-1
	}
	var out []ast.Stmt
	out = append(out, body.Stmts[:lo]...)
	out = append(out, &ast.SyncWait{})
	out = append(out, body.Stmts[lo:hi+1]...)
	out = append(out, &ast.SyncPost{})
	out = append(out, body.Stmts[hi+1:]...)
	body.Stmts = out
	return true, nil
}

// accessIDsOf lists the access-site IDs attached to one expression node.
func accessIDsOf(e ast.Expr) []int {
	var acc ast.Access
	switch x := e.(type) {
	case *ast.Ident:
		acc = x.Acc
	case *ast.Index:
		acc = x.Acc
	case *ast.Member:
		acc = x.Acc
	case *ast.Unary:
		acc = x.Acc
	default:
		return nil
	}
	var out []int
	if acc.Load > 0 {
		out = append(out, acc.Load)
	}
	if acc.Store > 0 {
		out = append(out, acc.Store)
	}
	return out
}

var _ = token.ASSIGN // retain import for generated helpers
