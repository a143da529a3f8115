package expand

import (
	"fmt"
	"strings"

	"gdsx/internal/ast"
	"gdsx/internal/ctypes"
	"gdsx/internal/token"
)

// replEntry describes the rewriting of one original expression node:
// an optional base transformation (copy indexing for expanded
// variables, pointer arithmetic for converted globals) and an optional
// ".pointer" selection for promoted slots. The base transformation is
// applied first, then the field selection, so a variable that is both
// expanded and promoted becomes p[idx].pointer.
type replEntry struct {
	mkBase     func(ast.Expr) ast.Expr
	addPointer bool
}

func (p *pass) entryFor(e ast.Expr) *replEntry {
	if p.entries == nil {
		p.entries = map[ast.Expr]*replEntry{}
	}
	en := p.entries[e]
	if en == nil {
		en = &replEntry{}
		p.entries[e] = en
	}
	return en
}

// setBase registers the base transformation of a node.
func (p *pass) setBase(e ast.Expr, f func(ast.Expr) ast.Expr) error {
	en := p.entryFor(e)
	if en.mkBase != nil {
		return fmt.Errorf("expand: conflicting rewrites for %q", ast.PrintExpr(e))
	}
	en.mkBase = f
	return nil
}

// setPointer registers the ".pointer" selection of a promoted slot
// reference.
func (p *pass) setPointer(e ast.Expr) { p.entryFor(e).addPointer = true }

// applyReplacements performs one bottom-up sweep per function (and
// global initializers), materializing all registered rewrites. Cloned
// expressions inside generated statements first inherit the entries of
// the originals they mirror.
func (p *pass) applyReplacements() {
	for _, pair := range p.clonePairs {
		p.mirrorEntries(pair[0], pair[1])
	}
	apply := func(e ast.Expr) ast.Expr {
		en, ok := p.entries[e]
		if !ok {
			return e
		}
		out := e
		if en.mkBase != nil {
			out = en.mkBase(out)
		}
		if en.addPointer {
			out = member(out, "pointer")
		}
		return out
	}
	ast.RewriteExprs(p.in.Prog, apply)
}

// mirrorEntries copies the rewrite entries of an original expression
// tree onto its structural clone (produced by ast.CloneExpr, so shapes
// match exactly).
func (p *pass) mirrorEntries(orig, clone ast.Expr) {
	if orig == nil || clone == nil {
		return
	}
	if en, ok := p.entries[orig]; ok {
		p.entries[clone] = en
	}
	switch o := orig.(type) {
	case *ast.Unary:
		p.mirrorEntries(o.X, clone.(*ast.Unary).X)
	case *ast.Binary:
		c := clone.(*ast.Binary)
		p.mirrorEntries(o.X, c.X)
		p.mirrorEntries(o.Y, c.Y)
	case *ast.Logical:
		c := clone.(*ast.Logical)
		p.mirrorEntries(o.X, c.X)
		p.mirrorEntries(o.Y, c.Y)
	case *ast.Cond:
		c := clone.(*ast.Cond)
		p.mirrorEntries(o.C, c.C)
		p.mirrorEntries(o.Then, c.Then)
		p.mirrorEntries(o.Else, c.Else)
	case *ast.Assign:
		c := clone.(*ast.Assign)
		p.mirrorEntries(o.LHS, c.LHS)
		p.mirrorEntries(o.RHS, c.RHS)
	case *ast.IncDec:
		p.mirrorEntries(o.X, clone.(*ast.IncDec).X)
	case *ast.Index:
		c := clone.(*ast.Index)
		p.mirrorEntries(o.X, c.X)
		p.mirrorEntries(o.I, c.I)
	case *ast.Member:
		p.mirrorEntries(o.X, clone.(*ast.Member).X)
	case *ast.Call:
		c := clone.(*ast.Call)
		for i := range o.Args {
			p.mirrorEntries(o.Args[i], c.Args[i])
		}
	case *ast.Cast:
		p.mirrorEntries(o.X, clone.(*ast.Cast).X)
	case *ast.SizeofExpr:
		p.mirrorEntries(o.X, clone.(*ast.SizeofExpr).X)
	}
}

// ---------------------------------------------------------------------
// Fat pointer types (paper Figures 5 and 6)
// ---------------------------------------------------------------------

// fatType returns (creating on first use) the promoted type of a
// pointer to pointee: struct { pointee *pointer; long span; }.
func (p *pass) fatType(pointee *ctypes.Type) *ctypes.Type {
	if p.fatTypes == nil {
		p.fatTypes = map[string]*ctypes.Type{}
	}
	key := sanitizeTypeName(pointee.String())
	if t, ok := p.fatTypes[key]; ok {
		return t
	}
	name := "__fat_" + key
	t := ctypes.NewStruct(name, []*ctypes.Field{
		{Name: "pointer", Type: ctypes.PointerTo(pointee)},
		{Name: "span", Type: ctypes.LongType},
	})
	p.fatTypes[key] = t
	def := &ast.StructDef{Type: t}
	p.insertStructDef(def, pointee)
	return t
}

func sanitizeTypeName(s string) string {
	s = strings.ReplaceAll(s, "struct ", "")
	s = strings.ReplaceAll(s, "*", "_p")
	s = strings.ReplaceAll(s, " ", "_")
	s = strings.ReplaceAll(s, "[", "_a")
	s = strings.ReplaceAll(s, "]", "")
	return s
}

// insertStructDef places a generated struct definition after the
// definition of the pointee's struct (if any), otherwise at the front
// of the program.
func (p *pass) insertStructDef(def *ast.StructDef, pointee *ctypes.Type) {
	base := pointee
	for base.Kind == ctypes.Ptr || base.Kind == ctypes.Array {
		base = base.Elem
	}
	at := 0
	if base.Kind == ctypes.Struct {
		for i, d := range p.in.Prog.Decls {
			if sd, ok := d.(*ast.StructDef); ok && sd.Type == base {
				at = i + 1
				break
			}
		}
	}
	decls := p.in.Prog.Decls
	decls = append(decls, nil)
	copy(decls[at+1:], decls[at:])
	decls[at] = def
	p.in.Prog.Decls = decls
}

// ---------------------------------------------------------------------
// promotePointers: the apply phase
// ---------------------------------------------------------------------

func (p *pass) promotePointers() error {
	p.normalizeDecls()
	p.buildSiteIdx()
	if err := p.mutatePromotedDecls(); err != nil {
		return err
	}
	for _, fn := range p.in.Prog.Funcs() {
		if err := p.rewriteFuncForPromotion(fn); err != nil {
			return err
		}
	}
	return p.registerRefRewrites()
}

// normalizeDecls splits multi-variable declaration statements into
// singletons so initializer rewrites can insert statements between
// them.
func (p *pass) normalizeDecls() {
	ast.RewriteStmts(p.in.Prog, func(s ast.Stmt) []ast.Stmt {
		ds, ok := s.(*ast.DeclStmt)
		if !ok || len(ds.Decls) <= 1 {
			return []ast.Stmt{s}
		}
		var out []ast.Stmt
		for _, d := range ds.Decls {
			nd := &ast.DeclStmt{Decls: []*ast.VarDecl{d}}
			nd.SetPos(d.Pos())
			out = append(out, nd)
		}
		return out
	})
}

// buildSiteIdx maps the base Ident of every variable-rooted access to
// its access site, so reference rewriting knows which copy index each
// reference uses.
func (p *pass) buildSiteIdx() {
	p.siteIdx = map[*ast.Ident]int{}
	for id, as := range p.in.Info.Accesses {
		node, ok := as.Node.(ast.Expr)
		if !ok || as.IsDef {
			continue
		}
		base, err := p.baseOf(node)
		if err != nil || base.varSym == nil {
			continue
		}
		if ident := rootIdent(node); ident != nil {
			// Loads and stores of the same node share the class (they
			// are always related by a loop-independent dependence), so
			// either site works; keep the smallest for determinism.
			if old, ok := p.siteIdx[ident]; !ok || id < old {
				p.siteIdx[ident] = id
			}
		}
	}
}

// rootIdent descends an access node to its base Ident (variable-rooted
// accesses only).
func rootIdent(e ast.Expr) *ast.Ident {
	switch x := e.(type) {
	case *ast.Ident:
		return x
	case *ast.Index:
		if bt := x.X.ExprType(); bt != nil && bt.Kind == ctypes.Array {
			return rootIdent(x.X)
		}
	case *ast.Member:
		if !x.Arrow {
			return rootIdent(x.X)
		}
	}
	return nil
}

// idxExprFor returns the copy-index expression for a reference whose
// enclosing access is site (0 for sites outside the loop or shared
// sites, __tid for redirected private sites).
func (p *pass) idxExprFor(site int) ast.Expr {
	if site == 0 {
		return intLit(0)
	}
	if !p.siteInAnyLoop(site) {
		return intLit(0)
	}
	if p.skipSites[site] || !p.sitePrivate(site) {
		return intLit(0)
	}
	return tidExpr()
}

// mutatePromotedDecls swaps the declared types of promoted slots to
// their fat forms and relayouts affected structs.
func (p *pass) mutatePromotedDecls() error {
	for _, s := range p.promotedSlots() {
		switch {
		case s.sym != nil:
			if s.sym.Type.Kind != ctypes.Ptr {
				return fmt.Errorf("expand: promoted slot %s is not a plain pointer", s)
			}
			ft := p.fatType(s.sym.Type.Elem)
			s.sym.Type = ft
			if s.sym.Decl != nil {
				s.sym.Decl.Type = ft
			}
		case s.field != nil:
			if s.field.Type.Kind != ctypes.Ptr {
				return fmt.Errorf("expand: promoted field %s is not a plain pointer", s)
			}
			if s.field.Type.Elem == s.owner {
				// struct T { T *next } would need mutually recursive
				// struct definitions, which definition-before-use
				// MiniC cannot print.
				return fmt.Errorf("expand: cannot promote self-referential field %s", s)
			}
			s.field.Type = p.fatType(s.field.Type.Elem)
		case s.fn != nil:
			if s.fn.Ret.Kind != ctypes.Ptr {
				return fmt.Errorf("expand: promoted return of %s is not a plain pointer", s.fn.Name)
			}
			s.fn.Ret = p.fatType(s.fn.Ret.Elem)
		}
	}
	// Struct sizes may have grown; relayout until stable (nested
	// structs converge in as many rounds as their nesting depth).
	for round := 0; round < 16; round++ {
		changed := false
		for _, d := range p.in.Prog.Decls {
			if sd, ok := d.(*ast.StructDef); ok {
				before := sd.Type.Size()
				ctypes.Relayout(sd.Type)
				if sd.Type.Size() != before {
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return nil
}

// promotedSlotOf returns the promoted slot a reference expression
// denotes, if any.
func (p *pass) promotedSlotOf(e ast.Expr) (slot, bool) {
	switch x := e.(type) {
	case *ast.Ident:
		if x.Sym != nil {
			s := slot{sym: x.Sym}
			if p.promote[s] {
				return s, true
			}
		}
	case *ast.Member:
		if x.Field != nil {
			for s := range p.promote {
				if s.field == x.Field {
					return s, true
				}
			}
		}
	}
	return slot{}, false
}

func (p *pass) markBare(e ast.Expr) {
	if p.bare == nil {
		p.bare = map[ast.Expr]bool{}
	}
	p.bare[e] = true
}

// registerRefRewrites adds the ".pointer" selection to every remaining
// reference of a promoted slot.
func (p *pass) registerRefRewrites() error {
	var err error
	ast.Inspect(p.in.Prog, func(n ast.Node) bool {
		if err != nil {
			return false
		}
		// Reject address-of on promoted slots early.
		if u, ok := n.(*ast.Unary); ok && u.Op == token.AND {
			if _, prom := p.promotedSlotOf(u.X); prom {
				err = fmt.Errorf("expand: %s: address of promoted pointer %q is not supported",
					u.Pos(), ast.PrintExpr(u.X))
				return false
			}
		}
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if p.bare[e] {
			return true
		}
		if _, prom := p.promotedSlotOf(e); prom {
			p.setPointer(e)
		}
		return true
	})
	return err
}
