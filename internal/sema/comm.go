package sema

// Commutative-update detection: the checker tags the access sites of
// reduction-shaped updates so the classifier (ddg.Options.CommSites)
// can promote whole access classes to privatizable reductions.
//
// Two shapes are recognized:
//
//	loc += e;   loc -= e;   loc++;   loc--;        (CommAdd)
//	if (e < loc) loc = e;                          (CommMin)
//	if (e > loc) loc = e;                          (CommMax)
//
// (and the mirrored comparisons). Only integer locations and values
// qualify: floating-point accumulation is not associative in finite
// precision, so privatizing it would change the bit-exact sequential
// result. The tag is per-site evidence only — whether a whole class is
// safely privatizable (same operator everywhere, no carried dependence
// crossing the class boundary) is the classifier's decision.

import (
	"gdsx/internal/ast"
	"gdsx/internal/ctypes"
	"gdsx/internal/ddg"
	"gdsx/internal/token"
)

// markComm tags the load/store sites of a location expression as a
// commutative update under op.
func (c *checker) markComm(e ast.Expr, op ddg.CommOp) {
	var acc *ast.Access
	switch n := e.(type) {
	case *ast.Ident:
		acc = &n.Acc
	case *ast.Index:
		acc = &n.Acc
	case *ast.Member:
		acc = &n.Acc
	case *ast.Unary:
		acc = &n.Acc
	default:
		return
	}
	if s := c.info.Accesses[acc.Load]; s != nil {
		s.Comm = op
	}
	if s := c.info.Accesses[acc.Store]; s != nil {
		s.Comm = op
	}
}

// markCommAssign tags an integer += / -= of an integer value after the
// assignment has been checked (so the LHS sites exist). A floating
// value makes the update add in floating point and truncate back on
// every step, so the result depends on how the updates are grouped.
func (c *checker) markCommAssign(x *ast.Assign) {
	if x.Op != token.ADDASSIGN && x.Op != token.SUBASSIGN {
		return
	}
	lt, rt := x.LHS.ExprType(), x.RHS.ExprType()
	if lt == nil || !lt.IsInteger() || rt == nil || !rt.IsInteger() {
		return
	}
	c.markComm(x.LHS, ddg.CommAdd)
}

// markCommMinMax recognizes the guarded min/max update
//
//	if (e REL loc) loc = e;
//
// where REL is one of < <= > >=, the then-branch is the single plain
// assignment shown, and e/loc match the comparison operands
// structurally (by printed form). The location's read in the condition
// and its write in the branch are tagged CommMin (the smaller value is
// kept) or CommMax. Two more conditions make the update order-free.
// First, e has the location's type, or the condition compares in the
// location's type: then the comparison orders values as a merge of two
// copies does, and a stored e compares as the e that was compared. So
// a widening store such as int into long qualifies, while a narrowing
// store, or a comparison made in a type other than the location's,
// does not. Second, neither operand has side effects, so the stored e
// is the compared e.
func (c *checker) markCommMinMax(x *ast.If) {
	if x.Else != nil {
		return
	}
	cond, ok := x.Cond.(*ast.Binary)
	if !ok {
		return
	}
	switch cond.Op {
	case token.LSS, token.LEQ, token.GTR, token.GEQ:
	default:
		return
	}
	asg := singleAssign(x.Then)
	if asg == nil || asg.Op != token.ASSIGN {
		return
	}
	lt, vt := asg.LHS.ExprType(), asg.RHS.ExprType()
	xt, yt := cond.X.ExprType(), cond.Y.ExprType()
	if lt == nil || !lt.IsInteger() || vt == nil || !vt.IsInteger() || xt == nil || yt == nil ||
		!(vt.Equal(lt) || ctypes.Common(xt, yt).Equal(lt)) ||
		!sideEffectFree(asg.LHS) || !sideEffectFree(asg.RHS) {
		return
	}
	locText := ast.PrintExpr(asg.LHS)
	valText := ast.PrintExpr(asg.RHS)
	xText, yText := ast.PrintExpr(cond.X), ast.PrintExpr(cond.Y)

	// Normalize to "value REL location".
	op := cond.Op
	switch {
	case xText == valText && yText == locText:
		// value REL loc: as is.
	case xText == locText && yText == valText:
		// loc REL value: mirror.
		switch op {
		case token.LSS:
			op = token.GTR
		case token.LEQ:
			op = token.GEQ
		case token.GTR:
			op = token.LSS
		case token.GEQ:
			op = token.LEQ
		}
	default:
		return
	}
	comm := ddg.CommMax
	if op == token.LSS || op == token.LEQ {
		// The store keeps the smaller value: a running minimum.
		comm = ddg.CommMin
	}
	c.markComm(asg.LHS, comm)
	// Tag the location's loads in the condition too (same printed
	// form), so the whole class carries the operator.
	tagLoads := func(e ast.Expr) {
		if ast.PrintExpr(e) == locText {
			c.markComm(e, comm)
		}
	}
	tagLoads(cond.X)
	tagLoads(cond.Y)
}

// sideEffectFree reports whether evaluating e twice yields the same
// value with no effect: it contains no call, assignment or increment.
func sideEffectFree(e ast.Expr) bool {
	free := true
	ast.Inspect(e, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.Call, *ast.Assign, *ast.IncDec:
			free = false
		}
		return free
	})
	return free
}

// singleAssign unwraps a then-branch that consists of exactly one
// expression-statement assignment (with or without braces).
func singleAssign(s ast.Stmt) *ast.Assign {
	if b, ok := s.(*ast.Block); ok {
		if len(b.Stmts) != 1 {
			return nil
		}
		s = b.Stmts[0]
	}
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return nil
	}
	asg, ok := es.X.(*ast.Assign)
	if !ok {
		return nil
	}
	return asg
}

// CommSites extracts the commutative-site map for the classifier.
func CommSites(info *Info) map[int]ddg.CommOp {
	out := map[int]ddg.CommOp{}
	for id, s := range info.Accesses {
		if s.Comm != ddg.CommNone {
			out[id] = s.Comm
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
