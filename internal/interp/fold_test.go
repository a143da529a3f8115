package interp

// Table-driven tests for the compiler's constant folder, focused on
// the short-circuit forms (&& / || / ?:). Folding must be tick-exact:
// evaluation never visits — or ticks — the branch a decided condition
// skips, so the folded tick count covers only the taken path. A decided left operand folds the whole expression even when
// the other side is not constant.

import (
	"testing"

	"gdsx/internal/ast"
	"gdsx/internal/parser"
	"gdsx/internal/sema"
)

// foldExpr parses `int main(...) { return <expr>; }` and returns the
// checked return expression, giving the folder the same typed AST the
// compiler sees. The x parameter supplies a non-constant operand.
func foldExpr(t *testing.T, expr string) ast.Expr {
	t.Helper()
	src := "int main(int x) { return " + expr + "; }"
	prog, err := parser.Parse("fold_test.c", src)
	if err != nil {
		t.Fatalf("parse %q: %v", expr, err)
	}
	if _, err := sema.Check(prog); err != nil {
		t.Fatalf("check %q: %v", expr, err)
	}
	for _, d := range prog.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Name != "main" {
			continue
		}
		ret, ok := fn.Body.Stmts[len(fn.Body.Stmts)-1].(*ast.Return)
		if !ok {
			t.Fatalf("%q: last statement is not a return", expr)
		}
		return ret.X
	}
	t.Fatalf("%q: no main", expr)
	return nil
}

func TestConstFoldShortCircuit(t *testing.T) {
	tests := []struct {
		expr  string
		want  int64 // folded value
		ticks int64 // evaluation ticks for the taken path
	}{
		// Both operands constant: 1 tick per literal + 1 for the node.
		{"1 && 2", 1, 3},
		{"1 && 0", 0, 3},
		{"7 || 0", 1, 2}, // right side short-circuited: 1 literal + node
		{"0 || 3", 1, 3},
		{"0 && 0", 0, 2},
		// A decided left folds over a non-constant right.
		{"0 && x", 0, 2},
		{"1 || x", 1, 2},
		// Nested folds accumulate exactly.
		{"(1 && 2) || x", 1, 4},
		{"0 && (x || 1)", 0, 2},
		// Conditional: condition plus the taken branch only.
		{"1 ? 2 : 3", 2, 3},
		{"0 ? 2 : 3", 3, 3},
		{"1 ? 2 : x", 2, 3},
		{"0 ? x : 4", 4, 3},
		{"(1 && 0) ? x : 9", 9, 5},
		// Mixed float condition folds through truth().
		{"0.0 || 5", 1, 3},
		{"2.5 && 1", 1, 3},
	}
	c := &compiler{}
	for _, tc := range tests {
		t.Run(tc.expr, func(t *testing.T) {
			e := foldExpr(t, tc.expr)
			v, n, ok := c.constEval(e)
			if !ok {
				t.Fatalf("constEval(%q): not folded", tc.expr)
			}
			if v.I != tc.want {
				t.Errorf("constEval(%q) = %+v, want I=%d", tc.expr, v, tc.want)
			}
			if n != tc.ticks {
				t.Errorf("constEval(%q) ticks = %d, want %d", tc.expr, n, tc.ticks)
			}
		})
	}
}

// TestConstFoldUndecided pins the cases that must NOT fold: a
// non-constant operand the short-circuit rules cannot skip.
func TestConstFoldUndecided(t *testing.T) {
	for _, expr := range []string{
		"x && 1", "x || 0", "1 && x", "0 || x",
		"x ? 1 : 2", "1 ? x : 2",
	} {
		t.Run(expr, func(t *testing.T) {
			e := foldExpr(t, expr)
			if v, n, ok := (&compiler{}).constEval(e); ok {
				t.Errorf("constEval(%q) folded to %+v (ticks %d), want not folded", expr, v, n)
			}
		})
	}
}
