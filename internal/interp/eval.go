package interp

import (
	"math"

	"gdsx/internal/ast"
	"gdsx/internal/ctypes"
	"gdsx/internal/token"
)

// value is a MiniC runtime value. Integers and pointers live in I;
// floating values live in F. The static type of the originating
// expression decides which field is meaningful.
type value struct {
	I int64
	F float64
}

func iv(i int64) value   { return value{I: i} }
func fv(f float64) value { return value{F: f} }

// truth reports C truthiness for a value of type t.
func truth(v value, t *ctypes.Type) bool {
	if t != nil && t.IsFloat() {
		return v.F != 0
	}
	return v.I != 0
}

// convert coerces v from type 'from' to type 'to'.
func convert(v value, from, to *ctypes.Type) value {
	if from == nil || to == nil {
		return v
	}
	if from.Kind == ctypes.Array {
		return v // decayed address
	}
	switch {
	case to.IsFloat() && from.IsFloat():
		if to.Kind == ctypes.Float {
			return fv(float64(float32(v.F)))
		}
		return v
	case to.IsFloat():
		if from.Unsigned {
			return fv(float64(uint64(v.I)))
		}
		return fv(float64(v.I))
	case from.IsFloat(): // to integer
		return truncInt(int64(v.F), to)
	case to.Kind == ctypes.Ptr:
		return v
	case to.IsInteger():
		return truncInt(v.I, to)
	}
	return v
}

// truncInt truncates i to the width of integer type t with proper
// sign- or zero-extension.
func truncInt(i int64, t *ctypes.Type) value {
	switch t.Size() {
	case 1:
		if t.Unsigned {
			return iv(int64(uint8(i)))
		}
		return iv(int64(int8(i)))
	case 2:
		if t.Unsigned {
			return iv(int64(uint16(i)))
		}
		return iv(int64(int16(i)))
	case 4:
		if t.Unsigned {
			return iv(int64(uint32(i)))
		}
		return iv(int64(int32(i)))
	default:
		return iv(i)
	}
}

// loadTyped reads a value of type ty from addr.
func (t *thread) loadTyped(addr int64, ty *ctypes.Type) value {
	switch ty.Kind {
	case ctypes.Float:
		return fv(float64(math.Float32frombits(uint32(t.m.mem.Load(addr, 4)))))
	case ctypes.Double:
		return fv(math.Float64frombits(t.m.mem.Load(addr, 8)))
	case ctypes.Ptr:
		return iv(int64(t.m.mem.Load(addr, 8)))
	default:
		raw := t.m.mem.Load(addr, int(ty.Size()))
		return truncInt(int64(raw), ty)
	}
}

// storeTyped writes v (already converted to ty) at addr.
func (t *thread) storeTyped(addr int64, ty *ctypes.Type, v value) {
	switch ty.Kind {
	case ctypes.Float:
		t.m.mem.Store(addr, 4, uint64(math.Float32bits(float32(v.F))))
	case ctypes.Double:
		t.m.mem.Store(addr, 8, math.Float64bits(v.F))
	case ctypes.Ptr:
		t.m.mem.Store(addr, 8, uint64(v.I))
	case ctypes.Struct:
		rterrf(token.Pos{}, "struct store without source address")
	default:
		t.m.mem.Store(addr, int(ty.Size()), uint64(v.I))
	}
}

// touchCache registers a memory access with the thread's cache model,
// counting misses as memory-system traffic.
func (t *thread) touchCache(addr int64) {
	t.memOps++
	line := addr>>6 + 1
	set := &t.cacheTags[(addr>>6)&255]
	switch line {
	case set[0]:
		return
	case set[1]:
		set[0], set[1] = line, set[0]
		return
	case set[2]:
		set[0], set[1], set[2] = line, set[0], set[1]
		return
	case set[3]:
		set[0], set[1], set[2], set[3] = line, set[0], set[1], set[2]
		return
	}
	t.memMiss++
	set[0], set[1], set[2], set[3] = line, set[0], set[1], set[2]
}

// symAddr returns the memory address of a variable symbol.
func (t *thread) symAddr(f *frame, sym *ast.Symbol, pos token.Pos) int64 {
	switch sym.Kind {
	case ast.SymGlobal:
		return t.m.globalAddr[sym.Index]
	case ast.SymLocal, ast.SymParam:
		a := f.slots[sym.Index]
		if a == 0 {
			rterrf(pos, "variable %s used before its declaration executed", sym.Name)
		}
		return a
	}
	rterrf(pos, "%s has no address", sym.Name)
	return 0
}

func sizeOfElem(t *ctypes.Type, pos token.Pos) int64 {
	if t == nil {
		rterrf(pos, "untyped element")
	}
	if t.Kind == ctypes.Void {
		return 1
	}
	if !t.HasStaticSize() {
		rterrf(pos, "element of dynamic type %s", t)
	}
	return t.Size()
}

func toFloat(v value, t *ctypes.Type) float64 {
	if t.IsFloat() {
		return v.F
	}
	if t.Unsigned {
		return float64(uint64(v.I))
	}
	return float64(v.I)
}

func promSize(t *ctypes.Type) int64 {
	if t.Size() < 4 {
		return 4
	}
	return t.Size()
}

func ptrElemSize(t *ctypes.Type, pos token.Pos) int64 {
	return sizeOfElem(t.Elem, pos)
}

func cmpInt(op token.Kind, a, b int64, unsigned bool) value {
	var r bool
	if unsigned {
		ua, ub := uint64(a), uint64(b)
		switch op {
		case token.EQL:
			r = ua == ub
		case token.NEQ:
			r = ua != ub
		case token.LSS:
			r = ua < ub
		case token.GTR:
			r = ua > ub
		case token.LEQ:
			r = ua <= ub
		case token.GEQ:
			r = ua >= ub
		}
	} else {
		switch op {
		case token.EQL:
			r = a == b
		case token.NEQ:
			r = a != b
		case token.LSS:
			r = a < b
		case token.GTR:
			r = a > b
		case token.LEQ:
			r = a <= b
		case token.GEQ:
			r = a >= b
		}
	}
	if r {
		return iv(1)
	}
	return iv(0)
}

func cmpFloat(op token.Kind, a, b float64) value {
	var r bool
	switch op {
	case token.EQL:
		r = a == b
	case token.NEQ:
		r = a != b
	case token.LSS:
		r = a < b
	case token.GTR:
		r = a > b
	case token.LEQ:
		r = a <= b
	case token.GEQ:
		r = a >= b
	}
	if r {
		return iv(1)
	}
	return iv(0)
}

// storeSite returns the store access ID attached to an lvalue node.
func storeSite(e ast.Expr) int {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Acc.Store
	case *ast.Index:
		return x.Acc.Store
	case *ast.Member:
		return x.Acc.Store
	case *ast.Unary:
		return x.Acc.Store
	}
	return 0
}

func loadSite(e ast.Expr) int {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Acc.Load
	case *ast.Index:
		return x.Acc.Load
	case *ast.Member:
		return x.Acc.Load
	case *ast.Unary:
		return x.Acc.Load
	}
	return 0
}

// compound computes old OP rhs for a compound assignment and converts
// the result back to the LHS type lt.
func compound(pos token.Pos, op token.Kind, old, rv value, lt, rt *ctypes.Type) value {
	// Pointer += / -= integer.
	if lt.Kind == ctypes.Ptr {
		delta := rv.I * sizeOfElem(lt.Elem, pos)
		if op == token.SUB {
			delta = -delta
		}
		return iv(old.I + delta)
	}
	common := ctypes.Common(lt, rt)
	a := convert(old, lt, common)
	b := convert(rv, rt, common)
	var r value
	if common.IsFloat() {
		switch op {
		case token.ADD:
			r = fv(a.F + b.F)
		case token.SUB:
			r = fv(a.F - b.F)
		case token.MUL:
			r = fv(a.F * b.F)
		case token.QUO:
			r = fv(a.F / b.F)
		default:
			rterrf(pos, "bad float compound op %s", op)
		}
	} else {
		switch op {
		case token.ADD:
			r = iv(a.I + b.I)
		case token.SUB:
			r = iv(a.I - b.I)
		case token.MUL:
			r = iv(a.I * b.I)
		case token.QUO:
			if b.I == 0 {
				rterrf(pos, "integer division by zero")
			}
			if common.Unsigned {
				r = iv(int64(uint64(a.I) / uint64(b.I)))
			} else {
				r = iv(a.I / b.I)
			}
		case token.REM:
			if b.I == 0 {
				rterrf(pos, "integer modulo by zero")
			}
			if common.Unsigned {
				r = iv(int64(uint64(a.I) % uint64(b.I)))
			} else {
				r = iv(a.I % b.I)
			}
		case token.SHL:
			r = iv(a.I << uint(b.I&63))
		case token.SHR:
			if lt.Unsigned {
				switch promSize(lt) {
				case 4:
					r = iv(int64(uint32(a.I) >> uint(b.I&63)))
				default:
					r = iv(int64(uint64(a.I) >> uint(b.I&63)))
				}
			} else {
				r = iv(a.I >> uint(b.I&63))
			}
		case token.AND:
			r = iv(a.I & b.I)
		case token.OR:
			r = iv(a.I | b.I)
		case token.XOR:
			r = iv(a.I ^ b.I)
		default:
			rterrf(pos, "bad compound op %s", op)
		}
	}
	return convert(r, common, lt)
}
