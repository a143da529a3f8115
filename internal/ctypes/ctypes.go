// Package ctypes implements the MiniC type system: primitive types with
// C-like sizes, pointers, arrays, structs with laid-out fields, and
// function signatures. Sizes and field offsets are what the simulated
// memory uses, so the paper's address arithmetic (spans, bonded layout)
// is expressed in these units.
package ctypes

import (
	"fmt"
	"strings"
)

// Kind enumerates the type constructors of MiniC.
type Kind int

// Type kinds.
const (
	Void   Kind = iota
	Char        // 1 byte
	Short       // 2 bytes
	Int         // 4 bytes
	Long        // 8 bytes
	Float       // 4 bytes
	Double      // 8 bytes
	Ptr         // 8 bytes
	Array
	Struct
	Func
)

var kindNames = [...]string{
	Void: "void", Char: "char", Short: "short", Int: "int", Long: "long",
	Float: "float", Double: "double", Ptr: "ptr", Array: "array",
	Struct: "struct", Func: "func",
}

func (k Kind) String() string { return kindNames[k] }

// Field is a named struct member at a fixed byte offset.
type Field struct {
	Name   string
	Type   *Type
	Offset int64
	Index  int
}

// Type describes a MiniC type. Types are compared structurally except
// for structs, which compare by identity (each struct definition yields
// one *Type shared by all its uses).
type Type struct {
	Kind     Kind
	Unsigned bool  // for Char..Long
	Elem     *Type // Ptr and Array element type
	Len      int64 // Array length; VLA < 0 (length supplied by a decl-site expression)

	// Struct.
	Name   string
	Fields []*Field
	size   int64
	align  int64

	// Func.
	Ret    *Type
	Params []*Type
}

// Predefined primitive types. These are shared instances; primitive
// types may also be constructed fresh (equality is structural).
var (
	VoidType   = &Type{Kind: Void}
	CharType   = &Type{Kind: Char}
	UCharType  = &Type{Kind: Char, Unsigned: true}
	ShortType  = &Type{Kind: Short}
	UShortType = &Type{Kind: Short, Unsigned: true}
	IntType    = &Type{Kind: Int}
	UIntType   = &Type{Kind: Int, Unsigned: true}
	LongType   = &Type{Kind: Long}
	ULongType  = &Type{Kind: Long, Unsigned: true}
	FloatType  = &Type{Kind: Float}
	DoubleType = &Type{Kind: Double}
)

// PointerTo returns the type *elem.
func PointerTo(elem *Type) *Type { return &Type{Kind: Ptr, Elem: elem} }

// ArrayOf returns the type elem[n]. A negative n denotes a VLA whose
// length expression lives at the declaration site.
func ArrayOf(elem *Type, n int64) *Type { return &Type{Kind: Array, Elem: elem, Len: n} }

// FuncOf returns a function type.
func FuncOf(ret *Type, params []*Type) *Type {
	return &Type{Kind: Func, Ret: ret, Params: params}
}

// NewStruct creates a struct type and lays out its fields with natural
// alignment (each field aligned to min(its size, 8)).
func NewStruct(name string, fields []*Field) *Type {
	t := &Type{Kind: Struct, Name: name, Fields: fields}
	var off, maxAlign int64
	maxAlign = 1
	for i, f := range fields {
		a := f.Type.Align()
		if a > maxAlign {
			maxAlign = a
		}
		off = alignUp(off, a)
		f.Offset = off
		f.Index = i
		off += f.Type.Size()
	}
	t.size = alignUp(off, maxAlign)
	if t.size == 0 {
		t.size = 1
	}
	t.align = maxAlign
	return t
}

// Relayout recomputes a struct's field offsets, size and alignment
// after its field types were mutated (the pointer-promotion pass grows
// fields into fat-pointer structs in place).
func Relayout(t *Type) {
	if t.Kind != Struct {
		return
	}
	var off, maxAlign int64
	maxAlign = 1
	for i, f := range t.Fields {
		a := f.Type.Align()
		if a > maxAlign {
			maxAlign = a
		}
		off = alignUp(off, a)
		f.Offset = off
		f.Index = i
		off += f.Type.Size()
	}
	t.size = alignUp(off, maxAlign)
	if t.size == 0 {
		t.size = 1
	}
	t.align = maxAlign
}

func alignUp(n, a int64) int64 {
	if a <= 1 {
		return n
	}
	return (n + a - 1) / a * a
}

// Field returns the struct field with the given name, or nil.
func (t *Type) Field(name string) *Field {
	for _, f := range t.Fields {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Size returns the byte size of the type. VLA arrays and function types
// have no static size; Size panics for them.
func (t *Type) Size() int64 {
	switch t.Kind {
	case Void:
		return 1 // as in GCC's void arithmetic extension
	case Char:
		return 1
	case Short:
		return 2
	case Int, Float:
		return 4
	case Long, Double, Ptr:
		return 8
	case Array:
		if t.Len < 0 {
			panic("ctypes: Size of VLA " + t.String())
		}
		return t.Len * t.Elem.Size()
	case Struct:
		return t.size
	}
	panic("ctypes: Size of " + t.String())
}

// HasStaticSize reports whether Size may be called on t.
func (t *Type) HasStaticSize() bool {
	switch t.Kind {
	case Func:
		return false
	case Array:
		return t.Len >= 0 && t.Elem.HasStaticSize()
	case Struct:
		return true
	default:
		return true
	}
}

// Align returns the natural alignment of the type.
func (t *Type) Align() int64 {
	switch t.Kind {
	case Array:
		return t.Elem.Align()
	case Struct:
		return t.align
	case Void:
		return 1
	default:
		return t.Size()
	}
}

// IsInteger reports whether t is an integer type (char through long).
func (t *Type) IsInteger() bool { return t.Kind >= Char && t.Kind <= Long }

// IsFloat reports whether t is float or double.
func (t *Type) IsFloat() bool { return t.Kind == Float || t.Kind == Double }

// IsArith reports whether t is an arithmetic (integer or floating) type.
func (t *Type) IsArith() bool { return t.IsInteger() || t.IsFloat() }

// IsScalar reports whether t is arithmetic or a pointer.
func (t *Type) IsScalar() bool { return t.IsArith() || t.Kind == Ptr }

// Equal reports type equality: structural for primitives, pointers and
// arrays; identity for structs.
func (t *Type) Equal(u *Type) bool {
	if t == u {
		return true
	}
	if t == nil || u == nil || t.Kind != u.Kind {
		return false
	}
	switch t.Kind {
	case Struct:
		return false // identity compared above
	case Ptr:
		return t.Elem.Equal(u.Elem)
	case Array:
		return t.Len == u.Len && t.Elem.Equal(u.Elem)
	case Func:
		if !t.Ret.Equal(u.Ret) || len(t.Params) != len(u.Params) {
			return false
		}
		for i := range t.Params {
			if !t.Params[i].Equal(u.Params[i]) {
				return false
			}
		}
		return true
	default:
		return t.Unsigned == u.Unsigned
	}
}

// Common returns the usual-arithmetic-conversion result type of a
// binary operation over a and b, whatever their order: an integer
// operand narrower than int promotes to int, the higher-ranked operand
// then gives the type, and at equal rank an unsigned operand makes the
// result unsigned.
func Common(a, b *Type) *Type {
	rank := func(t *Type) int {
		switch t.Kind {
		case Double:
			return 7
		case Float:
			return 6
		case Long:
			return 5
		case Int:
			return 4
		case Short:
			return 3
		case Char:
			return 2
		}
		return 0
	}
	promote := func(t *Type) *Type {
		if t.IsInteger() && rank(t) < 4 {
			return IntType // every narrower type fits in int
		}
		return t
	}
	a, b = promote(a), promote(b)
	if ra, rb := rank(a), rank(b); rb > ra || rb == ra && b.Unsigned && !a.Unsigned {
		return b
	}
	return a
}

// String renders the type in C-ish syntax.
func (t *Type) String() string {
	if t == nil {
		return "<nil>"
	}
	switch t.Kind {
	case Ptr:
		return t.Elem.String() + "*"
	case Array:
		if t.Len < 0 {
			return fmt.Sprintf("%s[]", t.Elem)
		}
		return fmt.Sprintf("%s[%d]", t.Elem, t.Len)
	case Struct:
		return "struct " + t.Name
	case Func:
		var ps []string
		for _, p := range t.Params {
			ps = append(ps, p.String())
		}
		return fmt.Sprintf("%s(%s)", t.Ret, strings.Join(ps, ","))
	default:
		if t.Unsigned {
			return "unsigned " + t.Kind.String()
		}
		return t.Kind.String()
	}
}
