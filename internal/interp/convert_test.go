package interp

// Table-driven tests for the scalar conversion helpers. These pin the
// C conversion semantics the engine relies on: convC (the compiled
// engine's specialization of convert) is checked against the
// same tables via compile.go's unit under test being identical by
// construction, so the tables here are the single source of truth for
// what a MiniC cast does.

import (
	"math"
	"testing"

	"gdsx/internal/ctypes"
)

func TestTruncInt(t *testing.T) {
	tests := []struct {
		name string
		in   int64
		ty   *ctypes.Type
		want int64
	}{
		{"char identity", 42, ctypes.CharType, 42},
		{"char wraps", 200, ctypes.CharType, -56},
		{"char negative", -1, ctypes.CharType, -1},
		{"char sign extend", 0x180, ctypes.CharType, -128},
		{"uchar wraps", 200, ctypes.UCharType, 200},
		{"uchar zero extend", -1, ctypes.UCharType, 255},
		{"uchar masks high bits", 0x1ff, ctypes.UCharType, 0xff},
		{"short identity", -30000, ctypes.ShortType, -30000},
		{"short wraps", 0x8000, ctypes.ShortType, -32768},
		{"ushort zero extend", -1, ctypes.UShortType, 65535},
		{"int identity", -2000000000, ctypes.IntType, -2000000000},
		{"int wraps", 1 << 31, ctypes.IntType, math.MinInt32},
		{"int wraps large", 0x1_0000_0001, ctypes.IntType, 1},
		{"uint zero extend", -1, ctypes.UIntType, math.MaxUint32},
		{"uint masks", 0x1_2345_6789, ctypes.UIntType, 0x2345_6789},
		{"long identity", math.MinInt64, ctypes.LongType, math.MinInt64},
		{"ulong identity", -1, ctypes.ULongType, -1}, // 64-bit: representation unchanged
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := truncInt(tc.in, tc.ty)
			if got.I != tc.want {
				t.Errorf("truncInt(%d, %s) = %+v, want I=%d", tc.in, tc.ty, got, tc.want)
			}
		})
	}
}

func TestConvert(t *testing.T) {
	intPtr := ctypes.PointerTo(ctypes.IntType)
	arr := ctypes.ArrayOf(ctypes.IntType, 4)
	tests := []struct {
		name     string
		in       value
		from, to *ctypes.Type
		want     value
	}{
		{"nil types pass through", iv(7), nil, nil, iv(7)},
		{"array decays unchanged", iv(1024), arr, intPtr, iv(1024)},

		// Float-to-float: double→float rounds through float32.
		{"double to float rounds", fv(1.1), ctypes.DoubleType, ctypes.FloatType,
			fv(float64(float32(1.1)))},
		{"float to double identity", fv(2.5), ctypes.FloatType, ctypes.DoubleType, fv(2.5)},

		// Integer-to-float: signedness of the source decides.
		{"int to double", iv(-3), ctypes.IntType, ctypes.DoubleType, fv(-3)},
		{"ulong to double is unsigned", iv(-1), ctypes.ULongType, ctypes.DoubleType,
			fv(float64(uint64(math.MaxUint64)))},
		{"uint to float", iv(1 << 31), ctypes.UIntType, ctypes.FloatType, fv(1 << 31)},

		// Float-to-integer: C truncation toward zero, then width.
		{"double to int truncates", fv(3.99), ctypes.DoubleType, ctypes.IntType, iv(3)},
		{"double to int negative", fv(-3.99), ctypes.DoubleType, ctypes.IntType, iv(-3)},
		{"double to char wraps", fv(300), ctypes.DoubleType, ctypes.CharType, iv(44)},
		{"double to uchar wraps", fv(300), ctypes.DoubleType, ctypes.UCharType, iv(44)},

		// Integer-to-integer: width and signedness of the target.
		{"long to char", iv(0x1234_5678_9abc_def0), ctypes.LongType, ctypes.CharType,
			iv(-16)}, // low byte 0xf0 sign-extended
		{"long to ushort", iv(-1), ctypes.LongType, ctypes.UShortType, iv(0xffff)},
		{"int to long sign extends", iv(-5), ctypes.IntType, ctypes.LongType, iv(-5)},

		// Pointer conversions keep the address bits.
		{"long to pointer", iv(4096), ctypes.LongType, intPtr, iv(4096)},
		{"pointer to long", iv(4096), intPtr, ctypes.LongType, iv(4096)},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := convert(tc.in, tc.from, tc.to)
			if got != tc.want {
				t.Errorf("convert(%+v, %s, %s) = %+v, want %+v",
					tc.in, tc.from, tc.to, got, tc.want)
			}
		})
	}
}

// TestConvCMatchesConvert drives the compiled engine's pre-resolved
// conversion closures over the same cases as TestConvert, pinning the
// two implementations together.
func TestConvCMatchesConvert(t *testing.T) {
	intPtr := ctypes.PointerTo(ctypes.IntType)
	types := []*ctypes.Type{
		ctypes.CharType, ctypes.UCharType, ctypes.ShortType, ctypes.UShortType,
		ctypes.IntType, ctypes.UIntType, ctypes.LongType, ctypes.ULongType,
		ctypes.FloatType, ctypes.DoubleType, intPtr,
	}
	intInputs := []value{
		iv(0), iv(1), iv(-1), iv(127), iv(128), iv(255), iv(256),
		iv(math.MaxInt32), iv(math.MinInt32), iv(math.MaxInt64), iv(math.MinInt64),
	}
	floatInputs := []value{
		fv(0), fv(0.5), fv(-0.5), fv(3.99), fv(-3.99), fv(1e10), fv(-1e10),
	}
	for _, from := range types {
		// The evaluator only feeds a conversion values carried in the
		// field the source type selects.
		inputs := intInputs
		if from.IsFloat() {
			inputs = floatInputs
		}
		for _, to := range types {
			cv := convC(from, to)
			for _, in := range inputs {
				want := convert(in, from, to)
				if got := cv(in); got != want {
					t.Errorf("convC(%s→%s)(%+v) = %+v, want %+v", from, to, in, got, want)
				}
			}
		}
	}
}
