package kernelc

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/ir"
	"repro/internal/vm"
)

// The scalar-op differential: every scalar op at every staged type runs
// through a one-node kernel (parameters in, one op, result out) and must
// agree with Go's own arithmetic on the matching Go type. The reference
// spells out the interpreter's documented deviations from plain Go:
// integer division and remainder by zero yield 0, shift counts are
// masked to 0..63, integer→f32 conversion rounds through float64,
// float→integer conversion truncates through int64 with NaN → 0, and
// →bool conversion tests the int64 value against zero.

var scalarTypes = []ir.Type{ir.TI8, ir.TU8, ir.TI16, ir.TU16, ir.TI32, ir.TU32,
	ir.TI64, ir.TU64, ir.TF32, ir.TF64, ir.TBool}

type stager func(g *ir.Graph, a, b ir.Exp) ir.Exp

var (
	arithOps = map[string]stager{
		ir.OpAdd: (*ir.Graph).Add, ir.OpSub: (*ir.Graph).Sub, ir.OpMul: (*ir.Graph).Mul,
		ir.OpDiv: (*ir.Graph).Div, ir.OpMin: (*ir.Graph).Min, ir.OpMax: (*ir.Graph).Max,
		ir.OpEq: (*ir.Graph).Eq, ir.OpNe: (*ir.Graph).Ne, ir.OpLt: (*ir.Graph).Lt,
		ir.OpLe: (*ir.Graph).Le, ir.OpGt: (*ir.Graph).Gt, ir.OpGe: (*ir.Graph).Ge,
		ir.OpNeg: func(g *ir.Graph, a, _ ir.Exp) ir.Exp { return g.Neg(a) },
	}
	intOnlyOps = map[string]stager{
		ir.OpRem: (*ir.Graph).Rem, ir.OpAnd: (*ir.Graph).And, ir.OpOr: (*ir.Graph).Or,
		ir.OpXor: (*ir.Graph).Xor, ir.OpShl: (*ir.Graph).Shl, ir.OpShr: (*ir.Graph).Shr,
		ir.OpNot: func(g *ir.Graph, a, _ ir.Exp) ir.Exp { return g.Not(a) },
	}
	boolOps = map[string]stager{
		ir.OpAnd: (*ir.Graph).And, ir.OpOr: (*ir.Graph).Or, ir.OpXor: (*ir.Graph).Xor,
		ir.OpEq: (*ir.Graph).Eq, ir.OpNe: (*ir.Graph).Ne,
		ir.OpNot: func(g *ir.Graph, a, _ ir.Exp) ir.Exp { return g.Not(a) },
	}
)

// scalarCase is one compiled one-node kernel with its reference.
type scalarCase struct {
	name string
	prog *Program
	// args builds the call's arguments from the fuzz input; want is the
	// reference result for the same input.
	args func(a, b uint64, c bool) []vm.Value
	want func(a, b uint64, c bool) vm.Value
}

// scalarCases stages every op × type, every conversion pair and every
// select, compiled once per fuzz process.
func scalarCases(t testing.TB) []scalarCase {
	var cases []scalarCase
	add := func(name string, params []ir.Type, stage func(f *ir.Func) ir.Exp,
		args func(a, b uint64, c bool) []vm.Value, want func(a, b uint64, c bool) vm.Value) {
		f := ir.NewFunc(name, params...)
		f.G.Root().Result = stage(f)
		p, err := Compile(f)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases = append(cases, scalarCase{name: name, prog: p, args: args, want: want})
	}
	for _, ty := range scalarTypes {
		ops := boolOps
		if ty.Kind != ir.KindBool {
			ops = map[string]stager{}
			for k, v := range arithOps {
				ops[k] = v
			}
			if !ty.IsFloat() {
				for k, v := range intOnlyOps {
					ops[k] = v
				}
			}
		}
		for opName, st := range ops {
			ty, opName, st := ty, opName, st
			add(fmt.Sprintf("%s.%v", opName, ty), []ir.Type{ty, ty},
				func(f *ir.Func) ir.Exp { return st(f.G, f.Params[0], f.Params[1]) },
				func(a, b uint64, _ bool) []vm.Value { return []vm.Value{typedArg(ty, a), typedArg(ty, b)} },
				func(a, b uint64, _ bool) vm.Value { return refOp(ty, opName, a, b) })
		}
		add(fmt.Sprintf("select.%v", ty), []ir.Type{ir.TBool, ty, ty},
			func(f *ir.Func) ir.Exp { return f.G.Select(f.Params[0], f.Params[1], f.Params[2]) },
			func(a, b uint64, c bool) []vm.Value {
				return []vm.Value{vm.BoolValue(c), typedArg(ty, a), typedArg(ty, b)}
			},
			func(a, b uint64, c bool) vm.Value {
				if c {
					return typedArg(ty, a)
				}
				return typedArg(ty, b)
			})
		for _, to := range scalarTypes {
			from, to := ty, to
			add(fmt.Sprintf("conv.%v.%v", from, to), []ir.Type{from},
				func(f *ir.Func) ir.Exp { return f.G.Conv(f.Params[0], to) },
				func(a, _ uint64, _ bool) []vm.Value { return []vm.Value{typedArg(from, a)} },
				func(a, _ uint64, _ bool) vm.Value { return refConv(from, to, a) })
		}
	}
	return cases
}

// typedArg reinterprets raw fuzz bits as a value of type ty: integers
// take the low bits, f32 the low 32 bits, bool the low bit.
func typedArg(ty ir.Type, raw uint64) vm.Value {
	k := ty.Kind
	switch k {
	case ir.KindI8:
		return vm.Value{Kind: k, I: int64(int8(raw))}
	case ir.KindI16:
		return vm.Value{Kind: k, I: int64(int16(raw))}
	case ir.KindI32:
		return vm.Value{Kind: k, I: int64(int32(raw))}
	case ir.KindI64:
		return vm.Value{Kind: k, I: int64(raw)}
	case ir.KindU8:
		return vm.Value{Kind: k, U: uint64(uint8(raw))}
	case ir.KindU16:
		return vm.Value{Kind: k, U: uint64(uint16(raw))}
	case ir.KindU32:
		return vm.Value{Kind: k, U: uint64(uint32(raw))}
	case ir.KindU64:
		return vm.Value{Kind: k, U: raw}
	case ir.KindF32:
		return vm.Value{Kind: k, F: float64(math.Float32frombits(uint32(raw)))}
	case ir.KindF64:
		return vm.Value{Kind: k, F: math.Float64frombits(raw)}
	default:
		return vm.Value{Kind: k, B: raw&1 != 0}
	}
}

// refOp evaluates op at type ty on Go's native type for ty.
func refOp(ty ir.Type, op string, a, b uint64) vm.Value {
	k := ty.Kind
	switch k {
	case ir.KindI8:
		return refInt(k, op, int8(a), int8(b))
	case ir.KindI16:
		return refInt(k, op, int16(a), int16(b))
	case ir.KindI32:
		return refInt(k, op, int32(a), int32(b))
	case ir.KindI64:
		return refInt(k, op, int64(a), int64(b))
	case ir.KindU8:
		return refInt(k, op, uint8(a), uint8(b))
	case ir.KindU16:
		return refInt(k, op, uint16(a), uint16(b))
	case ir.KindU32:
		return refInt(k, op, uint32(a), uint32(b))
	case ir.KindU64:
		return refInt(k, op, a, b)
	case ir.KindF32:
		return refFloat(k, op, math.Float32frombits(uint32(a)), math.Float32frombits(uint32(b)))
	case ir.KindF64:
		return refFloat(k, op, math.Float64frombits(a), math.Float64frombits(b))
	default:
		return refBool(op, a&1 != 0, b&1 != 0)
	}
}

type integer interface {
	~int8 | ~int16 | ~int32 | ~int64 | ~uint8 | ~uint16 | ~uint32 | ~uint64
}

// boxInt boxes a native integer as the interpreter returns kind k.
func boxInt[T integer](k ir.Kind, v T) vm.Value {
	var zero T
	if zero-1 < 0 {
		return vm.Value{Kind: k, I: int64(v)}
	}
	return vm.Value{Kind: k, U: uint64(v)}
}

func refInt[T integer](k ir.Kind, op string, x, y T) vm.Value {
	box := func(v T) vm.Value { return boxInt(k, v) }
	sh := uint64(y) & 63
	switch op {
	case ir.OpAdd:
		return box(x + y)
	case ir.OpSub:
		return box(x - y)
	case ir.OpMul:
		return box(x * y)
	case ir.OpDiv:
		if y == 0 {
			return box(0)
		}
		return box(x / y)
	case ir.OpRem:
		if y == 0 {
			return box(0)
		}
		return box(x % y)
	case ir.OpMin:
		return box(min(x, y))
	case ir.OpMax:
		return box(max(x, y))
	case ir.OpAnd:
		return box(x & y)
	case ir.OpOr:
		return box(x | y)
	case ir.OpXor:
		return box(x ^ y)
	case ir.OpShl:
		return box(x << sh)
	case ir.OpShr:
		return box(x >> sh)
	case ir.OpNeg:
		return box(-x)
	case ir.OpNot:
		return box(^x)
	case ir.OpEq:
		return vm.BoolValue(x == y)
	case ir.OpNe:
		return vm.BoolValue(x != y)
	case ir.OpLt:
		return vm.BoolValue(x < y)
	case ir.OpLe:
		return vm.BoolValue(x <= y)
	case ir.OpGt:
		return vm.BoolValue(x > y)
	case ir.OpGe:
		return vm.BoolValue(x >= y)
	}
	panic("refInt: unhandled op " + op)
}

func refFloat[F float32 | float64](k ir.Kind, op string, x, y F) vm.Value {
	box := func(v F) vm.Value { return vm.Value{Kind: k, F: float64(v)} }
	switch op {
	case ir.OpAdd:
		return box(x + y)
	case ir.OpSub:
		return box(x - y)
	case ir.OpMul:
		return box(x * y)
	case ir.OpDiv:
		return box(x / y)
	case ir.OpMin:
		if y < x {
			return box(y)
		}
		return box(x)
	case ir.OpMax:
		if y > x {
			return box(y)
		}
		return box(x)
	case ir.OpNeg:
		return box(-x)
	case ir.OpEq:
		return vm.BoolValue(x == y)
	case ir.OpNe:
		return vm.BoolValue(x != y)
	case ir.OpLt:
		return vm.BoolValue(x < y)
	case ir.OpLe:
		return vm.BoolValue(x <= y)
	case ir.OpGt:
		return vm.BoolValue(x > y)
	case ir.OpGe:
		return vm.BoolValue(x >= y)
	}
	panic("refFloat: unhandled op " + op)
}

func refBool(op string, x, y bool) vm.Value {
	switch op {
	case ir.OpAnd:
		return vm.BoolValue(x && y)
	case ir.OpOr:
		return vm.BoolValue(x || y)
	case ir.OpXor, ir.OpNe:
		return vm.BoolValue(x != y)
	case ir.OpEq:
		return vm.BoolValue(x == y)
	case ir.OpNot:
		return vm.BoolValue(!x)
	}
	panic("refBool: unhandled op " + op)
}

// refConv converts the raw input, typed as from, to type to.
func refConv(from, to ir.Type, raw uint64) vm.Value {
	src := typedArg(from, raw)
	if from == to {
		return src
	}
	// The source as Go sees it: an integer bit pattern (sign- or
	// zero-extended by typedArg), a float, or a bool as 0/1.
	var bits int64
	var f float64
	switch {
	case from.IsFloat():
		f = src.F
		if f == f { // NaN converts to 0
			bits = int64(f)
		}
	case from.Kind == ir.KindBool:
		if src.B {
			bits = 1
		}
	case from.IsSigned():
		bits = src.I
	default:
		bits = int64(src.U)
	}
	if !from.IsFloat() {
		if from.IsSigned() || from.Kind == ir.KindBool {
			f = float64(bits)
		} else {
			f = float64(uint64(bits))
		}
	}
	k := to.Kind
	switch k {
	case ir.KindBool:
		if from.IsFloat() {
			// int64(NaN) is the platform's conversion, not the NaN → 0
			// rule, exactly as the interpreter computes it.
			return vm.BoolValue(int64(f) != 0)
		}
		return vm.BoolValue(bits != 0)
	case ir.KindF32:
		return vm.Value{Kind: k, F: float64(float32(f))}
	case ir.KindF64:
		return vm.Value{Kind: k, F: f}
	case ir.KindI8:
		return boxInt(k, int8(bits))
	case ir.KindI16:
		return boxInt(k, int16(bits))
	case ir.KindI32:
		return boxInt(k, int32(bits))
	case ir.KindI64:
		return boxInt(k, bits)
	case ir.KindU8:
		return boxInt(k, uint8(bits))
	case ir.KindU16:
		return boxInt(k, uint16(bits))
	case ir.KindU32:
		return boxInt(k, uint32(bits))
	default:
		return boxInt(k, uint64(bits))
	}
}

// agree compares an interpreter result with the reference: bit-exact,
// except that any two NaNs agree (Go may commute a float operation and
// pick the other operand's NaN payload).
func agree(got, want vm.Value) bool {
	if got.Kind == want.Kind && math.IsNaN(got.F) && math.IsNaN(want.F) {
		got.F, want.F = 0, 0
	}
	return got.Equal(want)
}

// FuzzScalarOpsAgree runs every scalar op × type (i8…u64, f32, f64,
// bool), every conversion pair and every select through a one-node
// staged kernel and compares the result with Go reference arithmetic.
func FuzzScalarOpsAgree(f *testing.F) {
	const (
		minI64   = 1 << 63
		f32NaN   = 0x7fc00001
		f32Inf   = 0x7f800000
		f32NInf  = 0xff800000
		f64NaN   = 0x7ff8000000000001
		f64Inf   = 0x7ff0000000000000
		f64NInf  = 0xfff0000000000000
		f64Big   = 0x46293e5939a08cea // 1e30: out of every integer range
		f32Big   = 0x7149f2ca         // 1e30 as f32
		f64Trunc = 0x4072c00000000000 // 300.0: wraps in 8 bits
	)
	seeds := []struct {
		a, b uint64
		c    bool
	}{
		{0, 0, false},               // zero divisor, 0/0
		{7, 0, true},                // zero divisor
		{minI64, ^uint64(0), false}, // MinInt64 / -1
		{0x80, 0xff, true},          // i8 MinInt8 / -1, u8 top bit
		{0xfffffffe, 3, false},      // unsigned div/shr vs signed
		{^uint64(0), 1, true},       // u64 top bit: unsigned compares
		{0x1234, 64, false},         // shift count masked to 0
		{0x1234, 200, true},         // shift count masked to 8
		{0x12345, 0x10001, false},   // truncation wrap in every width
		{f32NaN, f32Inf, true},      // f32 NaN / +Inf
		{f32NInf, f32Big, false},    // f32 -Inf, out-of-range conversions
		{f64NaN, f64Inf, true},      // f64 NaN / +Inf
		{f64NInf, f64Big, false},    // f64 -Inf, out-of-range conversions
		{f64Trunc, 0x3ff0000000000000, true},
		{0x3f800000, 0x322bcc77, false}, // f32 1 + 1e-8 must round
		{^uint64(0), 3, false},          // u64 top bit: unsigned rem/min/max
		{5, ^uint64(0) - 1, true},       // u64 top bit as the divisor
	}
	for _, s := range seeds {
		f.Add(s.a, s.b, s.c)
	}
	cases := scalarCases(f)
	m := haswell()
	f.Fuzz(func(t *testing.T, a, b uint64, c bool) {
		for _, sc := range cases {
			got, err := sc.prog.Run(m, sc.args(a, b, c)...)
			if err != nil {
				t.Fatalf("%s(%#x, %#x, %v): %v", sc.name, a, b, c, err)
			}
			if want := sc.want(a, b, c); !agree(got, want) {
				t.Errorf("%s(%#x, %#x, %v) = %+v, want %+v", sc.name, a, b, c, got, want)
			}
		}
	})
}
