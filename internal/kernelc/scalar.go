package kernelc

import (
	"fmt"
	"math"

	"repro/internal/ir"
)

// The host-language scalar vocabulary (arithmetic, compares, bit ops,
// conversions) interleaved between intrinsic calls. Each op compiles to
// one closure over unboxed registers: integers compute in int64 and
// wrap into their staged width, floats compute in float64 and round to
// float32 for f32, bools are 0 or 1.

// compileScalar lowers a unary or binary scalar op.
func (c *compiler) compileScalar(n *ir.Node) (op, string, error) {
	d := n.Def
	args, err := c.refs(d.Args)
	if err != nil {
		return nil, "", err
	}
	cost := scalarCost(d.Op, d.Typ)
	dst := c.slot(n.Sym)
	var o op
	switch len(args) {
	case 1:
		o, err = unaryOp(d.Op, d.Typ, dst, args[0])
	case 2:
		// Comparisons evaluate at the operand type, not the bool result
		// type.
		opT := d.Typ
		if isCmp(d.Op) {
			opT = d.Args[0].Type()
		}
		o, err = binaryOp(d.Op, opT, dst, args[0], args[1])
	default:
		err = fmt.Errorf("scalar op %s with %d args", d.Op, len(args))
	}
	if err != nil {
		return nil, "", err
	}
	return o, cost, nil
}

func isCmp(op string) bool {
	switch op {
	case ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
		return true
	}
	return false
}

// scalarCost picks the pseudo-op the cost model prices this operation as.
func scalarCost(op string, t ir.Type) string {
	switch op {
	case ir.OpMul:
		if t.IsFloat() {
			return OpScalarFMul
		}
		return OpScalarMul
	case ir.OpDiv, ir.OpRem:
		if t.IsFloat() {
			return OpScalarFDiv
		}
		return OpScalarDiv
	case ir.OpAdd, ir.OpSub, ir.OpNeg, ir.OpMin, ir.OpMax:
		if t.IsFloat() {
			return OpScalarFP
		}
		return OpScalarALU
	default:
		return OpScalarALU
	}
}

func isFloatKind(k ir.Kind) bool { return k == ir.KindF32 || k == ir.KindF64 }

func isUnsignedKind(k ir.Kind) bool {
	switch k {
	case ir.KindU8, ir.KindU16, ir.KindU32, ir.KindU64:
		return true
	}
	return false
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// round rounds a float64 result to float32 precision for f32 values.
func round(f32 bool, x float64) float64 {
	if f32 {
		return float64(float32(x))
	}
	return x
}

// intWidth wraps int64 results into a staged integer kind: shifting up
// by sh and back sign-extends from the kind's width, and mask then
// zero-extends unsigned kinds.
type intWidth struct {
	sh   uint
	mask int64
}

func widthOf(k ir.Kind) intWidth {
	switch k {
	case ir.KindI8:
		return intWidth{sh: 56, mask: -1}
	case ir.KindI16:
		return intWidth{sh: 48, mask: -1}
	case ir.KindI32:
		return intWidth{sh: 32, mask: -1}
	case ir.KindU8:
		return intWidth{sh: 56, mask: 0xFF}
	case ir.KindU16:
		return intWidth{sh: 48, mask: 0xFFFF}
	case ir.KindU32:
		return intWidth{sh: 32, mask: 0xFFFFFFFF}
	default: // i64, u64
		return intWidth{sh: 0, mask: -1}
	}
}

func (w intWidth) wrap(x int64) int64 { return (x << w.sh >> w.sh) & w.mask }

func unaryOp(opName string, t ir.Type, d, a int) (op, error) {
	switch {
	case opName == ir.OpNeg && t.IsFloat():
		f32 := t.Kind == ir.KindF32
		return func(fr *frame) error { s := fr.s; s[d].f = round(f32, -s[a].f); return nil }, nil
	case opName == ir.OpNeg:
		w := widthOf(t.Kind)
		return func(fr *frame) error { s := fr.s; s[d].i = w.wrap(-s[a].i); return nil }, nil
	case opName == ir.OpNot && t.Kind == ir.KindBool:
		return func(fr *frame) error { s := fr.s; s[d].i = s[a].i ^ 1; return nil }, nil
	case opName == ir.OpNot:
		w := widthOf(t.Kind)
		return func(fr *frame) error { s := fr.s; s[d].i = w.wrap(^s[a].i); return nil }, nil
	}
	return nil, fmt.Errorf("unsupported unary op %s", opName)
}

// binaryOp compiles d = a op b at operand type t (comparisons write a
// bool).
func binaryOp(opName string, t ir.Type, d, a, b int) (op, error) {
	if t.IsFloat() {
		return floatOp(opName, t.Kind == ir.KindF32, d, a, b)
	}
	if t.Kind == ir.KindBool {
		return boolOp(opName, d, a, b)
	}
	return intOp(opName, t, d, a, b)
}

func floatOp(opName string, f32 bool, d, a, b int) (op, error) {
	switch opName {
	case ir.OpAdd:
		return func(fr *frame) error { s := fr.s; s[d].f = round(f32, s[a].f+s[b].f); return nil }, nil
	case ir.OpSub:
		return func(fr *frame) error { s := fr.s; s[d].f = round(f32, s[a].f-s[b].f); return nil }, nil
	case ir.OpMul:
		return func(fr *frame) error { s := fr.s; s[d].f = round(f32, s[a].f*s[b].f); return nil }, nil
	case ir.OpDiv:
		return func(fr *frame) error { s := fr.s; s[d].f = round(f32, s[a].f/s[b].f); return nil }, nil
	case ir.OpMin:
		return func(fr *frame) error {
			s := fr.s
			x, y := s[a].f, s[b].f
			if y < x {
				x = y
			}
			s[d].f = round(f32, x)
			return nil
		}, nil
	case ir.OpMax:
		return func(fr *frame) error {
			s := fr.s
			x, y := s[a].f, s[b].f
			if y > x {
				x = y
			}
			s[d].f = round(f32, x)
			return nil
		}, nil
	case ir.OpEq:
		return func(fr *frame) error { s := fr.s; s[d].i = b2i(s[a].f == s[b].f); return nil }, nil
	case ir.OpNe:
		return func(fr *frame) error { s := fr.s; s[d].i = b2i(s[a].f != s[b].f); return nil }, nil
	case ir.OpLt:
		return func(fr *frame) error { s := fr.s; s[d].i = b2i(s[a].f < s[b].f); return nil }, nil
	case ir.OpLe:
		return func(fr *frame) error { s := fr.s; s[d].i = b2i(s[a].f <= s[b].f); return nil }, nil
	case ir.OpGt:
		return func(fr *frame) error { s := fr.s; s[d].i = b2i(s[a].f > s[b].f); return nil }, nil
	case ir.OpGe:
		return func(fr *frame) error { s := fr.s; s[d].i = b2i(s[a].f >= s[b].f); return nil }, nil
	}
	return nil, fmt.Errorf("unsupported float op %s", opName)
}

func boolOp(opName string, d, a, b int) (op, error) {
	switch opName {
	case ir.OpAnd:
		return func(fr *frame) error { s := fr.s; s[d].i = s[a].i & s[b].i; return nil }, nil
	case ir.OpOr:
		return func(fr *frame) error { s := fr.s; s[d].i = s[a].i | s[b].i; return nil }, nil
	case ir.OpXor, ir.OpNe:
		return func(fr *frame) error { s := fr.s; s[d].i = s[a].i ^ s[b].i; return nil }, nil
	case ir.OpEq:
		return func(fr *frame) error { s := fr.s; s[d].i = 1 ^ s[a].i ^ s[b].i; return nil }, nil
	}
	return nil, fmt.Errorf("unsupported bool op %s", opName)
}

// intOp compiles integer ops: compute in int64 (unsigned values are
// zero-extended, so division, remainder, min, max, right shifts and
// ordered compares switch to uint64 for unsigned kinds), then wrap into
// the result width. Division and remainder by zero yield 0; shift
// counts are masked to 0..63.
func intOp(opName string, t ir.Type, d, a, b int) (op, error) {
	w := widthOf(t.Kind)
	signed := t.IsSigned()
	// Flipping the top bit maps uint64 order onto int64 order, so min
	// and max compare x^bias for every kind.
	var bias int64
	if !signed {
		bias = math.MinInt64
	}
	switch opName {
	case ir.OpAdd:
		return func(fr *frame) error { s := fr.s; s[d].i = w.wrap(s[a].i + s[b].i); return nil }, nil
	case ir.OpSub:
		return func(fr *frame) error { s := fr.s; s[d].i = w.wrap(s[a].i - s[b].i); return nil }, nil
	case ir.OpMul:
		return func(fr *frame) error { s := fr.s; s[d].i = w.wrap(s[a].i * s[b].i); return nil }, nil
	case ir.OpDiv:
		if !signed {
			return func(fr *frame) error {
				s := fr.s
				var q int64
				if y := uint64(s[b].i); y != 0 {
					q = int64(uint64(s[a].i) / y)
				}
				s[d].i = w.wrap(q)
				return nil
			}, nil
		}
		return func(fr *frame) error {
			s := fr.s
			var q int64
			if y := s[b].i; y != 0 {
				q = s[a].i / y
			}
			s[d].i = w.wrap(q)
			return nil
		}, nil
	case ir.OpRem:
		if !signed {
			return func(fr *frame) error {
				s := fr.s
				var r int64
				if y := uint64(s[b].i); y != 0 {
					r = int64(uint64(s[a].i) % y)
				}
				s[d].i = w.wrap(r)
				return nil
			}, nil
		}
		return func(fr *frame) error {
			s := fr.s
			var r int64
			if y := s[b].i; y != 0 {
				r = s[a].i % y
			}
			s[d].i = w.wrap(r)
			return nil
		}, nil
	case ir.OpMin:
		return func(fr *frame) error {
			s := fr.s
			x, y := s[a].i, s[b].i
			if y^bias < x^bias {
				x = y
			}
			s[d].i = w.wrap(x)
			return nil
		}, nil
	case ir.OpMax:
		return func(fr *frame) error {
			s := fr.s
			x, y := s[a].i, s[b].i
			if y^bias > x^bias {
				x = y
			}
			s[d].i = w.wrap(x)
			return nil
		}, nil
	case ir.OpAnd:
		return func(fr *frame) error { s := fr.s; s[d].i = w.wrap(s[a].i & s[b].i); return nil }, nil
	case ir.OpOr:
		return func(fr *frame) error { s := fr.s; s[d].i = w.wrap(s[a].i | s[b].i); return nil }, nil
	case ir.OpXor:
		return func(fr *frame) error { s := fr.s; s[d].i = w.wrap(s[a].i ^ s[b].i); return nil }, nil
	case ir.OpShl:
		return func(fr *frame) error { s := fr.s; s[d].i = w.wrap(s[a].i << uint(s[b].i&63)); return nil }, nil
	case ir.OpShr:
		if !signed {
			return func(fr *frame) error {
				s := fr.s
				s[d].i = w.wrap(int64(uint64(s[a].i) >> uint(s[b].i&63)))
				return nil
			}, nil
		}
		return func(fr *frame) error { s := fr.s; s[d].i = w.wrap(s[a].i >> uint(s[b].i&63)); return nil }, nil
	case ir.OpEq:
		return func(fr *frame) error { s := fr.s; s[d].i = b2i(s[a].i == s[b].i); return nil }, nil
	case ir.OpNe:
		return func(fr *frame) error { s := fr.s; s[d].i = b2i(s[a].i != s[b].i); return nil }, nil
	}
	if isCmp(opName) {
		return orderedCmp(opName, signed, d, a, b), nil
	}
	return nil, fmt.Errorf("unsupported integer op %s", opName)
}

// orderedCmp compiles <, <=, >, >= over integer registers, unsigned
// kinds comparing as uint64.
func orderedCmp(opName string, signed bool, d, a, b int) op {
	if !signed {
		switch opName {
		case ir.OpLt:
			return func(fr *frame) error { s := fr.s; s[d].i = b2i(uint64(s[a].i) < uint64(s[b].i)); return nil }
		case ir.OpLe:
			return func(fr *frame) error { s := fr.s; s[d].i = b2i(uint64(s[a].i) <= uint64(s[b].i)); return nil }
		case ir.OpGt:
			return func(fr *frame) error { s := fr.s; s[d].i = b2i(uint64(s[a].i) > uint64(s[b].i)); return nil }
		default:
			return func(fr *frame) error { s := fr.s; s[d].i = b2i(uint64(s[a].i) >= uint64(s[b].i)); return nil }
		}
	}
	switch opName {
	case ir.OpLt:
		return func(fr *frame) error { s := fr.s; s[d].i = b2i(s[a].i < s[b].i); return nil }
	case ir.OpLe:
		return func(fr *frame) error { s := fr.s; s[d].i = b2i(s[a].i <= s[b].i); return nil }
	case ir.OpGt:
		return func(fr *frame) error { s := fr.s; s[d].i = b2i(s[a].i > s[b].i); return nil }
	default:
		return func(fr *frame) error { s := fr.s; s[d].i = b2i(s[a].i >= s[b].i); return nil }
	}
}

// convOp compiles a scalar conversion with the target type's semantics:
// floats round to the target precision, float→int truncates toward zero
// (NaN → 0) and wraps into the target width, anything → bool tests the
// integer value against zero.
func convOp(from ir.Kind, to ir.Type, d, a int) op {
	fromFloat := isFloatKind(from)
	switch {
	case to.Kind == ir.KindBool:
		if fromFloat {
			return func(fr *frame) error { s := fr.s; s[d].i = b2i(int64(s[a].f) != 0); return nil }
		}
		return func(fr *frame) error { s := fr.s; s[d].i = b2i(s[a].i != 0); return nil }
	case to.IsFloat():
		f32 := to.Kind == ir.KindF32
		switch {
		case fromFloat:
			return func(fr *frame) error { s := fr.s; s[d].f = round(f32, s[a].f); return nil }
		case isUnsignedKind(from):
			return func(fr *frame) error { s := fr.s; s[d].f = round(f32, float64(uint64(s[a].i))); return nil }
		default:
			return func(fr *frame) error { s := fr.s; s[d].f = round(f32, float64(s[a].i)); return nil }
		}
	default:
		w := widthOf(to.Kind)
		if fromFloat {
			return func(fr *frame) error {
				s := fr.s
				var raw int64
				if x := s[a].f; x == x { // NaN converts to 0
					raw = int64(x)
				}
				s[d].i = w.wrap(raw)
				return nil
			}
		}
		return func(fr *frame) error { s := fr.s; s[d].i = w.wrap(s[a].i); return nil }
	}
}
