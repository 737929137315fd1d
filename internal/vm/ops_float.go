package vm

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/ir"
)

// widthOf derives the register width in bits from an intrinsic's name
// prefix (every Intel intrinsic encodes it: _mm_ = 128, _mm256_ = 256,
// _mm512_ = 512; MMX helpers use 64).
func widthOf(name string) int {
	switch {
	case strings.HasPrefix(name, "_mm512_"):
		return 512
	case strings.HasPrefix(name, "_mm256_"):
		return 256
	case strings.HasPrefix(name, "_mm_"):
		return 128
	default:
		return 64
	}
}

// scalar (ss/sd) ops: lane 0 computed, upper lanes copied from a.
func regBinSS(name string, f func(x, y float32) float32) {
	register(name, func(m *Machine, args []Value, out *Value) error {
		vecCopy(out, &args[0].V).SetF32(0, f(args[0].V.F32(0), args[1].V.F32(0)))
		return nil
	})
}

func regBinSD(name string, f func(x, y float64) float64) {
	register(name, func(m *Machine, args []Value, out *Value) error {
		vecCopy(out, &args[0].V).SetF64(0, f(args[0].V.F64(0), args[1].V.F64(0)))
		return nil
	})
}

// mask32/mask64 build comparison results (all-ones on true).
func mask32(t bool) float32 {
	if t {
		return math.Float32frombits(0xFFFFFFFF)
	}
	return math.Float32frombits(0)
}

func mask64(t bool) float64 {
	if t {
		return math.Float64frombits(0xFFFFFFFFFFFFFFFF)
	}
	return math.Float64frombits(0)
}

func regCmpF32(name string, f func(x, y float32) bool) {
	regLanes(name, mapF32, func(x, y float32) float32 { return mask32(f(x, y)) })
}

func regCmpF64(name string, f func(x, y float64) bool) {
	regLanes(name, mapF64, func(x, y float64) float64 { return mask64(f(x, y)) })
}

// fAdd/fSub etc. — shared float kernels.
func fAdd32(x, y float32) float32 { return x + y }
func fSub32(x, y float32) float32 { return x - y }
func fMul32(x, y float32) float32 { return x * y }
func fDiv32(x, y float32) float32 { return x / y }
func fMin32(x, y float32) float32 {
	if y < x {
		return y
	}
	return x
}
func fMax32(x, y float32) float32 {
	if y > x {
		return y
	}
	return x
}
func fAdd64(x, y float64) float64 { return x + y }
func fSub64(x, y float64) float64 { return x - y }
func fMul64(x, y float64) float64 { return x * y }
func fDiv64(x, y float64) float64 { return x / y }
func fMin64(x, y float64) float64 {
	if y < x {
		return y
	}
	return x
}
func fMax64(x, y float64) float64 {
	if y > x {
		return y
	}
	return x
}

func bAnd(x, y byte) byte    { return x & y }
func bOr(x, y byte) byte     { return x | y }
func bXor(x, y byte) byte    { return x ^ y }
func bAndNot(x, y byte) byte { return ^x & y } // x is NOT'd, per Intel

func init() {
	// ---- packed float arithmetic (SSE/SSE2/AVX/AVX-512) ----------------
	for _, pfx := range []string{"_mm_", "_mm256_", "_mm512_"} {
		regLanes(pfx+"add_ps", mapF32, fAdd32)
		regLanes(pfx+"sub_ps", mapF32, fSub32)
		regLanes(pfx+"mul_ps", mapF32, fMul32)
		regLanes(pfx+"div_ps", mapF32, fDiv32)
		regLanes(pfx+"min_ps", mapF32, fMin32)
		regLanes(pfx+"max_ps", mapF32, fMax32)
		regLanes(pfx+"add_pd", mapF64, fAdd64)
		regLanes(pfx+"sub_pd", mapF64, fSub64)
		regLanes(pfx+"mul_pd", mapF64, fMul64)
		regLanes(pfx+"div_pd", mapF64, fDiv64)
		regLanes(pfx+"min_pd", mapF64, fMin64)
		regLanes(pfx+"max_pd", mapF64, fMax64)
		regLanes(pfx+"sqrt_ps", map1F32, func(x float32) float32 { return float32(math.Sqrt(float64(x))) })
		regLanes(pfx+"sqrt_pd", map1F64, math.Sqrt)
	}
	regBinSS("_mm_add_ss", fAdd32)
	regBinSS("_mm_sub_ss", fSub32)
	regBinSS("_mm_mul_ss", fMul32)
	regBinSS("_mm_div_ss", fDiv32)
	regBinSS("_mm_min_ss", fMin32)
	regBinSS("_mm_max_ss", fMax32)
	regBinSD("_mm_add_sd", fAdd64)
	regBinSD("_mm_sub_sd", fSub64)
	regBinSD("_mm_mul_sd", fMul64)
	regBinSD("_mm_div_sd", fDiv64)
	regBinSD("_mm_min_sd", fMin64)
	regBinSD("_mm_max_sd", fMax64)

	// Approximate reciprocal ops (full precision here; the hardware's
	// 12-bit approximation is below the resolution this study needs).
	regLanes("_mm_rcp_ps", map1F32, func(x float32) float32 { return 1 / x })
	regLanes("_mm256_rcp_ps", map1F32, func(x float32) float32 { return 1 / x })
	regLanes("_mm_rsqrt_ps", map1F32, func(x float32) float32 { return float32(1 / math.Sqrt(float64(x))) })
	regLanes("_mm256_rsqrt_ps", map1F32, func(x float32) float32 { return float32(1 / math.Sqrt(float64(x))) })

	// ---- logical on float registers -------------------------------------
	for _, pfx := range []string{"_mm_", "_mm256_"} {
		for _, sfx := range []string{"_ps", "_pd"} {
			regLanes(pfx+"and"+sfx, bitwise, bAnd)
			regLanes(pfx+"or"+sfx, bitwise, bOr)
			regLanes(pfx+"xor"+sfx, bitwise, bXor)
			regLanes(pfx+"andnot"+sfx, bitwise, bAndNot)
		}
	}

	// ---- comparisons ------------------------------------------------------
	for _, pfx := range []string{"_mm_"} {
		regCmpF32(pfx+"cmpeq_ps", func(x, y float32) bool { return x == y })
		regCmpF32(pfx+"cmplt_ps", func(x, y float32) bool { return x < y })
		regCmpF32(pfx+"cmple_ps", func(x, y float32) bool { return x <= y })
		regCmpF32(pfx+"cmpgt_ps", func(x, y float32) bool { return x > y })
		regCmpF32(pfx+"cmpge_ps", func(x, y float32) bool { return x >= y })
		regCmpF32(pfx+"cmpneq_ps", func(x, y float32) bool { return x != y })
		regCmpF64(pfx+"cmpeq_pd", func(x, y float64) bool { return x == y })
		regCmpF64(pfx+"cmplt_pd", func(x, y float64) bool { return x < y })
		regCmpF64(pfx+"cmple_pd", func(x, y float64) bool { return x <= y })
		regCmpF64(pfx+"cmpgt_pd", func(x, y float64) bool { return x > y })
		regCmpF64(pfx+"cmpge_pd", func(x, y float64) bool { return x >= y })
		regCmpF64(pfx+"cmpneq_pd", func(x, y float64) bool { return x != y })
	}
	// AVX's predicate-parameter compare: _mm256_cmp_ps/pd(a, b, imm8).
	register("_mm256_cmp_ps", func(m *Machine, args []Value, out *Value) error {
		pred, err := cmpPredicate(argInt(args, 2))
		if err != nil {
			return err
		}
		mapF32(256, args, out, func(x, y float32) float32 { return mask32(pred(float64(x), float64(y))) })
		return nil
	})
	register("_mm256_cmp_pd", func(m *Machine, args []Value, out *Value) error {
		pred, err := cmpPredicate(argInt(args, 2))
		if err != nil {
			return err
		}
		mapF64(256, args, out, func(x, y float64) float64 { return mask64(pred(x, y)) })
		return nil
	})

	// ---- horizontal and alternating arithmetic ---------------------------
	registerHaddFamily()

	// ---- FMA family (all 32 of Table 1b's FMA entries) --------------------
	registerFMAFamily()

	// ---- rounding -----------------------------------------------------------
	registerRounding()

	// ---- conversions ---------------------------------------------------------
	registerFloatConversions()

	// ---- SVML (short vector math library) -------------------------------------
	registerSVML()
}

// cmpPredicate decodes the low 3 bits of AVX compare immediates (the
// ordered/unordered and signalling variants collapse onto these for the
// simulator's purposes).
func cmpPredicate(imm int) (func(x, y float64) bool, error) {
	switch imm & 0x7 {
	case 0:
		return func(x, y float64) bool { return x == y }, nil
	case 1:
		return func(x, y float64) bool { return x < y }, nil
	case 2:
		return func(x, y float64) bool { return x <= y }, nil
	case 3:
		return func(x, y float64) bool { return math.IsNaN(x) || math.IsNaN(y) }, nil
	case 4:
		return func(x, y float64) bool { return x != y }, nil
	case 5:
		return func(x, y float64) bool { return !(x < y) }, nil
	case 6:
		return func(x, y float64) bool { return !(x <= y) }, nil
	case 7:
		return func(x, y float64) bool { return !math.IsNaN(x) && !math.IsNaN(y) }, nil
	}
	return nil, fmt.Errorf("vm: bad compare predicate %d", imm)
}

// registerHaddFamily installs hadd/hsub/addsub for ps/pd at 128 and 256
// bits. AVX horizontal ops work within each 128-bit lane independently.
func registerHaddFamily() {
	// The pair arithmetic stays inline: when both operands are NaN, which
	// payload survives depends on the instruction the compiler picks, and
	// the inline form is the one the native backend matches.
	haddPS := func(bits int) func(m *Machine, args []Value, out *Value) error {
		return func(m *Machine, args []Value, out *Value) error {
			a, b, v := &args[0].V, &args[1].V, vecOut(out)
			for lane := 0; lane < bits/128; lane++ {
				o := lane * 4
				v.SetF32(o+0, a.F32(o+0)+a.F32(o+1))
				v.SetF32(o+1, a.F32(o+2)+a.F32(o+3))
				v.SetF32(o+2, b.F32(o+0)+b.F32(o+1))
				v.SetF32(o+3, b.F32(o+2)+b.F32(o+3))
			}
			return nil
		}
	}
	hsubPS := func(bits int) func(m *Machine, args []Value, out *Value) error {
		return func(m *Machine, args []Value, out *Value) error {
			a, b, v := &args[0].V, &args[1].V, vecOut(out)
			for lane := 0; lane < bits/128; lane++ {
				o := lane * 4
				v.SetF32(o+0, a.F32(o+0)-a.F32(o+1))
				v.SetF32(o+1, a.F32(o+2)-a.F32(o+3))
				v.SetF32(o+2, b.F32(o+0)-b.F32(o+1))
				v.SetF32(o+3, b.F32(o+2)-b.F32(o+3))
			}
			return nil
		}
	}
	haddPD := func(bits int) func(m *Machine, args []Value, out *Value) error {
		return func(m *Machine, args []Value, out *Value) error {
			a, b, v := &args[0].V, &args[1].V, vecOut(out)
			for lane := 0; lane < bits/128; lane++ {
				o := lane * 2
				v.SetF64(o+0, a.F64(o+0)+a.F64(o+1))
				v.SetF64(o+1, b.F64(o+0)+b.F64(o+1))
			}
			return nil
		}
	}
	hsubPD := func(bits int) func(m *Machine, args []Value, out *Value) error {
		return func(m *Machine, args []Value, out *Value) error {
			a, b, v := &args[0].V, &args[1].V, vecOut(out)
			for lane := 0; lane < bits/128; lane++ {
				o := lane * 2
				v.SetF64(o+0, a.F64(o+0)-a.F64(o+1))
				v.SetF64(o+1, b.F64(o+0)-b.F64(o+1))
			}
			return nil
		}
	}
	register("_mm_hadd_ps", haddPS(128))
	register("_mm256_hadd_ps", haddPS(256))
	register("_mm_hsub_ps", hsubPS(128))
	register("_mm256_hsub_ps", hsubPS(256))
	register("_mm_hadd_pd", haddPD(128))
	register("_mm256_hadd_pd", haddPD(256))
	register("_mm_hsub_pd", hsubPD(128))
	register("_mm256_hsub_pd", hsubPD(256))

	addsubPS := func(bits int) func(m *Machine, args []Value, out *Value) error {
		return func(m *Machine, args []Value, out *Value) error {
			a, b, v := &args[0].V, &args[1].V, vecOut(out)
			for i := 0; i < bits/32; i++ {
				if i%2 == 0 {
					v.SetF32(i, a.F32(i)-b.F32(i))
				} else {
					v.SetF32(i, a.F32(i)+b.F32(i))
				}
			}
			return nil
		}
	}
	addsubPD := func(bits int) func(m *Machine, args []Value, out *Value) error {
		return func(m *Machine, args []Value, out *Value) error {
			a, b, v := &args[0].V, &args[1].V, vecOut(out)
			for i := 0; i < bits/64; i++ {
				if i%2 == 0 {
					v.SetF64(i, a.F64(i)-b.F64(i))
				} else {
					v.SetF64(i, a.F64(i)+b.F64(i))
				}
			}
			return nil
		}
	}
	register("_mm_addsub_ps", addsubPS(128))
	register("_mm256_addsub_ps", addsubPS(256))
	register("_mm_addsub_pd", addsubPD(128))
	register("_mm256_addsub_pd", addsubPD(256))
}

// fma32/fma64 evaluate ±a·b ± c fused; math.FMA gives the exact fused
// semantics. negAB negates a (hence the product), negC negates c.
func fma32(a, b, c float32, negAB, negC bool) float32 {
	if negAB {
		a = -a
	}
	if negC {
		c = -c
	}
	return float32(math.FMA(float64(a), float64(b), float64(c)))
}

func fma64(a, b, c float64, negAB, negC bool) float64 {
	if negAB {
		a = -a
	}
	if negC {
		c = -c
	}
	return math.FMA(a, b, c)
}

// registerFMAFamily installs the 24 packed and 8 scalar FMA intrinsics,
// the 8 alternating fmaddsub/fmsubadd forms and the AVX-512 fmadd. Every
// variant is a sign pattern on a·b+c — the product's sign, and c's sign
// on even and odd lanes — so one packed body per element type serves
// them all, with the lane arithmetic inline.
func registerFMAFamily() {
	type variant struct {
		name                   string
		negAB, negEven, negOdd bool
	}
	for _, v := range []variant{
		{"fmadd", false, false, false},
		{"fmsub", false, true, true},
		{"fnmadd", true, false, false},
		{"fnmsub", true, true, true},
		{"fmaddsub", false, true, false},
		{"fmsubadd", false, false, true},
	} {
		v := v
		for _, pfx := range []string{"_mm_", "_mm256_", "_mm512_"} {
			if pfx == "_mm512_" && v.name != "fmadd" {
				continue
			}
			bits := widthOf(pfx + "x")
			register(pfx+v.name+"_ps", func(m *Machine, args []Value, out *Value) error {
				a, b, c, o := &args[0].V, &args[1].V, &args[2].V, vecOut(out)
				for i := 0; i < bits/32; i += 2 {
					o.SetF32(i, fma32(a.F32(i), b.F32(i), c.F32(i), v.negAB, v.negEven))
					o.SetF32(i+1, fma32(a.F32(i+1), b.F32(i+1), c.F32(i+1), v.negAB, v.negOdd))
				}
				return nil
			})
			register(pfx+v.name+"_pd", func(m *Machine, args []Value, out *Value) error {
				a, b, c, o := &args[0].V, &args[1].V, &args[2].V, vecOut(out)
				for i := 0; i < bits/64; i += 2 {
					o.SetF64(i, fma64(a.F64(i), b.F64(i), c.F64(i), v.negAB, v.negEven))
					o.SetF64(i+1, fma64(a.F64(i+1), b.F64(i+1), c.F64(i+1), v.negAB, v.negOdd))
				}
				return nil
			})
		}
		if v.negEven != v.negOdd {
			continue // the alternating forms have no scalar variant
		}
		register("_mm_"+v.name+"_ss", func(m *Machine, args []Value, out *Value) error {
			a, b, c := &args[0].V, &args[1].V, &args[2].V
			vecCopy(out, a).SetF32(0, fma32(a.F32(0), b.F32(0), c.F32(0), v.negAB, v.negEven))
			return nil
		})
		register("_mm_"+v.name+"_sd", func(m *Machine, args []Value, out *Value) error {
			a, b, c := &args[0].V, &args[1].V, &args[2].V
			vecCopy(out, a).SetF64(0, fma64(a.F64(0), b.F64(0), c.F64(0), v.negAB, v.negEven))
			return nil
		})
	}
}

func registerRounding() {
	roundMode := func(mode int) func(float64) float64 {
		switch mode & 0x3 {
		case 0:
			return math.RoundToEven
		case 1:
			return math.Floor
		case 2:
			return math.Ceil
		default:
			return math.Trunc
		}
	}
	for _, pfx := range []string{"_mm_", "_mm256_"} {
		bits := widthOf(pfx + "x")
		register(pfx+"round_ps", func(m *Machine, args []Value, out *Value) error {
			f := roundMode(argInt(args, 1))
			map1F32(bits, args, out, func(x float32) float32 { return float32(f(float64(x))) })
			return nil
		})
		register(pfx+"round_pd", func(m *Machine, args []Value, out *Value) error {
			map1F64(bits, args, out, roundMode(argInt(args, 1)))
			return nil
		})
		regLanes(pfx+"floor_ps", map1F32, func(x float32) float32 { return float32(math.Floor(float64(x))) })
		regLanes(pfx+"floor_pd", map1F64, math.Floor)
		regLanes(pfx+"ceil_ps", map1F32, func(x float32) float32 { return float32(math.Ceil(float64(x))) })
		regLanes(pfx+"ceil_pd", map1F64, math.Ceil)
	}
}

// regConvert registers a lane conversion: n result lanes, each written
// by set from lane i of the first operand.
func regConvert(name string, n int, set func(v, a *Vec, i int)) {
	register(name, func(m *Machine, args []Value, out *Value) error {
		a, v := &args[0].V, vecOut(out)
		for i := 0; i < n; i++ {
			set(v, a, i)
		}
		return nil
	})
}

func registerFloatConversions() {
	// int32 ↔ float32, packed.
	for _, pfx := range []string{"_mm_", "_mm256_"} {
		n := widthOf(pfx+"x") / 32
		regConvert(pfx+"cvtepi32_ps", n, func(v, a *Vec, i int) { v.SetF32(i, float32(a.I32(i))) })
		regConvert(pfx+"cvtps_epi32", n, func(v, a *Vec, i int) {
			v.SetI32(i, int32(math.RoundToEven(float64(a.F32(i)))))
		})
		regConvert(pfx+"cvttps_epi32", n, func(v, a *Vec, i int) { v.SetI32(i, int32(a.F32(i))) })
	}
	regConvert("_mm_cvtepi32_pd", 2, func(v, a *Vec, i int) { v.SetF64(i, float64(a.I32(i))) })
	// float32 ↔ float64.
	psToPD := func(v, a *Vec, i int) { v.SetF64(i, float64(a.F32(i))) }
	pdToPS := func(v, a *Vec, i int) { v.SetF32(i, float32(a.F64(i))) }
	regConvert("_mm_cvtps_pd", 2, psToPD)
	regConvert("_mm_cvtpd_ps", 2, pdToPS)
	regConvert("_mm256_cvtps_pd", 4, psToPD)
	regConvert("_mm256_cvtpd_ps", 4, pdToPS)
	// Scalar extraction.
	register("_mm_cvtss_f32", func(m *Machine, args []Value, out *Value) error {
		return scalar(out, F32Value(args[0].V.F32(0)))
	})
	register("_mm_cvtsd_f64", func(m *Machine, args []Value, out *Value) error {
		return scalar(out, F64Value(args[0].V.F64(0)))
	})
	register("_mm_cvtsi128_si32", func(m *Machine, args []Value, out *Value) error {
		return scalar(out, IntValue(int(args[0].V.I32(0))))
	})
	register("_mm_cvtsi128_si64", func(m *Machine, args []Value, out *Value) error {
		return scalar(out, Value{Kind: ir.KindI64, I: args[0].V.I64(0)})
	})
	register("_mm_cvtsi32_si128", func(m *Machine, args []Value, out *Value) error {
		vecOut(out).SetI32(0, int32(args[0].AsInt()))
		return nil
	})
	register("_mm_cvtsi64_si128", func(m *Machine, args []Value, out *Value) error {
		vecOut(out).SetI64(0, args[0].AsInt())
		return nil
	})
	register("_mm_cvtsi64_si32", func(m *Machine, args []Value, out *Value) error {
		return scalar(out, IntValue(int(args[0].V.I32(0))))
	})
	register("_mm_cvtsi32_si64", func(m *Machine, args []Value, out *Value) error {
		vecOut(out).SetI32(0, int32(args[0].AsInt()))
		return nil
	})

	// FP16C: half-precision packed conversion.
	phToPS := func(v, a *Vec, i int) { v.SetF32(i, F32FromF16(a.U16(i))) }
	psToPH := func(v, a *Vec, i int) { v.SetU16(i, F16FromF32(a.F32(i))) }
	regConvert("_mm_cvtph_ps", 4, phToPS)
	regConvert("_mm256_cvtph_ps", 8, phToPS)
	regConvert("_mm_cvtps_ph", 4, psToPH)
	regConvert("_mm256_cvtps_ph", 8, psToPH)

	// Casts are free reinterpretations.
	for _, name := range []string{
		"_mm_castpd_ps", "_mm_castps_pd", "_mm_castps_si128", "_mm_castsi128_ps",
		"_mm256_castps_pd", "_mm256_castpd_ps", "_mm256_castps_si256",
		"_mm256_castsi256_ps", "_mm256_castps256_ps128", "_mm256_castpd256_pd128",
		"_mm256_castsi256_si128",
	} {
		register(name, func(m *Machine, args []Value, out *Value) error {
			vecCopy(out, &args[0].V)
			return nil
		})
	}
	// Widening casts zero the upper half (the Intel docs say undefined;
	// zeroing is the common hardware behaviour).
	for _, name := range []string{"_mm256_castps128_ps256", "_mm256_castpd128_pd256", "_mm256_castsi128_si256"} {
		register(name, func(m *Machine, args []Value, out *Value) error {
			copy(vecOut(out).b[:16], args[0].V.b[:16])
			return nil
		})
	}
}

func registerSVML() {
	un32 := func(f func(float64) float64) func(x float32) float32 {
		return func(x float32) float32 { return float32(f(float64(x))) }
	}
	cdfnorm := func(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }
	pow2o3 := func(x float64) float64 { return math.Cbrt(x * x) }
	invsqrt := func(x float64) float64 { return 1 / math.Sqrt(x) }
	for _, pfx := range []string{"_mm_", "_mm256_"} {
		for _, fn := range []struct {
			name string
			f    func(float64) float64
		}{
			{"sin", math.Sin}, {"cos", math.Cos}, {"exp", math.Exp}, {"log", math.Log},
			{"pow2o3", pow2o3}, {"cdfnorm", cdfnorm}, {"svml_sqrt", math.Sqrt},
			{"invsqrt", invsqrt},
		} {
			regLanes(pfx+fn.name+"_ps", map1F32, un32(fn.f))
			regLanes(pfx+fn.name+"_pd", map1F64, fn.f)
		}
		// Integer division by zero yields 0 rather than trapping.
		regLanes(pfx+"div_epi32", mapI32, func(x, y int32) int32 {
			if y == 0 {
				return 0
			}
			return x / y
		})
		regLanes(pfx+"rem_epi32", mapI32, func(x, y int32) int32 {
			if y == 0 {
				return 0
			}
			return x % y
		})
	}
}
