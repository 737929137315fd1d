package vm

// Integer SIMD semantics: the SSE2/SSSE3/SSE4.1/AVX2 integer families,
// including the madd/maddubs/sign/abs chain the low-precision dot
// products build on (Section 4.1 of the paper).

// regShiftImm registers a shift-by-immediate on `lanes`-bit elements.
func regShiftImm(name string, elemBits int, f func(x int64, sh uint) int64) {
	bits := widthOf(name)
	register(name, func(m *Machine, args []Value, out *Value) error {
		sh := uint(argInt(args, 1))
		a := &args[0].V
		v := vecOut(out)
		n := bits / elemBits
		for i := 0; i < n; i++ {
			var x int64
			switch elemBits {
			case 16:
				x = int64(a.I16(i))
			case 32:
				x = int64(a.I32(i))
			default:
				x = a.I64(i)
			}
			r := f(x, sh)
			switch elemBits {
			case 16:
				v.SetI16(i, int16(r))
			case 32:
				v.SetI32(i, int32(r))
			default:
				v.SetI64(i, r)
			}
		}
		return nil
	})
}

func maskI8(t bool) int8 {
	if t {
		return -1
	}
	return 0
}
func maskI16(t bool) int16 {
	if t {
		return -1
	}
	return 0
}
func maskI32(t bool) int32 {
	if t {
		return -1
	}
	return 0
}
func maskI64(t bool) int64 {
	if t {
		return -1
	}
	return 0
}

func init() {
	// ---- add/sub at every element width, 64/128/256 bits ----------------
	for _, pfx := range []string{"_mm_", "_mm256_", "_mm512_"} {
		if pfx == "_mm512_" {
			regLanes(pfx+"add_epi32", mapI32, func(x, y int32) int32 { return x + y })
			regLanes(pfx+"sub_epi32", mapI32, func(x, y int32) int32 { return x - y })
			continue
		}
		regLanes(pfx+"add_epi8", mapI8, func(x, y int8) int8 { return x + y })
		regLanes(pfx+"sub_epi8", mapI8, func(x, y int8) int8 { return x - y })
		regLanes(pfx+"add_epi16", mapI16, func(x, y int16) int16 { return x + y })
		regLanes(pfx+"sub_epi16", mapI16, func(x, y int16) int16 { return x - y })
		regLanes(pfx+"add_epi32", mapI32, func(x, y int32) int32 { return x + y })
		regLanes(pfx+"sub_epi32", mapI32, func(x, y int32) int32 { return x - y })
		regLanes(pfx+"add_epi64", mapI64, func(x, y int64) int64 { return x + y })
		regLanes(pfx+"sub_epi64", mapI64, func(x, y int64) int64 { return x - y })

		// Saturating arithmetic.
		regLanes(pfx+"adds_epi8", mapI8, func(x, y int8) int8 { return satI8(int(x) + int(y)) })
		regLanes(pfx+"subs_epi8", mapI8, func(x, y int8) int8 { return satI8(int(x) - int(y)) })
		regLanes(pfx+"adds_epi16", mapI16, func(x, y int16) int16 { return satI16(int(x) + int(y)) })
		regLanes(pfx+"subs_epi16", mapI16, func(x, y int16) int16 { return satI16(int(x) - int(y)) })
		regLanes(pfx+"adds_epu8", mapU8, func(x, y uint8) uint8 { return satU8(int(x) + int(y)) })
		regLanes(pfx+"subs_epu8", mapU8, func(x, y uint8) uint8 { return satU8(int(x) - int(y)) })
		regLanes(pfx+"adds_epu16", mapU16, func(x, y uint16) uint16 { return satU16(int(x) + int(y)) })
		regLanes(pfx+"subs_epu16", mapU16, func(x, y uint16) uint16 { return satU16(int(x) - int(y)) })

		// Comparisons.
		regLanes(pfx+"cmpeq_epi8", mapI8, func(x, y int8) int8 { return maskI8(x == y) })
		regLanes(pfx+"cmpgt_epi8", mapI8, func(x, y int8) int8 { return maskI8(x > y) })
		regLanes(pfx+"cmpeq_epi16", mapI16, func(x, y int16) int16 { return maskI16(x == y) })
		regLanes(pfx+"cmpgt_epi16", mapI16, func(x, y int16) int16 { return maskI16(x > y) })
		regLanes(pfx+"cmpeq_epi32", mapI32, func(x, y int32) int32 { return maskI32(x == y) })
		regLanes(pfx+"cmpgt_epi32", mapI32, func(x, y int32) int32 { return maskI32(x > y) })
		regLanes(pfx+"cmpeq_epi64", mapI64, func(x, y int64) int64 { return maskI64(x == y) })
		regLanes(pfx+"cmpgt_epi64", mapI64, func(x, y int64) int64 { return maskI64(x > y) })

		// Multiplies.
		regLanes(pfx+"mullo_epi16", mapI16, func(x, y int16) int16 { return int16(int32(x) * int32(y)) })
		regLanes(pfx+"mulhi_epi16", mapI16, func(x, y int16) int16 { return int16(int32(x) * int32(y) >> 16) })
		regLanes(pfx+"mulhi_epu16", mapU16, func(x, y uint16) uint16 { return uint16(uint32(x) * uint32(y) >> 16) })
		regLanes(pfx+"mullo_epi32", mapI32, func(x, y int32) int32 { return int32(int64(x) * int64(y)) })
		regLanes(pfx+"mulhrs_epi16", mapI16, func(x, y int16) int16 {
			return int16((int32(x)*int32(y)>>14 + 1) >> 1)
		})

		// Min/max.
		regLanes(pfx+"max_epi8", mapI8, func(x, y int8) int8 {
			if x > y {
				return x
			}
			return y
		})
		regLanes(pfx+"min_epi8", mapI8, func(x, y int8) int8 {
			if x < y {
				return x
			}
			return y
		})
		regLanes(pfx+"max_epu8", mapU8, func(x, y uint8) uint8 {
			if x > y {
				return x
			}
			return y
		})
		regLanes(pfx+"min_epu8", mapU8, func(x, y uint8) uint8 {
			if x < y {
				return x
			}
			return y
		})
		regLanes(pfx+"max_epi16", mapI16, func(x, y int16) int16 {
			if x > y {
				return x
			}
			return y
		})
		regLanes(pfx+"min_epi16", mapI16, func(x, y int16) int16 {
			if x < y {
				return x
			}
			return y
		})
		regLanes(pfx+"max_epu16", mapU16, func(x, y uint16) uint16 {
			if x > y {
				return x
			}
			return y
		})
		regLanes(pfx+"min_epu16", mapU16, func(x, y uint16) uint16 {
			if x < y {
				return x
			}
			return y
		})
		regLanes(pfx+"max_epi32", mapI32, func(x, y int32) int32 {
			if x > y {
				return x
			}
			return y
		})
		regLanes(pfx+"min_epi32", mapI32, func(x, y int32) int32 {
			if x < y {
				return x
			}
			return y
		})
		regLanes(pfx+"max_epu32", mapU32, func(x, y uint32) uint32 {
			if x > y {
				return x
			}
			return y
		})
		regLanes(pfx+"min_epu32", mapU32, func(x, y uint32) uint32 {
			if x < y {
				return x
			}
			return y
		})

		// Averages (rounded).
		regLanes(pfx+"avg_epu8", mapU8, func(x, y uint8) uint8 { return uint8((int(x) + int(y) + 1) >> 1) })
		regLanes(pfx+"avg_epu16", mapU16, func(x, y uint16) uint16 { return uint16((int(x) + int(y) + 1) >> 1) })

		// Shifts by immediate.
		regShiftImm(pfx+"slli_epi16", 16, func(x int64, sh uint) int64 {
			if sh > 15 {
				return 0
			}
			return int64(uint16(x) << sh)
		})
		regShiftImm(pfx+"srli_epi16", 16, func(x int64, sh uint) int64 {
			if sh > 15 {
				return 0
			}
			return int64(uint16(x) >> sh)
		})
		regShiftImm(pfx+"srai_epi16", 16, func(x int64, sh uint) int64 {
			if sh > 15 {
				sh = 15
			}
			return int64(int16(x) >> sh)
		})
		regShiftImm(pfx+"slli_epi32", 32, func(x int64, sh uint) int64 {
			if sh > 31 {
				return 0
			}
			return int64(uint32(x) << sh)
		})
		regShiftImm(pfx+"srli_epi32", 32, func(x int64, sh uint) int64 {
			if sh > 31 {
				return 0
			}
			return int64(uint32(x) >> sh)
		})
		regShiftImm(pfx+"srai_epi32", 32, func(x int64, sh uint) int64 {
			if sh > 31 {
				sh = 31
			}
			return int64(int32(x) >> sh)
		})
		regShiftImm(pfx+"slli_epi64", 64, func(x int64, sh uint) int64 {
			if sh > 63 {
				return 0
			}
			return int64(uint64(x) << sh)
		})
		regShiftImm(pfx+"srli_epi64", 64, func(x int64, sh uint) int64 {
			if sh > 63 {
				return 0
			}
			return int64(uint64(x) >> sh)
		})

		// madd: pairs of 16-bit products summed into 32-bit lanes.
		bits := widthOf(pfx + "x")
		register(pfx+"madd_epi16", maddEpi16(bits))
		register(pfx+"maddubs_epi16", maddubsEpi16(bits))
		register(pfx+"sad_epu8", sadEpu8(bits))

		// SSSE3/AVX2 sign and abs.
		regLanes(pfx+"sign_epi8", mapI8, signOp8)
		regLanes(pfx+"sign_epi16", mapI16, signOp16)
		regLanes(pfx+"sign_epi32", mapI32, signOp32)
		register(pfx+"abs_epi8", absOp(bits, 8))
		register(pfx+"abs_epi16", absOp(bits, 16))
		register(pfx+"abs_epi32", absOp(bits, 32))

		// mul_epi32 / mul_epu32: even 32-bit lanes to 64-bit products.
		register(pfx+"mul_epi32", func(m *Machine, args []Value, out *Value) error {
			a, b := &args[0].V, &args[1].V
			v := vecOut(out)
			for i := 0; i < bits/64; i++ {
				v.SetI64(i, int64(a.I32(2*i))*int64(b.I32(2*i)))
			}
			return nil
		})
		register(pfx+"mul_epu32", func(m *Machine, args []Value, out *Value) error {
			a, b := &args[0].V, &args[1].V
			v := vecOut(out)
			for i := 0; i < bits/64; i++ {
				v.SetU64(i, uint64(a.U32(2*i))*uint64(b.U32(2*i)))
			}
			return nil
		})

		// Horizontal integer add/sub (within 128-bit lanes).
		register(pfx+"hadd_epi16", hAddI16(bits, false))
		register(pfx+"hsub_epi16", hAddI16(bits, true))
		register(pfx+"hadd_epi32", hAddI32(bits, false))
		register(pfx+"hsub_epi32", hAddI32(bits, true))
	}
	register("_mm_hadds_epi16", func(m *Machine, args []Value, out *Value) error {
		a, b := &args[0].V, &args[1].V
		v := vecOut(out)
		for i := 0; i < 4; i++ {
			v.SetI16(i, satI16(int(a.I16(2*i))+int(a.I16(2*i+1))))
			v.SetI16(i+4, satI16(int(b.I16(2*i))+int(b.I16(2*i+1))))
		}
		return nil
	})

	// ---- logical on integer registers -------------------------------------
	regLanes("_mm_and_si128", bitwise, bAnd)
	regLanes("_mm_or_si128", bitwise, bOr)
	regLanes("_mm_xor_si128", bitwise, bXor)
	regLanes("_mm_andnot_si128", bitwise, bAndNot)
	regLanes("_mm256_and_si256", bitwise, bAnd)
	regLanes("_mm256_or_si256", bitwise, bOr)
	regLanes("_mm256_xor_si256", bitwise, bXor)
	regLanes("_mm256_andnot_si256", bitwise, bAndNot)
	regLanes("_mm512_and_si512", bitwise, bAnd)
	regLanes("_mm512_or_si512", bitwise, bOr)
	regLanes("_mm_and_si64", bitwise, bAnd)
	regLanes("_mm_or_si64", bitwise, bOr)
	regLanes("_mm_xor_si64", bitwise, bXor)
	regLanes("_mm_andnot_si64", bitwise, bAndNot)

	// ---- MMX subset ---------------------------------------------------------
	regLanes("_mm_add_pi8", mapI8, func(x, y int8) int8 { return x + y })
	regLanes("_mm_sub_pi8", mapI8, func(x, y int8) int8 { return x - y })
	regLanes("_mm_add_pi16", mapI16, func(x, y int16) int16 { return x + y })
	regLanes("_mm_sub_pi16", mapI16, func(x, y int16) int16 { return x - y })
	regLanes("_mm_add_pi32", mapI32, func(x, y int32) int32 { return x + y })
	regLanes("_mm_sub_pi32", mapI32, func(x, y int32) int32 { return x - y })
	regLanes("_mm_cmpeq_pi8", mapI8, func(x, y int8) int8 { return maskI8(x == y) })
	regLanes("_mm_cmpgt_pi8", mapI8, func(x, y int8) int8 { return maskI8(x > y) })
	regLanes("_mm_cmpeq_pi16", mapI16, func(x, y int16) int16 { return maskI16(x == y) })
	regLanes("_mm_cmpgt_pi16", mapI16, func(x, y int16) int16 { return maskI16(x > y) })
	regLanes("_mm_cmpeq_pi32", mapI32, func(x, y int32) int32 { return maskI32(x == y) })
	regLanes("_mm_cmpgt_pi32", mapI32, func(x, y int32) int32 { return maskI32(x > y) })
	regLanes("_mm_mullo_pi16", mapI16, func(x, y int16) int16 { return int16(int32(x) * int32(y)) })
	regLanes("_mm_avg_pu8", mapU8, func(x, y uint8) uint8 { return uint8((int(x) + int(y) + 1) >> 1) })
	regLanes("_mm_avg_pu16", mapU16, func(x, y uint16) uint16 { return uint16((int(x) + int(y) + 1) >> 1) })
	regLanes("_mm_cmplt_epi8", mapI8, func(x, y int8) int8 { return maskI8(x < y) })
	regLanes("_mm_cmplt_epi16", mapI16, func(x, y int16) int16 { return maskI16(x < y) })
	regLanes("_mm_cmplt_epi32", mapI32, func(x, y int32) int32 { return maskI32(x < y) })
	register("_mm_madd_pi16", maddEpi16(64))
	register("_mm_empty", func(m *Machine, args []Value, out *Value) error { return nil })

	// SSE2/AVX2 movemask.
	register("_mm_movemask_epi8", movemask8(128))
	register("_mm256_movemask_epi8", movemask8(256))
	register("_mm_movemask_ps", movemaskF32(128))
	register("_mm256_movemask_ps", movemaskF32(256))
	register("_mm_movemask_pd", movemaskF64(128))
	register("_mm256_movemask_pd", movemaskF64(256))

	// testz: ZF = ((a & b) == 0).
	testz := func(bits int) func(m *Machine, args []Value, out *Value) error {
		return func(m *Machine, args []Value, out *Value) error {
			a, b := &args[0].V, &args[1].V
			for i := 0; i < bits/8; i++ {
				if a.b[i]&b.b[i] != 0 {
					return scalar(out, IntValue(0))
				}
			}
			return scalar(out, IntValue(1))
		}
	}
	register("_mm_testz_si128", testz(128))
	register("_mm256_testz_si256", testz(256))
	register("_mm_testc_si128", func(m *Machine, args []Value, out *Value) error {
		a, b := &args[0].V, &args[1].V
		for i := 0; i < 16; i++ {
			if ^a.b[i]&b.b[i] != 0 {
				return scalar(out, IntValue(0))
			}
		}
		return scalar(out, IntValue(1))
	})

	// Widening integer conversions (SSE4.1 / AVX2).
	registerWidenings()
	registerPacks()
}

func maddEpi16(bits int) func(m *Machine, args []Value, out *Value) error {
	return func(m *Machine, args []Value, out *Value) error {
		a, b := &args[0].V, &args[1].V
		v := vecOut(out)
		for i := 0; i < bits/32; i++ {
			p0 := int32(a.I16(2*i)) * int32(b.I16(2*i))
			p1 := int32(a.I16(2*i+1)) * int32(b.I16(2*i+1))
			v.SetI32(i, p0+p1)
		}
		return nil
	}
}

// maddubsEpi16: unsigned a × signed b pairs, saturated 16-bit sums —
// the core of the 8-bit quantized dot product.
func maddubsEpi16(bits int) func(m *Machine, args []Value, out *Value) error {
	return func(m *Machine, args []Value, out *Value) error {
		a, b := &args[0].V, &args[1].V
		v := vecOut(out)
		for i := 0; i < bits/16; i++ {
			p0 := int(a.U8(2*i)) * int(b.I8(2*i))
			p1 := int(a.U8(2*i+1)) * int(b.I8(2*i+1))
			v.SetI16(i, satI16(p0+p1))
		}
		return nil
	}
}

func sadEpu8(bits int) func(m *Machine, args []Value, out *Value) error {
	return func(m *Machine, args []Value, out *Value) error {
		a, b := &args[0].V, &args[1].V
		v := vecOut(out)
		for g := 0; g < bits/64; g++ {
			sum := 0
			for i := 0; i < 8; i++ {
				d := int(a.U8(g*8+i)) - int(b.U8(g*8+i))
				if d < 0 {
					d = -d
				}
				sum += d
			}
			v.SetU64(g, uint64(sum))
		}
		return nil
	}
}

func signOp8(x, y int8) int8 {
	switch {
	case y < 0:
		return -x
	case y == 0:
		return 0
	default:
		return x
	}
}
func signOp16(x, y int16) int16 {
	switch {
	case y < 0:
		return -x
	case y == 0:
		return 0
	default:
		return x
	}
}
func signOp32(x, y int32) int32 {
	switch {
	case y < 0:
		return -x
	case y == 0:
		return 0
	default:
		return x
	}
}

func absOp(bits, elem int) func(m *Machine, args []Value, out *Value) error {
	return func(m *Machine, args []Value, out *Value) error {
		a := &args[0].V
		v := vecOut(out)
		for i := 0; i < bits/elem; i++ {
			switch elem {
			case 8:
				x := a.I8(i)
				if x < 0 {
					x = -x
				}
				v.SetI8(i, x)
			case 16:
				x := a.I16(i)
				if x < 0 {
					x = -x
				}
				v.SetI16(i, x)
			default:
				x := a.I32(i)
				if x < 0 {
					x = -x
				}
				v.SetI32(i, x)
			}
		}
		return nil
	}
}

func hAddI16(bits int, sub bool) func(m *Machine, args []Value, out *Value) error {
	return func(m *Machine, args []Value, out *Value) error {
		a, b := &args[0].V, &args[1].V
		v := vecOut(out)
		for lane := 0; lane < bits/128; lane++ {
			o := lane * 8
			for i := 0; i < 4; i++ {
				if sub {
					v.SetI16(o+i, a.I16(o+2*i)-a.I16(o+2*i+1))
					v.SetI16(o+4+i, b.I16(o+2*i)-b.I16(o+2*i+1))
				} else {
					v.SetI16(o+i, a.I16(o+2*i)+a.I16(o+2*i+1))
					v.SetI16(o+4+i, b.I16(o+2*i)+b.I16(o+2*i+1))
				}
			}
		}
		return nil
	}
}

func hAddI32(bits int, sub bool) func(m *Machine, args []Value, out *Value) error {
	return func(m *Machine, args []Value, out *Value) error {
		a, b := &args[0].V, &args[1].V
		v := vecOut(out)
		for lane := 0; lane < bits/128; lane++ {
			o := lane * 4
			for i := 0; i < 2; i++ {
				if sub {
					v.SetI32(o+i, a.I32(o+2*i)-a.I32(o+2*i+1))
					v.SetI32(o+2+i, b.I32(o+2*i)-b.I32(o+2*i+1))
				} else {
					v.SetI32(o+i, a.I32(o+2*i)+a.I32(o+2*i+1))
					v.SetI32(o+2+i, b.I32(o+2*i)+b.I32(o+2*i+1))
				}
			}
		}
		return nil
	}
}

func movemask8(bits int) func(m *Machine, args []Value, out *Value) error {
	return func(m *Machine, args []Value, out *Value) error {
		a := &args[0].V
		mask := 0
		for i := 0; i < bits/8; i++ {
			if a.b[i]&0x80 != 0 {
				mask |= 1 << i
			}
		}
		return scalar(out, IntValue(mask))
	}
}

func movemaskF32(bits int) func(m *Machine, args []Value, out *Value) error {
	return func(m *Machine, args []Value, out *Value) error {
		a := &args[0].V
		mask := 0
		for i := 0; i < bits/32; i++ {
			if a.U32(i)&0x80000000 != 0 {
				mask |= 1 << i
			}
		}
		return scalar(out, IntValue(mask))
	}
}

func movemaskF64(bits int) func(m *Machine, args []Value, out *Value) error {
	return func(m *Machine, args []Value, out *Value) error {
		a := &args[0].V
		mask := 0
		for i := 0; i < bits/64; i++ {
			if a.U64(i)&0x8000000000000000 != 0 {
				mask |= 1 << i
			}
		}
		return scalar(out, IntValue(mask))
	}
}

func registerWidenings() {
	// 128-bit sources; SSE4.1 widens the low lanes of a 128-bit register,
	// AVX2 widens a full 128-bit register into 256 bits.
	widen := func(name string, n int, get func(a *Vec, i int) int64, set func(v *Vec, i int, x int64)) {
		regConvert(name, n, func(v, a *Vec, i int) { set(v, i, get(a, i)) })
	}
	getI8 := func(a *Vec, i int) int64 { return int64(a.I8(i)) }
	getU8 := func(a *Vec, i int) int64 { return int64(a.U8(i)) }
	getI16 := func(a *Vec, i int) int64 { return int64(a.I16(i)) }
	getU16 := func(a *Vec, i int) int64 { return int64(a.U16(i)) }
	getI32 := func(a *Vec, i int) int64 { return int64(a.I32(i)) }
	setI16 := func(v *Vec, i int, x int64) { v.SetI16(i, int16(x)) }
	setI32 := func(v *Vec, i int, x int64) { v.SetI32(i, int32(x)) }
	setI64 := func(v *Vec, i int, x int64) { v.SetI64(i, x) }

	widen("_mm_cvtepi8_epi16", 8, getI8, setI16)
	widen("_mm_cvtepi8_epi32", 4, getI8, setI32)
	widen("_mm_cvtepu8_epi16", 8, getU8, setI16)
	widen("_mm_cvtepu8_epi32", 4, getU8, setI32)
	widen("_mm_cvtepi16_epi32", 4, getI16, setI32)
	widen("_mm_cvtepu16_epi32", 4, getU16, setI32)
	widen("_mm_cvtepi32_epi64", 2, getI32, setI64)
	widen("_mm256_cvtepi8_epi16", 16, getI8, setI16)
	widen("_mm256_cvtepi8_epi32", 8, getI8, setI32)
	widen("_mm256_cvtepu8_epi16", 16, getU8, setI16)
	widen("_mm256_cvtepu8_epi32", 8, getU8, setI32)
	widen("_mm256_cvtepi16_epi32", 8, getI16, setI32)
	widen("_mm256_cvtepu16_epi32", 8, getU16, setI32)
	widen("_mm256_cvtepi32_epi64", 4, getI32, setI64)
}

func registerPacks() {
	// packs_epi16: saturate 16→8 signed; a's lanes then b's lanes, per
	// 128-bit lane.
	packs16 := func(bits int, unsigned bool) func(m *Machine, args []Value, out *Value) error {
		return func(m *Machine, args []Value, out *Value) error {
			a, b := &args[0].V, &args[1].V
			v := vecOut(out)
			for lane := 0; lane < bits/128; lane++ {
				for i := 0; i < 8; i++ {
					av := int(a.I16(lane*8 + i))
					bv := int(b.I16(lane*8 + i))
					if unsigned {
						v.SetU8(lane*16+i, satU8(av))
						v.SetU8(lane*16+8+i, satU8(bv))
					} else {
						v.SetI8(lane*16+i, satI8(av))
						v.SetI8(lane*16+8+i, satI8(bv))
					}
				}
			}
			return nil
		}
	}
	packs32 := func(bits int, unsigned bool) func(m *Machine, args []Value, out *Value) error {
		return func(m *Machine, args []Value, out *Value) error {
			a, b := &args[0].V, &args[1].V
			v := vecOut(out)
			for lane := 0; lane < bits/128; lane++ {
				for i := 0; i < 4; i++ {
					av := int(a.I32(lane*4 + i))
					bv := int(b.I32(lane*4 + i))
					if unsigned {
						v.SetU16(lane*8+i, satU16(av))
						v.SetU16(lane*8+4+i, satU16(bv))
					} else {
						v.SetI16(lane*8+i, satI16(av))
						v.SetI16(lane*8+4+i, satI16(bv))
					}
				}
			}
			return nil
		}
	}
	register("_mm_packs_epi16", packs16(128, false))
	register("_mm_packus_epi16", packs16(128, true))
	register("_mm_packs_epi32", packs32(128, false))
	register("_mm_packus_epi32", packs32(128, true))
	register("_mm256_packs_epi16", packs16(256, false))
	register("_mm256_packus_epi16", packs16(256, true))
	register("_mm256_packs_epi32", packs32(256, false))
	register("_mm256_packus_epi32", packs32(256, true))
}
