package vm

// Shuffle, permute, unpack, blend and byte-move semantics — the data-
// movement vocabulary the paper's 8×8 MMM transpose (Figure 5) is built
// from.

func init() {
	registerUnpacks()
	registerShuffles()
	registerPermutes()
	registerBlends()
	registerByteShifts()
	registerInsertExtract()
	registerSets()
	registerBroadcasts()
	registerVariableShifts()
	registerMoves()
}

// unpack interleaves the low (lo=true) or high half of each 128-bit lane.
func unpack(bits, elemBytes int, lo bool) func(m *Machine, args []Value, out *Value) error {
	return func(m *Machine, args []Value, out *Value) error {
		a, b := &args[0].V, &args[1].V
		v := vecOut(out)
		perLane := 16 / elemBytes // elements per 128-bit lane
		half := perLane / 2
		for lane := 0; lane < bits/128; lane++ {
			base := lane * perLane
			src := base
			if !lo {
				src = base + half
			}
			for i := 0; i < half; i++ {
				for k := 0; k < elemBytes; k++ {
					v.b[(base+2*i)*elemBytes+k] = a.b[(src+i)*elemBytes+k]
					v.b[(base+2*i+1)*elemBytes+k] = b.b[(src+i)*elemBytes+k]
				}
			}
		}
		return nil
	}
}

func registerUnpacks() {
	type u struct {
		name  string
		bytes int
	}
	families := []u{{"epi8", 1}, {"epi16", 2}, {"epi32", 4}, {"epi64", 8}}
	for _, f := range families {
		register("_mm_unpacklo_"+f.name, unpack(128, f.bytes, true))
		register("_mm_unpackhi_"+f.name, unpack(128, f.bytes, false))
		register("_mm256_unpacklo_"+f.name, unpack(256, f.bytes, true))
		register("_mm256_unpackhi_"+f.name, unpack(256, f.bytes, false))
	}
	register("_mm_unpacklo_ps", unpack(128, 4, true))
	register("_mm_unpackhi_ps", unpack(128, 4, false))
	register("_mm256_unpacklo_ps", unpack(256, 4, true))
	register("_mm256_unpackhi_ps", unpack(256, 4, false))
	register("_mm_unpacklo_pd", unpack(128, 8, true))
	register("_mm_unpackhi_pd", unpack(128, 8, false))
	register("_mm256_unpacklo_pd", unpack(256, 8, true))
	register("_mm256_unpackhi_pd", unpack(256, 8, false))
	register("_mm_unpacklo_pi8", unpack(64, 1, true))
	register("_mm_unpackhi_pi8", unpack(64, 1, false))
}

func registerShuffles() {
	// _mm_shuffle_ps / _mm256_shuffle_ps: two lanes from a, two from b,
	// selected by imm8, per 128-bit lane.
	shufPS := func(bits int) func(m *Machine, args []Value, out *Value) error {
		return func(m *Machine, args []Value, out *Value) error {
			a, b := &args[0].V, &args[1].V
			imm := argInt(args, 2)
			v := vecOut(out)
			for lane := 0; lane < bits/128; lane++ {
				o := lane * 4
				v.SetF32(o+0, a.F32(o+(imm>>0&3)))
				v.SetF32(o+1, a.F32(o+(imm>>2&3)))
				v.SetF32(o+2, b.F32(o+(imm>>4&3)))
				v.SetF32(o+3, b.F32(o+(imm>>6&3)))
			}
			return nil
		}
	}
	register("_mm_shuffle_ps", shufPS(128))
	register("_mm256_shuffle_ps", shufPS(256))

	shufPD := func(bits int) func(m *Machine, args []Value, out *Value) error {
		return func(m *Machine, args []Value, out *Value) error {
			a, b := &args[0].V, &args[1].V
			imm := argInt(args, 2)
			v := vecOut(out)
			for lane := 0; lane < bits/128; lane++ {
				o := lane * 2
				v.SetF64(o+0, a.F64(o+(imm>>(2*lane)&1)))
				v.SetF64(o+1, b.F64(o+(imm>>(2*lane+1)&1)))
			}
			return nil
		}
	}
	register("_mm_shuffle_pd", shufPD(128))
	register("_mm256_shuffle_pd", shufPD(256))

	shufEpi32 := func(bits int) func(m *Machine, args []Value, out *Value) error {
		return func(m *Machine, args []Value, out *Value) error {
			a := &args[0].V
			imm := argInt(args, 1)
			v := vecOut(out)
			for lane := 0; lane < bits/128; lane++ {
				o := lane * 4
				for i := 0; i < 4; i++ {
					v.SetI32(o+i, a.I32(o+(imm>>(2*i)&3)))
				}
			}
			return nil
		}
	}
	register("_mm_shuffle_epi32", shufEpi32(128))
	register("_mm256_shuffle_epi32", shufEpi32(256))

	shufHiLo := func(bits int, hi bool) func(m *Machine, args []Value, out *Value) error {
		return func(m *Machine, args []Value, out *Value) error {
			a := &args[0].V
			imm := argInt(args, 1)
			v := vecCopy(out, a)
			for lane := 0; lane < bits/128; lane++ {
				base := lane * 8
				off := base
				if hi {
					off = base + 4
				}
				var tmp [4]int16
				for i := 0; i < 4; i++ {
					tmp[i] = a.I16(off + (imm >> (2 * i) & 3))
				}
				for i := 0; i < 4; i++ {
					v.SetI16(off+i, tmp[i])
				}
			}
			return nil
		}
	}
	register("_mm_shufflehi_epi16", shufHiLo(128, true))
	register("_mm_shufflelo_epi16", shufHiLo(128, false))
	register("_mm256_shufflehi_epi16", shufHiLo(256, true))
	register("_mm256_shufflelo_epi16", shufHiLo(256, false))

	// pshufb: byte shuffle within each 128-bit lane, high bit zeroes.
	shufB := func(bits int) func(m *Machine, args []Value, out *Value) error {
		return func(m *Machine, args []Value, out *Value) error {
			a, b := &args[0].V, &args[1].V
			v := vecOut(out)
			for lane := 0; lane < bits/128; lane++ {
				o := lane * 16
				for i := 0; i < 16; i++ {
					c := b.U8(o + i)
					if c&0x80 != 0 {
						v.SetU8(o+i, 0)
					} else {
						v.SetU8(o+i, a.U8(o+int(c&0x0F)))
					}
				}
			}
			return nil
		}
	}
	register("_mm_shuffle_epi8", shufB(128))
	register("_mm256_shuffle_epi8", shufB(256))

	// alignr: concatenate each 128-bit lane pair and shift right by imm
	// bytes.
	alignr := func(bits int) func(m *Machine, args []Value, out *Value) error {
		return func(m *Machine, args []Value, out *Value) error {
			a, b := &args[0].V, &args[1].V
			imm := argInt(args, 2)
			v := vecOut(out)
			for lane := 0; lane < bits/128; lane++ {
				o := lane * 16
				var concat [32]byte
				copy(concat[:16], b.b[o:o+16])
				copy(concat[16:], a.b[o:o+16])
				for i := 0; i < 16; i++ {
					idx := i + imm
					if idx < 32 {
						v.b[o+i] = concat[idx]
					}
				}
			}
			return nil
		}
	}
	register("_mm_alignr_epi8", alignr(128))
	register("_mm256_alignr_epi8", alignr(256))
}

func registerPermutes() {
	// permute2f128 / permute2x128: select 128-bit halves of a:b by imm.
	perm2 := func(m *Machine, args []Value, out *Value) error {
		a, b := &args[0].V, &args[1].V
		imm := argInt(args, 2)
		v := vecOut(out)
		sel := func(ctrl int) []byte {
			if ctrl&8 != 0 { // zero flag
				return make([]byte, 16)
			}
			switch ctrl & 3 {
			case 0:
				return a.b[0:16]
			case 1:
				return a.b[16:32]
			case 2:
				return b.b[0:16]
			default:
				return b.b[16:32]
			}
		}
		copy(v.b[0:16], sel(imm&0xF))
		copy(v.b[16:32], sel(imm>>4&0xF))
		return nil
	}
	register("_mm256_permute2f128_ps", perm2)
	register("_mm256_permute2f128_pd", perm2)
	register("_mm256_permute2f128_si256", perm2)
	register("_mm256_permute2x128_si256", perm2)

	// permute_ps: in-lane permute by imm (like shuffle_epi32 on floats).
	register("_mm256_permute_ps", func(m *Machine, args []Value, out *Value) error {
		a := &args[0].V
		imm := argInt(args, 1)
		v := vecOut(out)
		for lane := 0; lane < 2; lane++ {
			o := lane * 4
			for i := 0; i < 4; i++ {
				v.SetF32(o+i, a.F32(o+(imm>>(2*i)&3)))
			}
		}
		return nil
	})
	register("_mm256_permute_pd", func(m *Machine, args []Value, out *Value) error {
		a := &args[0].V
		imm := argInt(args, 1)
		v := vecOut(out)
		for lane := 0; lane < 2; lane++ {
			o := lane * 2
			v.SetF64(o+0, a.F64(o+(imm>>(2*lane)&1)))
			v.SetF64(o+1, a.F64(o+(imm>>(2*lane+1)&1)))
		}
		return nil
	})
	register("_mm256_permutevar_ps", func(m *Machine, args []Value, out *Value) error {
		a, b := &args[0].V, &args[1].V
		v := vecOut(out)
		for lane := 0; lane < 2; lane++ {
			o := lane * 4
			for i := 0; i < 4; i++ {
				v.SetF32(o+i, a.F32(o+int(b.U32(o+i)&3)))
			}
		}
		return nil
	})
	register("_mm256_permutevar_pd", func(m *Machine, args []Value, out *Value) error {
		a, b := &args[0].V, &args[1].V
		v := vecOut(out)
		for lane := 0; lane < 2; lane++ {
			o := lane * 2
			for i := 0; i < 2; i++ {
				v.SetF64(o+i, a.F64(o+int(b.U64(o+i)>>1&1)))
			}
		}
		return nil
	})
	register("_mm256_permute4x64_epi64", func(m *Machine, args []Value, out *Value) error {
		a := &args[0].V
		imm := argInt(args, 1)
		v := vecOut(out)
		for i := 0; i < 4; i++ {
			v.SetI64(i, a.I64(imm>>(2*i)&3))
		}
		return nil
	})
	register("_mm256_permute4x64_pd", func(m *Machine, args []Value, out *Value) error {
		a := &args[0].V
		imm := argInt(args, 1)
		v := vecOut(out)
		for i := 0; i < 4; i++ {
			v.SetF64(i, a.F64(imm>>(2*i)&3))
		}
		return nil
	})
	permVar8x32 := func(m *Machine, args []Value, out *Value) error {
		a, idx := &args[0].V, &args[1].V
		v := vecOut(out)
		for i := 0; i < 8; i++ {
			v.SetU32(i, a.U32(int(idx.U32(i)&7)))
		}
		return nil
	}
	register("_mm256_permutevar8x32_epi32", permVar8x32)
	register("_mm256_permutevar8x32_ps", permVar8x32)
}

func registerBlends() {
	blendImm := func(bits, elemBytes int) func(m *Machine, args []Value, out *Value) error {
		return func(m *Machine, args []Value, out *Value) error {
			a, b := &args[0].V, &args[1].V
			imm := argInt(args, 2)
			v := vecCopy(out, a)
			n := bits / (8 * elemBytes)
			for i := 0; i < n; i++ {
				// 16-bit blends repeat the immediate per 128-bit lane.
				bit := i
				if elemBytes == 2 {
					bit = i % 8
				}
				if imm>>(bit)&1 == 1 {
					for k := 0; k < elemBytes; k++ {
						v.b[i*elemBytes+k] = b.b[i*elemBytes+k]
					}
				}
			}
			return nil
		}
	}
	register("_mm_blend_ps", blendImm(128, 4))
	register("_mm_blend_pd", blendImm(128, 8))
	register("_mm256_blend_ps", blendImm(256, 4))
	register("_mm256_blend_pd", blendImm(256, 8))
	register("_mm256_blend_epi16", blendImm(256, 2))
	register("_mm256_blend_epi32", blendImm(256, 4))

	blendvByte := func(bits, elemBytes int) func(m *Machine, args []Value, out *Value) error {
		return func(m *Machine, args []Value, out *Value) error {
			a, b, mask := &args[0].V, &args[1].V, &args[2].V
			v := vecCopy(out, a)
			n := bits / (8 * elemBytes)
			for i := 0; i < n; i++ {
				// Select on the sign bit of the mask element.
				if mask.b[(i+1)*elemBytes-1]&0x80 != 0 {
					for k := 0; k < elemBytes; k++ {
						v.b[i*elemBytes+k] = b.b[i*elemBytes+k]
					}
				}
			}
			return nil
		}
	}
	register("_mm_blendv_ps", blendvByte(128, 4))
	register("_mm_blendv_pd", blendvByte(128, 8))
	register("_mm_blendv_epi8", blendvByte(128, 1))
	register("_mm256_blendv_ps", blendvByte(256, 4))
	register("_mm256_blendv_pd", blendvByte(256, 8))
	register("_mm256_blendv_epi8", blendvByte(256, 1))
}

func registerByteShifts() {
	byteShift := func(bits int, left bool) func(m *Machine, args []Value, out *Value) error {
		return func(m *Machine, args []Value, out *Value) error {
			a := &args[0].V
			imm := argInt(args, 1)
			v := vecOut(out)
			if imm > 15 {
				return nil
			}
			for lane := 0; lane < bits/128; lane++ {
				o := lane * 16
				for i := 0; i < 16; i++ {
					var src int
					if left {
						src = i - imm
					} else {
						src = i + imm
					}
					if src >= 0 && src < 16 {
						v.b[o+i] = a.b[o+src]
					}
				}
			}
			return nil
		}
	}
	register("_mm_slli_si128", byteShift(128, true))
	register("_mm_srli_si128", byteShift(128, false))
	register("_mm256_bslli_epi128", byteShift(256, true))
	register("_mm256_bsrli_epi128", byteShift(256, false))
}

func registerInsertExtract() {
	register("_mm256_extractf128_ps", extract128)
	register("_mm256_extractf128_pd", extract128)
	register("_mm256_extractf128_si256", extract128)
	register("_mm256_insertf128_ps", insert128)
	register("_mm256_insertf128_pd", insert128)
	register("_mm256_insertf128_si256", insert128)
	register("_mm_extract_epi32", func(m *Machine, args []Value, out *Value) error {
		return scalar(out, IntValue(int(args[0].V.I32(argInt(args, 1)&3))))
	})
	register("_mm_extract_epi8", func(m *Machine, args []Value, out *Value) error {
		return scalar(out, IntValue(int(args[0].V.U8(argInt(args, 1)&15))))
	})
	register("_mm_insert_epi32", func(m *Machine, args []Value, out *Value) error {
		v := vecCopy(out, &args[0].V)
		v.SetI32(argInt(args, 2)&3, int32(args[1].AsInt()))
		return nil
	})
	register("_mm_minpos_epu16", func(m *Machine, args []Value, out *Value) error {
		a := &args[0].V
		minv, mini := a.U16(0), 0
		for i := 1; i < 8; i++ {
			if a.U16(i) < minv {
				minv, mini = a.U16(i), i
			}
		}
		v := vecOut(out)
		v.SetU16(0, minv)
		v.SetU16(1, uint16(mini))
		return nil
	})
}

func extract128(m *Machine, args []Value, out *Value) error {
	a := &args[0].V
	imm := argInt(args, 1)
	v := vecOut(out)
	if imm&1 == 1 {
		copy(v.b[:16], a.b[16:32])
	} else {
		copy(v.b[:16], a.b[:16])
	}
	return nil
}

func insert128(m *Machine, args []Value, out *Value) error {
	v := vecCopy(out, &args[0].V)
	b := &args[1].V
	if argInt(args, 2)&1 == 1 {
		copy(v.b[16:32], b.b[:16])
	} else {
		copy(v.b[:16], b.b[:16])
	}
	return nil
}

func registerSets() {
	setzero := func(m *Machine, args []Value, out *Value) error {
		vecOut(out)
		return nil
	}
	for _, n := range []string{
		"_mm_setzero_ps", "_mm_setzero_pd", "_mm_setzero_si128", "_mm_setzero_si64",
		"_mm256_setzero_ps", "_mm256_setzero_pd", "_mm256_setzero_si256",
		"_mm512_setzero_ps", "_mm512_setzero_pd", "_mm512_setzero_si512",
	} {
		register(n, setzero)
	}

	set1F32 := func(bits int) func(m *Machine, args []Value, out *Value) error {
		return func(m *Machine, args []Value, out *Value) error {
			x := float32(args[0].AsFloat())
			v := vecOut(out)
			for i := 0; i < bits/32; i++ {
				v.SetF32(i, x)
			}
			return nil
		}
	}
	set1F64 := func(bits int) func(m *Machine, args []Value, out *Value) error {
		return func(m *Machine, args []Value, out *Value) error {
			x := args[0].AsFloat()
			v := vecOut(out)
			for i := 0; i < bits/64; i++ {
				v.SetF64(i, x)
			}
			return nil
		}
	}
	set1Int := func(bits, elemBits int) func(m *Machine, args []Value, out *Value) error {
		return func(m *Machine, args []Value, out *Value) error {
			x := args[0].AsInt()
			v := vecOut(out)
			for i := 0; i < bits/elemBits; i++ {
				switch elemBits {
				case 8:
					v.SetI8(i, int8(x))
				case 16:
					v.SetI16(i, int16(x))
				case 32:
					v.SetI32(i, int32(x))
				default:
					v.SetI64(i, x)
				}
			}
			return nil
		}
	}
	register("_mm_set1_ps", set1F32(128))
	register("_mm256_set1_ps", set1F32(256))
	register("_mm512_set1_ps", set1F32(512))
	register("_mm_set1_pd", set1F64(128))
	register("_mm256_set1_pd", set1F64(256))
	register("_mm512_set1_pd", set1F64(512))
	register("_mm_set1_epi8", set1Int(128, 8))
	register("_mm_set1_epi16", set1Int(128, 16))
	register("_mm_set1_epi32", set1Int(128, 32))
	register("_mm_set1_epi64x", set1Int(128, 64))
	register("_mm256_set1_epi8", set1Int(256, 8))
	register("_mm256_set1_epi16", set1Int(256, 16))
	register("_mm256_set1_epi32", set1Int(256, 32))
	register("_mm256_set1_epi64x", set1Int(256, 64))
	register("_mm_set1_pi8", set1Int(64, 8))
	register("_mm_set1_pi16", set1Int(64, 16))
	register("_mm_set1_pi32", set1Int(64, 32))

	// set_ps takes arguments high-lane first (Intel convention).
	register("_mm_set_ps", func(m *Machine, args []Value, out *Value) error {
		v := vecOut(out)
		for i := 0; i < 4; i++ {
			v.SetF32(3-i, float32(args[i].AsFloat()))
		}
		return nil
	})
	register("_mm256_set_ps", func(m *Machine, args []Value, out *Value) error {
		v := vecOut(out)
		for i := 0; i < 8; i++ {
			v.SetF32(7-i, float32(args[i].AsFloat()))
		}
		return nil
	})
	register("_mm_set_pd", func(m *Machine, args []Value, out *Value) error {
		v := vecOut(out)
		v.SetF64(1, args[0].AsFloat())
		v.SetF64(0, args[1].AsFloat())
		return nil
	})
	register("_mm256_set_pd", func(m *Machine, args []Value, out *Value) error {
		v := vecOut(out)
		for i := 0; i < 4; i++ {
			v.SetF64(3-i, args[i].AsFloat())
		}
		return nil
	})
	register("_mm_set_ss", func(m *Machine, args []Value, out *Value) error {
		v := vecOut(out)
		v.SetF32(0, float32(args[0].AsFloat()))
		return nil
	})
}

func registerBroadcasts() {
	register("_mm256_broadcastss_ps", func(m *Machine, args []Value, out *Value) error {
		x := args[0].V.F32(0)
		v := vecOut(out)
		for i := 0; i < 8; i++ {
			v.SetF32(i, x)
		}
		return nil
	})
	register("_mm256_broadcastsi128_si256", func(m *Machine, args []Value, out *Value) error {
		a := &args[0].V
		v := vecOut(out)
		copy(v.b[:16], a.b[:16])
		copy(v.b[16:32], a.b[:16])
		return nil
	})
	bcastInt := func(elemBits int) func(m *Machine, args []Value, out *Value) error {
		return func(m *Machine, args []Value, out *Value) error {
			a := &args[0].V
			v := vecOut(out)
			for i := 0; i < 256/elemBits; i++ {
				switch elemBits {
				case 8:
					v.SetI8(i, a.I8(0))
				case 16:
					v.SetI16(i, a.I16(0))
				default:
					v.SetI32(i, a.I32(0))
				}
			}
			return nil
		}
	}
	register("_mm256_broadcastb_epi8", bcastInt(8))
	register("_mm256_broadcastw_epi16", bcastInt(16))
	register("_mm256_broadcastd_epi32", bcastInt(32))
}

func registerVariableShifts() {
	regLanes("_mm256_sllv_epi32", mapU32, func(x, c uint32) uint32 {
		if c > 31 {
			return 0
		}
		return x << c
	})
	regLanes("_mm256_srlv_epi32", mapU32, func(x, c uint32) uint32 {
		if c > 31 {
			return 0
		}
		return x >> c
	})
	register("_mm256_srav_epi32", func(m *Machine, args []Value, out *Value) error {
		a, c := &args[0].V, &args[1].V
		v := vecOut(out)
		for i := 0; i < 8; i++ {
			sh := c.U32(i)
			if sh > 31 {
				sh = 31
			}
			v.SetI32(i, a.I32(i)>>sh)
		}
		return nil
	})
	regLanes("_mm256_sllv_epi64", mapU64, func(x, c uint64) uint64 {
		if c > 63 {
			return 0
		}
		return x << c
	})
	regLanes("_mm256_srlv_epi64", mapU64, func(x, c uint64) uint64 {
		if c > 63 {
			return 0
		}
		return x >> c
	})
	register("_mm512_rol_epi32", func(m *Machine, args []Value, out *Value) error {
		imm := uint(argInt(args, 1)) & 31
		a := &args[0].V
		v := vecOut(out)
		for i := 0; i < 16; i++ {
			x := a.U32(i)
			v.SetU32(i, x<<imm|x>>(32-imm))
		}
		return nil
	})
}

func registerMoves() {
	register("_mm_movehl_ps", func(m *Machine, args []Value, out *Value) error {
		a, b := &args[0].V, &args[1].V
		v := vecOut(out)
		v.SetF32(0, b.F32(2))
		v.SetF32(1, b.F32(3))
		v.SetF32(2, a.F32(2))
		v.SetF32(3, a.F32(3))
		return nil
	})
	register("_mm_movelh_ps", func(m *Machine, args []Value, out *Value) error {
		a, b := &args[0].V, &args[1].V
		v := vecOut(out)
		v.SetF32(0, a.F32(0))
		v.SetF32(1, a.F32(1))
		v.SetF32(2, b.F32(0))
		v.SetF32(3, b.F32(1))
		return nil
	})
	register("_mm_movehdup_ps", func(m *Machine, args []Value, out *Value) error {
		a := &args[0].V
		v := vecOut(out)
		for i := 0; i < 2; i++ {
			v.SetF32(2*i, a.F32(2*i+1))
			v.SetF32(2*i+1, a.F32(2*i+1))
		}
		return nil
	})
	register("_mm_moveldup_ps", func(m *Machine, args []Value, out *Value) error {
		a := &args[0].V
		v := vecOut(out)
		for i := 0; i < 2; i++ {
			v.SetF32(2*i, a.F32(2*i))
			v.SetF32(2*i+1, a.F32(2*i))
		}
		return nil
	})
	register("_mm_movedup_pd", func(m *Machine, args []Value, out *Value) error {
		a := &args[0].V
		v := vecOut(out)
		v.SetF64(0, a.F64(0))
		v.SetF64(1, a.F64(0))
		return nil
	})
}
