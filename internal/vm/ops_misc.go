package vm

import (
	"math/bits"

	"repro/internal/ir"
)

// Miscellaneous intrinsics: hardware RNG (backed by the machine's seeded
// xorshift), population counts, CRC32C, timestamp counter, SSE4.1 dot
// products, and the AVX-512 reductions.

func init() {
	// RDRAND / RDSEED: write through the out-pointer, return 1 (success).
	randStep := func(bitsN int) func(m *Machine, args []Value, out *Value) error {
		return func(m *Machine, args []Value, out *Value) error {
			buf, off, err := argPtr(args, 0)
			if err != nil {
				return err
			}
			switch bitsN {
			case 16:
				buf.SetIntAt(off, int64(m.Rand.Next16()))
			case 32:
				buf.SetIntAt(off, int64(m.Rand.Next32()))
			default:
				buf.SetIntAt(off, int64(m.Rand.Next64()))
			}
			return scalar(out, IntValue(1))
		}
	}
	register("_rdrand16_step", randStep(16))
	register("_rdrand32_step", randStep(32))
	register("_rdrand64_step", randStep(64))
	register("_rdseed16_step", randStep(16))
	register("_rdseed32_step", randStep(32))
	register("_rdseed64_step", randStep(64))

	register("_mm_popcnt_u32", func(m *Machine, args []Value, out *Value) error {
		return scalar(out, IntValue(bits.OnesCount32(uint32(args[0].AsInt()))))
	})
	register("_mm_popcnt_u64", func(m *Machine, args []Value, out *Value) error {
		return scalar(out, Value{Kind: ir.KindI64, I: int64(bits.OnesCount64(uint64(args[0].AsInt())))})
	})
	register("_lzcnt_u32", func(m *Machine, args []Value, out *Value) error {
		return scalar(out, Value{Kind: ir.KindU32, U: uint64(bits.LeadingZeros32(uint32(args[0].AsInt())))})
	})
	register("_lzcnt_u64", func(m *Machine, args []Value, out *Value) error {
		return scalar(out, Value{Kind: ir.KindU64, U: uint64(bits.LeadingZeros64(uint64(args[0].AsInt())))})
	})
	register("_tzcnt_u32", func(m *Machine, args []Value, out *Value) error {
		return scalar(out, Value{Kind: ir.KindU32, U: uint64(bits.TrailingZeros32(uint32(args[0].AsInt())))})
	})
	register("_tzcnt_u64", func(m *Machine, args []Value, out *Value) error {
		return scalar(out, Value{Kind: ir.KindU64, U: uint64(bits.TrailingZeros64(uint64(args[0].AsInt())))})
	})
	register("_blsr_u32", func(m *Machine, args []Value, out *Value) error {
		x := uint32(args[0].AsInt())
		return scalar(out, Value{Kind: ir.KindU32, U: uint64(x & (x - 1))})
	})
	register("_pext_u32", func(m *Machine, args []Value, out *Value) error {
		x, mask := uint32(args[0].AsInt()), uint32(args[1].AsInt())
		var r, k uint32
		for i := 0; i < 32; i++ {
			if mask>>i&1 == 1 {
				r |= (x >> i & 1) << k
				k++
			}
		}
		return scalar(out, Value{Kind: ir.KindU32, U: uint64(r)})
	})
	register("_pdep_u32", func(m *Machine, args []Value, out *Value) error {
		x, mask := uint32(args[0].AsInt()), uint32(args[1].AsInt())
		var r uint32
		k := 0
		for i := 0; i < 32; i++ {
			if mask>>i&1 == 1 {
				r |= (x >> k & 1) << i
				k++
			}
		}
		return scalar(out, Value{Kind: ir.KindU32, U: uint64(r)})
	})

	// CRC32C (Castagnoli, reflected polynomial 0x82F63B78).
	crc := func(crcIn uint32, data uint64, bytes int) uint32 {
		c := crcIn
		for i := 0; i < bytes; i++ {
			c ^= uint32(data >> (8 * i) & 0xFF)
			for k := 0; k < 8; k++ {
				if c&1 == 1 {
					c = c>>1 ^ 0x82F63B78
				} else {
					c >>= 1
				}
			}
		}
		return c
	}
	register("_mm_crc32_u8", func(m *Machine, args []Value, out *Value) error {
		return scalar(out, Value{Kind: ir.KindU32, U: uint64(crc(uint32(args[0].AsInt()), uint64(args[1].AsInt()), 1))})
	})
	register("_mm_crc32_u16", func(m *Machine, args []Value, out *Value) error {
		return scalar(out, Value{Kind: ir.KindU32, U: uint64(crc(uint32(args[0].AsInt()), uint64(args[1].AsInt()), 2))})
	})
	register("_mm_crc32_u32", func(m *Machine, args []Value, out *Value) error {
		return scalar(out, Value{Kind: ir.KindU32, U: uint64(crc(uint32(args[0].AsInt()), uint64(args[1].AsInt()), 4))})
	})
	register("_mm_crc32_u64", func(m *Machine, args []Value, out *Value) error {
		return scalar(out, Value{Kind: ir.KindU64, U: uint64(crc(uint32(args[0].AsInt()), uint64(args[1].AsInt()), 8))})
	})

	// Timestamp counter: a monotonically growing virtual cycle count
	// derived from executed-op totals.
	register("_rdtsc", func(m *Machine, args []Value, out *Value) error {
		return scalar(out, Value{Kind: ir.KindU64, U: uint64(m.Counts.Total()) * 2})
	})

	// SSE4.1 dot products.
	register("_mm_dp_ps", func(m *Machine, args []Value, out *Value) error {
		a, b := &args[0].V, &args[1].V
		imm := argInt(args, 2)
		var sum float32
		for i := 0; i < 4; i++ {
			if imm>>(4+i)&1 == 1 {
				sum += a.F32(i) * b.F32(i)
			}
		}
		v := vecOut(out)
		for i := 0; i < 4; i++ {
			if imm>>i&1 == 1 {
				v.SetF32(i, sum)
			}
		}
		return nil
	})
	register("_mm_dp_pd", func(m *Machine, args []Value, out *Value) error {
		a, b := &args[0].V, &args[1].V
		imm := argInt(args, 2)
		var sum float64
		for i := 0; i < 2; i++ {
			if imm>>(4+i)&1 == 1 {
				sum += a.F64(i) * b.F64(i)
			}
		}
		v := vecOut(out)
		for i := 0; i < 2; i++ {
			if imm>>i&1 == 1 {
				v.SetF64(i, sum)
			}
		}
		return nil
	})

	// AVX-512 reductions and masks.
	register("_mm512_reduce_add_ps", func(m *Machine, args []Value, out *Value) error {
		a := &args[0].V
		var sum float32
		for i := 0; i < 16; i++ {
			sum += a.F32(i)
		}
		return scalar(out, F32Value(sum))
	})
	register("_mm512_reduce_add_pd", func(m *Machine, args []Value, out *Value) error {
		a := &args[0].V
		var sum float64
		for i := 0; i < 8; i++ {
			sum += a.F64(i)
		}
		return scalar(out, F64Value(sum))
	})
	register("_mm512_cmpeq_epi32_mask", func(m *Machine, args []Value, out *Value) error {
		a, b := &args[0].V, &args[1].V
		var mask uint16
		for i := 0; i < 16; i++ {
			if a.I32(i) == b.I32(i) {
				mask |= 1 << i
			}
		}
		vecOut(out).SetU16(0, mask)
		return nil
	})
	register("_mm512_mask_add_ps", func(m *Machine, args []Value, out *Value) error {
		src, k, a, b := &args[0].V, &args[1].V, &args[2].V, &args[3].V
		v := vecCopy(out, src)
		mask := k.U16(0)
		for i := 0; i < 16; i++ {
			if mask>>i&1 == 1 {
				v.SetF32(i, a.F32(i)+b.F32(i))
			}
		}
		return nil
	})
	register("_mm_cmp_epi16_mask", func(m *Machine, args []Value, out *Value) error {
		a, b := &args[0].V, &args[1].V
		imm := argInt(args, 2)
		v := vecOut(out)
		var mask uint8
		for i := 0; i < 8; i++ {
			x, y := a.I16(i), b.I16(i)
			var t bool
			switch imm & 7 {
			case 0:
				t = x == y
			case 1:
				t = x < y
			case 2:
				t = x <= y
			case 4:
				t = x != y
			case 5:
				t = x >= y
			case 6:
				t = x > y
			}
			if t {
				mask |= 1 << i
			}
		}
		v.SetU8(0, mask)
		return nil
	})

	// AES and SHA rounds: simplified mixing functions — the exact FIPS
	// transformations are out of scope, but the ops stay executable and
	// deterministic so pipelines using them can be tested end-to-end.
	mix := func(seed uint64) func(m *Machine, args []Value, out *Value) error {
		return func(m *Machine, args []Value, out *Value) error {
			a, b := &args[0].V, &args[1].V
			v := vecOut(out)
			for i := 0; i < 2; i++ {
				x := a.U64(i) ^ b.U64(i)
				x ^= x >> 33
				x *= seed
				x ^= x >> 29
				v.SetU64(i, x)
			}
			return nil
		}
	}
	register("_mm_aesdec_si128", mix(0xC2B2AE3D27D4EB4F))
	register("_mm_aesenc_si128", mix(0x9E3779B97F4A7C15))
	register("_mm_sha1msg1_epu32", mix(0xFF51AFD7ED558CCD))
	register("_mm_sha256msg1_epu32", mix(0xC4CEB9FE1A85EC53))
	register("_mm_clmulepi64_si128", func(m *Machine, args []Value, out *Value) error {
		a, b := &args[0].V, &args[1].V
		imm := argInt(args, 2)
		x := a.U64(imm & 1)
		y := b.U64(imm >> 4 & 1)
		var lo, hi uint64
		for i := 0; i < 64; i++ {
			if y>>i&1 == 1 {
				lo ^= x << i
				if i > 0 {
					hi ^= x >> (64 - i)
				}
			}
		}
		v := vecOut(out)
		v.SetU64(0, lo)
		v.SetU64(1, hi)
		return nil
	})

	// SSE4.2 string compares: equal-each (imm ignored beyond that) —
	// enough to execute staged string kernels.
	register("_mm_cmpistri", func(m *Machine, args []Value, out *Value) error {
		a, b := &args[0].V, &args[1].V
		for i := 0; i < 16; i++ {
			if a.U8(i) != b.U8(i) {
				return scalar(out, IntValue(i))
			}
		}
		return scalar(out, IntValue(16))
	})
	register("_mm_cmpistrz", func(m *Machine, args []Value, out *Value) error {
		b := &args[1].V
		for i := 0; i < 16; i++ {
			if b.U8(i) == 0 {
				return scalar(out, IntValue(1))
			}
		}
		return scalar(out, IntValue(0))
	})
	register("_mm_cmpistrm", func(m *Machine, args []Value, out *Value) error {
		a, b := &args[0].V, &args[1].V
		v := vecOut(out)
		for i := 0; i < 16; i++ {
			if a.U8(i) == b.U8(i) {
				v.SetU8(i, 0xFF)
			}
		}
		return nil
	})
	register("_mm_cmpestri", func(m *Machine, args []Value, out *Value) error {
		a, b := &args[0].V, &args[2].V
		la, lb := argInt(args, 1), argInt(args, 3)
		n := la
		if lb < n {
			n = lb
		}
		if n > 16 {
			n = 16
		}
		for i := 0; i < n; i++ {
			if a.U8(i) != b.U8(i) {
				return scalar(out, IntValue(i))
			}
		}
		return scalar(out, IntValue(n))
	})
	register("_mm_cmpestrm", func(m *Machine, args []Value, out *Value) error {
		a, b := &args[0].V, &args[2].V
		la, lb := argInt(args, 1), argInt(args, 3)
		n := la
		if lb < n {
			n = lb
		}
		if n > 16 {
			n = 16
		}
		v := vecOut(out)
		for i := 0; i < n; i++ {
			if a.U8(i) == b.U8(i) {
				v.SetU8(i, 0xFF)
			}
		}
		return nil
	})
}
