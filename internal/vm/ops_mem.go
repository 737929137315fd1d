package vm

// Memory intrinsics: loads, stores, broadcasts from memory, masked and
// gathered accesses. Pointer arguments are displaced buffer references;
// a register load/store moves width/8 bytes starting at the pointer's
// element offset. Alignment-checking variants behave like their
// unaligned counterparts (the simulator's buffers carry no addresses),
// but remain distinct ops so the cost model can price them apart.

import "repro/internal/ir"

func regLoad(name string, bytes int) {
	register(name, func(m *Machine, args []Value, out *Value) error {
		buf, off, err := argPtr(args, 0)
		if err != nil {
			return err
		}
		// LoadVec defines every byte of V, so only Kind needs setting.
		out.Kind = ir.KindVec
		if err := buf.LoadVec(off, bytes, &out.V); err != nil {
			return err
		}
		m.Touch(buf, off*buf.Prim.Bits()/8, bytes)
		return nil
	})
}

func regStore(name string, bytes int) {
	register(name, func(m *Machine, args []Value, out *Value) error {
		buf, off, err := argPtr(args, 0)
		if err != nil {
			return err
		}
		if err := buf.StoreVec(off, &args[1].V, bytes); err != nil {
			return err
		}
		m.Touch(buf, off*buf.Prim.Bits()/8, bytes)
		return nil
	})
}

func init() {
	// Plain loads/stores at every width. The *u (unaligned) and aligned
	// forms share semantics here.
	for _, l := range []struct {
		name  string
		bytes int
	}{
		{"_mm_loadu_ps", 16}, {"_mm_load_ps", 16},
		{"_mm_loadu_pd", 16}, {"_mm_load_pd", 16},
		{"_mm_loadu_si128", 16}, {"_mm_load_si128", 16}, {"_mm_lddqu_si128", 16},
		{"_mm_stream_load_si128", 16},
		{"_mm256_loadu_ps", 32}, {"_mm256_load_ps", 32},
		{"_mm256_loadu_pd", 32}, {"_mm256_load_pd", 32},
		{"_mm256_loadu_si256", 32}, {"_mm256_load_si256", 32},
		{"_mm256_lddqu_si256", 32},
		{"_mm512_loadu_ps", 64}, {"_mm512_loadu_pd", 64}, {"_mm512_loadu_si512", 64},
	} {
		regLoad(l.name, l.bytes)
	}
	for _, s := range []struct {
		name  string
		bytes int
	}{
		{"_mm_storeu_ps", 16}, {"_mm_store_ps", 16},
		{"_mm_storeu_pd", 16}, {"_mm_store_pd", 16},
		{"_mm_storeu_si128", 16}, {"_mm_store_si128", 16}, {"_mm_stream_si128", 16},
		{"_mm256_storeu_ps", 32}, {"_mm256_store_ps", 32}, {"_mm256_stream_ps", 32},
		{"_mm256_storeu_pd", 32}, {"_mm256_store_pd", 32}, {"_mm256_stream_pd", 32},
		{"_mm256_storeu_si256", 32}, {"_mm256_store_si256", 32},
		{"_mm256_stream_si256", 32},
		{"_mm512_storeu_ps", 64}, {"_mm512_storeu_pd", 64}, {"_mm512_storeu_si512", 64},
		{"_mm512_storenrngo_pd", 64},
	} {
		regStore(s.name, s.bytes)
	}

	// Scalar loads/stores.
	register("_mm_load_ss", func(m *Machine, args []Value, out *Value) error {
		buf, off, err := argPtr(args, 0)
		if err != nil {
			return err
		}
		if err := buf.check(off*4, 4); err != nil {
			return err
		}
		v := vecOut(out)
		v.SetF32(0, buf.F32At(off))
		return nil
	})
	register("_mm_store_ss", func(m *Machine, args []Value, out *Value) error {
		buf, off, err := argPtr(args, 0)
		if err != nil {
			return err
		}
		if err := buf.check(off*4, 4); err != nil {
			return err
		}
		buf.SetF32At(off, args[1].V.F32(0))
		return nil
	})
	register("_mm_load_ps1", func(m *Machine, args []Value, out *Value) error {
		buf, off, err := argPtr(args, 0)
		if err != nil {
			return err
		}
		if err := buf.check(off*4, 4); err != nil {
			return err
		}
		x := buf.F32At(off)
		v := vecOut(out)
		for i := 0; i < 4; i++ {
			v.SetF32(i, x)
		}
		return nil
	})
	register("_mm_store_ps1", func(m *Machine, args []Value, out *Value) error {
		buf, off, err := argPtr(args, 0)
		if err != nil {
			return err
		}
		if err := buf.check(off*4, 16); err != nil {
			return err
		}
		x := args[1].V.F32(0)
		for i := 0; i < 4; i++ {
			buf.SetF32At(off+i, x)
		}
		return nil
	})
	register("_mm_store_pd1", func(m *Machine, args []Value, out *Value) error {
		buf, off, err := argPtr(args, 0)
		if err != nil {
			return err
		}
		if err := buf.check(off*8, 16); err != nil {
			return err
		}
		x := args[1].V.F64(0)
		for i := 0; i < 2; i++ {
			buf.SetF64At(off+i, x)
		}
		return nil
	})
	register("_mm_loaddup_pd", func(m *Machine, args []Value, out *Value) error {
		buf, off, err := argPtr(args, 0)
		if err != nil {
			return err
		}
		if err := buf.check(off*8, 8); err != nil {
			return err
		}
		x := buf.F64At(off)
		v := vecOut(out)
		v.SetF64(0, x)
		v.SetF64(1, x)
		return nil
	})

	// Memory broadcasts.
	register("_mm256_broadcast_ss", func(m *Machine, args []Value, out *Value) error {
		buf, off, err := argPtr(args, 0)
		if err != nil {
			return err
		}
		if err := buf.check(off*4, 4); err != nil {
			return err
		}
		x := buf.F32At(off)
		v := vecOut(out)
		for i := 0; i < 8; i++ {
			v.SetF32(i, x)
		}
		return nil
	})
	register("_mm256_broadcast_sd", func(m *Machine, args []Value, out *Value) error {
		buf, off, err := argPtr(args, 0)
		if err != nil {
			return err
		}
		if err := buf.check(off*8, 8); err != nil {
			return err
		}
		x := buf.F64At(off)
		v := vecOut(out)
		for i := 0; i < 4; i++ {
			v.SetF64(i, x)
		}
		return nil
	})
	bcast128 := func(m *Machine, args []Value, out *Value) error {
		buf, off, err := argPtr(args, 0)
		if err != nil {
			return err
		}
		v := vecOut(out)
		if err := buf.LoadVec(off, 16, v); err != nil {
			return err
		}
		copy(v.b[16:32], v.b[:16])
		return nil
	}
	register("_mm256_broadcast_ps", bcast128)
	register("_mm256_broadcast_pd", bcast128)

	// Masked loads/stores (AVX / AVX2): element moves where the mask's
	// sign bit is set.
	maskLoad := func(elemBytes, n int) func(m *Machine, args []Value, out *Value) error {
		return func(m *Machine, args []Value, out *Value) error {
			buf, off, err := argPtr(args, 0)
			if err != nil {
				return err
			}
			mask := &args[1].V
			v := vecOut(out)
			for i := 0; i < n; i++ {
				if mask.b[(i+1)*elemBytes-1]&0x80 == 0 {
					continue
				}
				byteOff := (off + i) * buf.Prim.Bits() / 8
				if err := buf.check(byteOff, elemBytes); err != nil {
					return err
				}
				m.Touch(buf, byteOff, elemBytes)
				copy(v.b[i*elemBytes:(i+1)*elemBytes], buf.Data[byteOff:byteOff+elemBytes])
			}
			return nil
		}
	}
	maskStore := func(elemBytes, n int) func(m *Machine, args []Value, out *Value) error {
		return func(m *Machine, args []Value, out *Value) error {
			buf, off, err := argPtr(args, 0)
			if err != nil {
				return err
			}
			mask, a := &args[1].V, &args[2].V
			for i := 0; i < n; i++ {
				if mask.b[(i+1)*elemBytes-1]&0x80 == 0 {
					continue
				}
				byteOff := (off + i) * buf.Prim.Bits() / 8
				if err := buf.check(byteOff, elemBytes); err != nil {
					return err
				}
				m.Touch(buf, byteOff, elemBytes)
				copy(buf.Data[byteOff:byteOff+elemBytes], a.b[i*elemBytes:(i+1)*elemBytes])
			}
			return nil
		}
	}
	register("_mm256_maskload_ps", maskLoad(4, 8))
	register("_mm256_maskstore_ps", maskStore(4, 8))
	register("_mm256_maskload_pd", maskLoad(8, 4))
	register("_mm256_maskstore_pd", maskStore(8, 4))
	register("_mm256_maskload_epi32", maskLoad(4, 8))
	register("_mm256_maskstore_epi32", maskStore(4, 8))

	// Gathers (AVX2): scale is in bytes on hardware; buffers are element-
	// typed here, so the simulator honours scale relative to the element
	// size.
	gather32 := func(n int) func(m *Machine, args []Value, out *Value) error {
		return func(m *Machine, args []Value, out *Value) error {
			buf, off, err := argPtr(args, 0)
			if err != nil {
				return err
			}
			vindex := &args[1].V
			scale := argInt(args, 2)
			elemBytes := buf.Prim.Bits() / 8
			v := vecOut(out)
			for i := 0; i < n; i++ {
				byteOff := off*elemBytes + int(vindex.I32(i))*scale
				if err := buf.check(byteOff, 4); err != nil {
					return err
				}
				m.Touch(buf, byteOff, 4)
				copy(v.b[i*4:(i+1)*4], buf.Data[byteOff:byteOff+4])
			}
			return nil
		}
	}
	register("_mm256_i32gather_epi32", gather32(8))
	register("_mm256_i32gather_ps", gather32(8))
	register("_mm256_i32gather_pd", func(m *Machine, args []Value, out *Value) error {
		buf, off, err := argPtr(args, 0)
		if err != nil {
			return err
		}
		vindex := &args[1].V
		scale := argInt(args, 2)
		elemBytes := buf.Prim.Bits() / 8
		v := vecOut(out)
		for i := 0; i < 4; i++ {
			byteOff := off*elemBytes + int(vindex.I32(i))*scale
			if err := buf.check(byteOff, 8); err != nil {
				return err
			}
			copy(v.b[i*8:(i+1)*8], buf.Data[byteOff:byteOff+8])
		}
		return nil
	})

	// Cache-control and fences: no-ops with cost-model presence.
	noop := func(m *Machine, args []Value, out *Value) error { return nil }
	for _, n := range []string{"_mm_prefetch", "_mm_sfence", "_mm_lfence",
		"_mm_mfence", "_mm256_zeroall", "_mm256_zeroupper"} {
		register(n, noop)
	}
}
