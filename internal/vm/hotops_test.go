package vm

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/isa"
)

// hotOps lists the intrinsics that dominate the figure sweeps: packed
// f32/f64 arithmetic, the FMA, packed i32 arithmetic, bitwise logic on
// float registers, and plain vector loads and stores.
func hotOps() []string {
	var names []string
	for _, pfx := range []string{"_mm_", "_mm256_", "_mm512_"} {
		for _, op := range []string{"add", "sub", "mul", "div", "min", "max", "fmadd"} {
			names = append(names, pfx+op+"_ps", pfx+op+"_pd")
		}
		names = append(names, pfx+"add_epi32", pfx+"sub_epi32")
		if pfx == "_mm512_" {
			continue
		}
		names = append(names, pfx+"mullo_epi32", pfx+"min_epi32", pfx+"max_epi32")
		for _, op := range []string{"and", "or", "xor", "andnot"} {
			names = append(names, pfx+op+"_ps", pfx+op+"_pd")
		}
	}
	names = append(names,
		"_mm_loadu_ps", "_mm_load_ps", "_mm_loadu_pd", "_mm_load_pd",
		"_mm_loadu_si128", "_mm_load_si128", "_mm_lddqu_si128", "_mm_stream_load_si128",
		"_mm256_loadu_ps", "_mm256_load_ps", "_mm256_loadu_pd", "_mm256_load_pd",
		"_mm256_loadu_si256", "_mm256_load_si256",
		"_mm512_loadu_ps", "_mm512_loadu_pd", "_mm512_loadu_si512",
		"_mm_storeu_ps", "_mm_store_ps", "_mm_storeu_pd", "_mm_store_pd",
		"_mm_storeu_si128", "_mm_store_si128", "_mm_stream_si128",
		"_mm256_storeu_ps", "_mm256_store_ps", "_mm256_stream_ps",
		"_mm256_storeu_pd", "_mm256_store_pd", "_mm256_stream_pd",
		"_mm256_storeu_si256", "_mm256_store_si256", "_mm256_stream_si256",
		"_mm512_storeu_ps", "_mm512_storeu_pd", "_mm512_storeu_si512")
	return names
}

// hotArgs builds one deterministic argument list for a hot intrinsic
// from its name shape: FMAs take three registers, loads a pointer,
// stores a pointer plus a register, everything else two registers.
func hotArgs(name string, seed byte) ([]Value, *Buffer) {
	vec := func(k byte) Value {
		var v Vec
		for i := range v.b {
			v.b[i] = byte(i)*7 + k + seed
		}
		return VecValue(v)
	}
	switch {
	case hotStore(name):
		b := NewBuffer(isa.PrimU8, 128)
		return []Value{PtrValue(b, 0), vec(3)}, b
	case strings.Contains(name, "load"), strings.Contains(name, "lddqu"):
		b := NewBuffer(isa.PrimU8, 128)
		for i := range b.Data {
			b.Data[i] = byte(i)*5 + seed
		}
		return []Value{PtrValue(b, 0)}, b
	case strings.Contains(name, "fmadd"):
		return []Value{vec(1), vec(2), vec(3)}, nil
	default:
		return []Value{vec(1), vec(2)}, nil
	}
}

// hotRef computes a hot intrinsic lane by lane, independently of the
// combinators the machine evaluates it with: the result register, or
// for a store the buffer bytes it must leave.
func hotRef(name string, args []Value) (Vec, []byte) {
	var out Vec
	nbytes := widthOf(name) / 8
	op := name[strings.Index(name[1:], "_")+2 : strings.LastIndex(name, "_")]
	a := &args[0].V
	switch {
	case hotStore(name):
		data := append([]byte(nil), args[0].Mem.Data...)
		copy(data, args[1].V.b[:nbytes])
		return out, data
	case strings.Contains(name, "load"), strings.Contains(name, "lddqu"):
		copy(out.b[:nbytes], args[0].Mem.Data)
		return out, nil
	}
	b := &args[1].V
	switch {
	case bitwiseOp(op):
		for i := 0; i < nbytes; i++ {
			switch op {
			case "and":
				out.b[i] = a.b[i] & b.b[i]
			case "or":
				out.b[i] = a.b[i] | b.b[i]
			case "xor":
				out.b[i] = a.b[i] ^ b.b[i]
			case "andnot":
				out.b[i] = ^a.b[i] & b.b[i]
			}
		}
	case strings.HasSuffix(name, "_ps"):
		for i := 0; i < nbytes/4; i++ {
			x, y := a.F32(i), b.F32(i)
			var r float32
			switch op {
			case "add":
				r = x + y
			case "sub":
				r = x - y
			case "mul":
				r = x * y
			case "div":
				r = x / y
			case "min":
				r = x
				if y < x {
					r = y
				}
			case "max":
				r = x
				if y > x {
					r = y
				}
			case "fmadd":
				r = float32(math.FMA(float64(x), float64(y), float64(args[2].V.F32(i))))
			}
			out.SetF32(i, r)
		}
	case strings.HasSuffix(name, "_pd"):
		for i := 0; i < nbytes/8; i++ {
			x, y := a.F64(i), b.F64(i)
			var r float64
			switch op {
			case "add":
				r = x + y
			case "sub":
				r = x - y
			case "mul":
				r = x * y
			case "div":
				r = x / y
			case "min":
				r = x
				if y < x {
					r = y
				}
			case "max":
				r = x
				if y > x {
					r = y
				}
			case "fmadd":
				r = math.FMA(x, y, args[2].V.F64(i))
			}
			out.SetF64(i, r)
		}
	default: // _epi32
		for i := 0; i < nbytes/4; i++ {
			x, y := a.I32(i), b.I32(i)
			var r int32
			switch op {
			case "add":
				r = x + y
			case "sub":
				r = x - y
			case "mullo":
				r = int32(int64(x) * int64(y))
			case "min":
				r = min(x, y)
			case "max":
				r = max(x, y)
			}
			out.SetI32(i, r)
		}
	}
	return out, nil
}

// hotStore reports whether a hot intrinsic is a store (streaming stores
// included, streaming loads not).
func hotStore(name string) bool {
	return strings.Contains(name, "store") ||
		strings.Contains(name, "stream") && !strings.Contains(name, "load")
}

func bitwiseOp(op string) bool {
	return op == "and" || op == "or" || op == "xor" || op == "andnot"
}

// TestIntoOpsMatchReference evaluates every hot intrinsic into a
// poisoned destination and checks it against the lane-by-lane
// reference: the register result (stale lanes above the width must be
// cleared), the memory a store leaves, and a store leaving its
// destination untouched.
func TestIntoOpsMatchReference(t *testing.T) {
	for _, name := range hotOps() {
		t.Run(name, func(t *testing.T) {
			in, ok := Lookup(name)
			if !ok {
				t.Fatalf("%s not registered", name)
			}
			for seed := byte(0); seed < 3; seed++ {
				args, buf := hotArgs(name, seed)
				refArgs, _ := hotArgs(name, seed)
				wantV, wantMem := hotRef(name, refArgs)
				got := poisoned()
				if err := in.Fn(NewMachine(isa.SkylakeX), args, &got); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				switch {
				case wantMem != nil:
					if !sameBits(got, poisoned()) {
						t.Fatalf("seed %d: store wrote its destination: %+v", seed, got)
					}
					if !bytes.Equal(buf.Data, wantMem) {
						t.Fatalf("seed %d: stored bytes\n got %x\nwant %x", seed, buf.Data, wantMem)
					}
				case got.Kind != ir.KindVec || got.V != wantV:
					t.Fatalf("seed %d: result\n got %v %x\nwant %x", seed, got.Kind, got.V.b, wantV.b)
				}
			}
		})
	}
}

// TestVecBytesBounds locks in the typed bounds error on register reads.
func TestVecBytesBounds(t *testing.T) {
	var v Vec
	if _, err := v.Bytes(64); err != nil {
		t.Errorf("64 bytes is the full register, want success: %v", err)
	}
	for _, n := range []int{-1, 65, 1 << 20} {
		_, err := v.Bytes(n)
		re, ok := err.(*RangeError)
		if !ok {
			t.Fatalf("Bytes(%d): want *RangeError, got %v", n, err)
		}
		if re.N != n || re.Cap != 64 {
			t.Errorf("Bytes(%d): error carries %+v", n, re)
		}
	}
	if _, err := VecFromBytesErr(make([]byte, 65)); err == nil {
		t.Error("VecFromBytesErr must reject 65 bytes")
	}
	if _, err := VecFromBytesErr(make([]byte, 64)); err != nil {
		t.Errorf("VecFromBytesErr must accept 64 bytes: %v", err)
	}
}
