package vm

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/xmlspec"
)

// specIndex resolves the generated specification the semantics are
// checked against.
func specIndex(t testing.TB) *xmlspec.Index {
	t.Helper()
	rs, errs := xmlspec.Resolve(xmlspec.Generate(xmlspec.Latest()))
	if len(errs) != 0 {
		t.Fatalf("resolve errors: %v", errs[0])
	}
	ix, _ := xmlspec.NewIndex(rs)
	return ix
}

// specArgs builds a fresh argument list for an intrinsic's spec
// signature. Register operand i holds the seed bytes rotated by 7i,
// pointers address new 4096-element buffers filled with the seed,
// gather indices stay in bounds (0..7), and every scalar or immediate
// is imm. The buffers are returned so callers can compare memory
// effects.
func specArgs(r *xmlspec.Resolved, seed []byte, imm int) ([]Value, []*Buffer) {
	if len(seed) == 0 {
		seed = []byte{0}
	}
	var bufs []*Buffer
	args := make([]Value, len(r.Params))
	for i, p := range r.Params {
		switch {
		case p.Name == "vindex":
			var v Vec
			for l := 0; l < 16; l++ {
				v.SetI32(l, int32(seed[l%len(seed)]&7))
			}
			args[i] = VecValue(v)
		case p.Typ.Ptr:
			prim := p.Typ.Prim
			if prim == isa.PrimVoid {
				prim = isa.PrimU8
			}
			b := NewBuffer(prim, 4096)
			for k := range b.Data {
				b.Data[k] = seed[k%len(seed)]
			}
			bufs = append(bufs, b)
			args[i] = PtrValue(b, 0)
		case p.Typ.IsVec():
			var v Vec
			for k := range v.b {
				v.b[k] = seed[(k+7*i)%len(seed)]
			}
			args[i] = VecValue(v)
		default:
			switch p.Typ.Prim {
			case isa.PrimF32:
				args[i] = F32Value(float32(imm))
			case isa.PrimF64:
				args[i] = F64Value(float64(imm))
			default:
				args[i] = IntValue(imm)
			}
		}
	}
	return args, bufs
}

// poisoned is a destination no result can leave as it found it: a
// kind no intrinsic returns and every scalar and register byte set.
func poisoned() Value {
	v := Value{Kind: ir.Kind(0xA5), I: -0x5A5A5A5A5A5A5A5B, U: 0xA5A5A5A5A5A5A5A5,
		F: math.Float64frombits(0xA5A5A5A5A5A5A5A5), B: true, Off: 0xA5}
	for i := range v.V.b {
		v.V.b[i] = 0xA5
	}
	return v
}

// sameBits compares two Values field by field, floats by bit pattern.
func sameBits(a, b Value) bool {
	fa, fb := a.F, b.F
	a.F, b.F = 0, 0
	return a == b && math.Float64bits(fa) == math.Float64bits(fb)
}

// overwriteMismatch evaluates an intrinsic twice on identically built
// operands — once into a zeroed destination, once into a poisoned one —
// and describes any difference: in the error, in the result (Kind and V
// for a register, the whole Value for a scalar), in memory, in the
// counters, or a void intrinsic touching its destination. Reused arena
// slots in the interpreter rely on exactly this. It returns "" when the
// two runs agree.
func overwriteMismatch(name string, build func() ([]Value, []*Buffer)) string {
	in, ok := Lookup(name)
	if !ok {
		return "not implemented"
	}
	run := func(out *Value) (error, []*Buffer, *Machine) {
		args, bufs := build()
		m := NewMachine(isa.Haswell)
		return in.Fn(m, args, out), bufs, m
	}
	var clean Value
	dirty := poisoned()
	errC, bufC, mC := run(&clean)
	errD, bufD, mD := run(&dirty)
	if fmt.Sprint(errC) != fmt.Sprint(errD) {
		return fmt.Sprintf("errors differ: zeroed %v, poisoned %v", errC, errD)
	}
	if errC != nil {
		return ""
	}
	switch clean.Kind {
	case ir.KindVoid:
		if !sameBits(dirty, poisoned()) {
			return fmt.Sprintf("void intrinsic wrote its destination: %+v", dirty)
		}
	case ir.KindVec:
		if dirty.Kind != ir.KindVec || dirty.V != clean.V {
			return fmt.Sprintf("register result differs:\nzeroed   %v %x\npoisoned %v %x",
				clean.Kind, clean.V.b, dirty.Kind, dirty.V.b)
		}
	default:
		if !sameBits(clean, dirty) {
			return fmt.Sprintf("scalar result differs:\nzeroed   %+v\npoisoned %+v", clean, dirty)
		}
	}
	for i := range bufC {
		if !bytes.Equal(bufC[i].Data, bufD[i].Data) {
			return fmt.Sprintf("memory effects differ in buffer %d", i)
		}
	}
	if fmt.Sprint(mC.Counts) != fmt.Sprint(mD.Counts) {
		return fmt.Sprintf("counters differ: %v vs %v", mC.Counts, mD.Counts)
	}
	return ""
}

// TestSmokeEveryImplementedIntrinsic cross-checks the executable
// semantics against the XML specification's signatures: every
// implemented intrinsic is invoked with arguments built from its spec
// signature (patterned registers and buffers, the immediate 1, which is
// safe for every shift, predicate, scale and rounding-mode argument) and
// must execute without error. This differential catches arity
// mismatches between the spec (which drives the generated bindings) and
// the hand-written semantics. Each intrinsic then runs again into a
// zeroed and into a poisoned destination, which must agree.
func TestSmokeEveryImplementedIntrinsic(t *testing.T) {
	ix := specIndex(t)
	var pattern [64]byte
	for i := range pattern {
		pattern[i] = uint8(i*7 + 1)
	}

	smoked := 0
	for _, name := range ImplementedNames() {
		r, ok := ix.Lookup(name)
		if !ok {
			// Implemented but not in the spec — must not happen.
			t.Errorf("%s: semantics registered but absent from the specification", name)
			continue
		}
		build := func() ([]Value, []*Buffer) { return specArgs(r, pattern[:], 1) }
		args, _ := build()
		out, err := NewMachine(isa.Haswell).Call(name, args...)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		// Value-returning intrinsics must not return the zero Value for
		// void (sanity of the void/value split).
		if r.Ret.IsVoid() && out.Kind != 0 {
			t.Errorf("%s: void intrinsic returned a typed value", name)
		}
		if msg := overwriteMismatch(name, build); msg != "" {
			t.Errorf("%s: %s", name, msg)
		}
		smoked++
	}
	if smoked < 600 {
		t.Errorf("smoked only %d intrinsics", smoked)
	}
}

// FuzzOpsOverwriteDest runs the zeroed-versus-poisoned destination
// check on a fuzzer-chosen intrinsic with fuzzed register and buffer
// contents and a fuzzed immediate.
func FuzzOpsOverwriteDest(f *testing.F) {
	ix := specIndex(f)
	names := ImplementedNames()
	f.Add(uint16(0), uint8(1), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint16(7), uint8(0xFF), bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, pick uint16, imm uint8, raw []byte) {
		name := names[int(pick)%len(names)]
		r, ok := ix.Lookup(name)
		if !ok {
			t.Fatalf("%s: absent from the specification", name)
		}
		build := func() ([]Value, []*Buffer) { return specArgs(r, raw, int(imm)) }
		if msg := overwriteMismatch(name, build); msg != "" {
			t.Fatalf("%s: %s", name, msg)
		}
	})
}
