package kernelc

import (
	"strings"
	"testing"

	"repro/internal/dsl"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/vm"
)

func TestRunArityMismatch(t *testing.T) {
	k := dsl.NewKernel("two", isa.Haswell.Features)
	k.ParamInt()
	k.ParamInt()
	p, err := Compile(k.F)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(haswell(), vm.IntValue(1)); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestLoopBadStride(t *testing.T) {
	// A staged stride of zero must surface as a runtime error, not an
	// infinite loop.
	k := dsl.NewKernel("badstride", isa.Haswell.Features)
	n := k.ParamInt()
	stride := k.ParamInt()
	acc := dsl.Mutable(k, k.ParamF32Ptr())
	k.ForExp(k.ConstInt(0), n, stride, func(i dsl.Int) {
		acc.Set(k.ConstInt(0), k.ConstF32(1))
	})
	p, err := Compile(k.F)
	if err != nil {
		t.Fatal(err)
	}
	buf := vm.NewBuffer(isa.PrimF32, 1)
	_, err = p.Run(haswell(), vm.IntValue(10), vm.IntValue(0), vm.PtrValue(buf, 0))
	if err == nil || !strings.Contains(err.Error(), "stride") {
		t.Errorf("zero stride error = %v", err)
	}
}

func TestNilArraySurfaces(t *testing.T) {
	k := dsl.NewKernel("nilarr", isa.Haswell.Features)
	a := k.ParamF32Ptr()
	k.Return(a.At(k.ConstInt(0)))
	p, err := Compile(k.F)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(haswell(), vm.Value{Kind: ir.KindPtr}); err == nil {
		t.Error("nil array accepted")
	}
}

func TestConvKinds(t *testing.T) {
	cases := []struct {
		from vm.Value
		to   ir.Type
		want int64
	}{
		{vm.F64Value(300.7), ir.TI8, 44},  // 300 wraps into int8
		{vm.F64Value(-1.9), ir.TI32, -1},  // trunc toward zero
		{vm.IntValue(-1), ir.TU16, 65535}, // sign wrap
		{vm.F32Value(float32(1e18)), ir.TI8, int64(int8(int64(999999984306749440) & 0xFF))},
	}
	for _, c := range cases {
		got := convertStaged(t, c.from, c.to)
		if got.AsInt() != c.want {
			t.Errorf("convert(%v → %v) = %d, want %d", c.from, c.to, got.AsInt(), c.want)
		}
	}
	// NaN converts to 0.
	nan := convertStaged(t, vm.Value{Kind: ir.KindF64, F: nanF()}, ir.TI32)
	if nan.AsInt() != 0 {
		t.Errorf("NaN conversion = %d", nan.AsInt())
	}
	b := convertStaged(t, vm.IntValue(7), ir.TBool)
	if !b.B {
		t.Error("nonzero → bool failed")
	}
}

// convertStaged runs one staged conversion of v (typed by its kind) to
// type to through the compiled evaluator.
func convertStaged(t *testing.T, v vm.Value, to ir.Type) vm.Value {
	t.Helper()
	f := ir.NewFunc("conv", ir.Type{Kind: v.Kind})
	f.G.Root().Result = f.G.Conv(f.Params[0], to)
	p, err := Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Run(haswell(), v)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func nanF() float64 {
	f := 0.0
	return f / f
}

func TestStridedLoadDetection(t *testing.T) {
	k := dsl.NewKernel("strided", isa.Haswell.Features)
	a := k.ParamF32Ptr()
	acc := dsl.Mutable(k, k.ParamF32Ptr())
	n := k.ParamInt()
	k.For(k.ConstInt(0), n, 1, func(i dsl.Int) {
		// a[i*n] is a stride-n access, a[i] contiguous.
		s := a.At(i.Mul(n))
		c := a.At(i)
		acc.Set(k.ConstInt(0), s.Add(c))
	})
	p, err := Compile(k.F)
	if err != nil {
		t.Fatal(err)
	}
	m := haswell()
	buf := vm.PinF32(make([]float32, 16))
	accB := vm.PinF32(make([]float32, 1))
	if _, err := p.Run(m, vm.PtrValue(buf, 0), vm.PtrValue(accB, 0), vm.IntValue(4)); err != nil {
		t.Fatal(err)
	}
	if m.Counts[OpScalarLoadStrided] != 4 {
		t.Errorf("strided loads = %d, want 4", m.Counts[OpScalarLoadStrided])
	}
	if m.Counts[OpScalarLoad] != 4 {
		t.Errorf("contiguous loads = %d, want 4", m.Counts[OpScalarLoad])
	}
}

func TestPerLoopIterationCounters(t *testing.T) {
	k := dsl.NewKernel("counters", isa.Haswell.Features)
	n := k.ParamInt()
	acc := k.ForAccInt(k.ConstInt(0), n, 1, k.ConstInt(0),
		func(i dsl.Int, acc dsl.Int) dsl.Int { return acc.Add(i) })
	k.Return(acc)
	p, err := Compile(k.F)
	if err != nil {
		t.Fatal(err)
	}
	m := haswell()
	out, err := p.Run(m, vm.IntValue(10))
	if err != nil {
		t.Fatal(err)
	}
	if out.AsInt() != 45 {
		t.Errorf("sum 0..9 = %d", out.AsInt())
	}
	found := false
	for op, c := range m.Counts {
		if strings.HasPrefix(op, "loop.#") {
			found = true
			if c != 10 {
				t.Errorf("%s = %d, want 10", op, c)
			}
		}
	}
	if !found {
		t.Error("no per-loop counter emitted")
	}
	if m.Counts[OpLoopIter] != 10 {
		t.Errorf("aggregate loop iterations = %d", m.Counts[OpLoopIter])
	}
}
