package kernelc

import (
	"testing"

	"repro/internal/dsl"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/vm"
)

func haswell() *vm.Machine { return vm.NewMachine(isa.Haswell) }

// stageSaxpy builds the paper's Figure 4 SAXPY: AVX+FMA body plus a
// scalar tail loop.
func stageSaxpy(t testing.TB) *dsl.Kernel {
	t.Helper()
	k := dsl.NewKernel("saxpy", isa.Haswell.Features)
	a := dsl.Mutable(k, k.ParamF32Ptr())
	b := k.ParamF32Ptr()
	scalar := k.ParamF32()
	n := k.ParamInt()

	n0 := n.Shr(3).Shl(3)
	vecS := k.MM256Set1Ps(scalar)
	k.For(k.ConstInt(0), n0, 8, func(i dsl.Int) {
		vecA := k.MM256LoaduPs(a, i)
		vecB := k.MM256LoaduPs(b, i)
		res := k.MM256FmaddPs(vecB, vecS, vecA)
		k.MM256StoreuPs(a, i, res)
	})
	k.For(n0, n, 1, func(i dsl.Int) {
		a.Set(i, a.At(i).Add(b.At(i).Mul(scalar)))
	})
	return k
}

func TestSaxpyEndToEnd(t *testing.T) {
	k := stageSaxpy(t)
	if miss := k.MissingISAs(); len(miss) != 0 {
		t.Fatalf("missing ISAs on Haswell: %v", miss)
	}
	p, err := Compile(k.F)
	if err != nil {
		t.Fatal(err)
	}

	n := 37 // odd size exercises the scalar tail
	av := make([]float32, n)
	bv := make([]float32, n)
	want := make([]float32, n)
	for i := range av {
		av[i] = float32(i) * 0.5
		bv[i] = float32(n - i)
		want[i] = av[i] + bv[i]*2.5
	}
	aBuf, bBuf := vm.PinF32(av), vm.PinF32(bv)
	m := haswell()
	if _, err := p.Run(m, vm.PtrValue(aBuf, 0), vm.PtrValue(bBuf, 0),
		vm.F32Value(2.5), vm.IntValue(n)); err != nil {
		t.Fatal(err)
	}
	aBuf.UnpinF32(av)
	for i := range av {
		if av[i] != want[i] {
			t.Fatalf("a[%d] = %v, want %v", i, av[i], want[i])
		}
	}

	// Instruction mix: 4 vector iterations (32 elements) + 5 scalar tail.
	if got := m.Counts["_mm256_fmadd_ps"]; got != 4 {
		t.Errorf("fmadd count = %d, want 4", got)
	}
	if got := m.Counts["_mm256_loadu_ps"]; got != 8 {
		t.Errorf("vector load count = %d, want 8", got)
	}
	if got := m.Counts["_mm256_storeu_ps"]; got != 4 {
		t.Errorf("vector store count = %d, want 4", got)
	}
	if got := m.Counts[OpScalarStore]; got != 5 {
		t.Errorf("scalar tail stores = %d, want 5", got)
	}
}

func TestSaxpyRejectedWithoutAVX(t *testing.T) {
	k := dsl.NewKernel("saxpy_sse_only", isa.Nehalem.Features)
	a := dsl.Mutable(k, k.ParamF32Ptr())
	_ = a
	s := k.ParamF32()
	k.MM256Set1Ps(s) // AVX intrinsic on an SSE4.2 machine
	miss := k.MissingISAs()
	if len(miss) != 1 {
		t.Fatalf("missing = %v, want one entry", miss)
	}
}

func TestCompileRejectsUnimplementedIntrinsic(t *testing.T) {
	k := dsl.NewKernel("knc", isa.NewFeatureSet(isa.KNC))
	a := k.ParamF32Ptr()
	// _mm512_extload_ps is bound (curated metadata) but has no vm
	// semantic.
	k.MM512ExtloadPs(a, k.ConstInt(0), 0, 0, 0)
	if _, err := Compile(k.F); err == nil {
		t.Fatal("compile must reject intrinsics without executable semantics")
	}
}

func TestScalarKernelResult(t *testing.T) {
	// sum of squares via scalar staged code with an accumulator array.
	k := dsl.NewKernel("sumsq", isa.Haswell.Features)
	x := k.ParamF32Ptr()
	acc := dsl.Mutable(k, k.ParamF32Ptr())
	n := k.ParamInt()
	k.For(k.ConstInt(0), n, 1, func(i dsl.Int) {
		v := x.At(i)
		acc.Set(k.ConstInt(0), acc.At(k.ConstInt(0)).Add(v.Mul(v)))
	})
	p, err := Compile(k.F)
	if err != nil {
		t.Fatal(err)
	}
	xs := []float32{1, 2, 3, 4}
	accBuf := vm.PinF32([]float32{0})
	if _, err := p.Run(haswell(), vm.PtrValue(vm.PinF32(xs), 0),
		vm.PtrValue(accBuf, 0), vm.IntValue(4)); err != nil {
		t.Fatal(err)
	}
	if got := accBuf.F32At(0); got != 30 {
		t.Fatalf("sum of squares = %v, want 30", got)
	}
}

func TestKernelReturnValue(t *testing.T) {
	k := dsl.NewKernel("horner", isa.Haswell.Features)
	x := k.ParamF32()
	// 2x² + 3x + 4 via scalar staging.
	two, three, four := k.ConstF32(2), k.ConstF32(3), k.ConstF32(4)
	k.Return(two.Mul(x).Add(three).Mul(x).Add(four))
	p, err := Compile(k.F)
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Run(haswell(), vm.F32Value(5))
	if err != nil {
		t.Fatal(err)
	}
	if out.AsFloat() != 69 {
		t.Fatalf("horner(5) = %v, want 69", out.AsFloat())
	}
}

func TestIfExpressionExecution(t *testing.T) {
	k := dsl.NewKernel("absdiff", isa.Haswell.Features)
	a, b := k.ParamInt(), k.ParamInt()
	d := a.Sub(b)
	r := k.IfInt(d.Lt(k.ConstInt(0)),
		func() dsl.Int { return b.Sub(a) },
		func() dsl.Int { return d })
	k.Return(r)
	p, err := Compile(k.F)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ a, b, want int64 }{{7, 3, 4}, {3, 7, 4}, {5, 5, 0}} {
		out, err := p.Run(haswell(), vm.IntValue(int(c.a)), vm.IntValue(int(c.b)))
		if err != nil {
			t.Fatal(err)
		}
		if out.AsInt() != c.want {
			t.Errorf("absdiff(%d,%d) = %d, want %d", c.a, c.b, out.AsInt(), c.want)
		}
	}
}

func TestNestedLoops(t *testing.T) {
	// c[i*w+j] = i+j over a 4×8 grid, with vector inner loop.
	k := dsl.NewKernel("grid", isa.Haswell.Features)
	c := dsl.Mutable(k, k.ParamF32Ptr())
	h, w := k.ParamInt(), k.ParamInt()
	k.For(k.ConstInt(0), h, 1, func(i dsl.Int) {
		k.For(k.ConstInt(0), w, 1, func(j dsl.Int) {
			c.Set(i.Mul(w).Add(j), i.Add(j).ToF32())
		})
	})
	p, err := Compile(k.F)
	if err != nil {
		t.Fatal(err)
	}
	buf := vm.NewBuffer(isa.PrimF32, 32)
	if _, err := p.Run(haswell(), vm.PtrValue(buf, 0), vm.IntValue(4), vm.IntValue(8)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 8; j++ {
			if got := buf.F32At(i*8 + j); got != float32(i+j) {
				t.Fatalf("c[%d][%d] = %v", i, j, got)
			}
		}
	}
}

func TestOutOfBoundsSurfacesError(t *testing.T) {
	k := dsl.NewKernel("oob", isa.Haswell.Features)
	a := k.ParamF32Ptr()
	n := k.ParamInt()
	acc := dsl.Mutable(k, k.ParamF32Ptr())
	k.For(k.ConstInt(0), n, 1, func(i dsl.Int) {
		acc.Set(k.ConstInt(0), a.At(i))
	})
	p, err := Compile(k.F)
	if err != nil {
		t.Fatal(err)
	}
	small := vm.PinF32(make([]float32, 2))
	accB := vm.PinF32(make([]float32, 1))
	if _, err := p.Run(haswell(), vm.PtrValue(small, 0), vm.IntValue(10),
		vm.PtrValue(accB, 0)); err == nil {
		t.Fatal("out-of-bounds read must surface as an error")
	}
}

func TestDeadVectorCodeEliminated(t *testing.T) {
	k := dsl.NewKernel("dead", isa.Haswell.Features)
	s := k.ParamF32()
	v := k.MM256Set1Ps(s)
	k.MM256AddPs(v, v) // result unused → DCE
	out := dsl.Mutable(k, k.ParamF32Ptr())
	k.MM256StoreuPs(out, k.ConstInt(0), v)
	p, err := Compile(k.F)
	if err != nil {
		t.Fatal(err)
	}
	m := haswell()
	buf := vm.NewBuffer(isa.PrimF32, 8)
	if _, err := p.Run(m, vm.F32Value(1), vm.PtrValue(buf, 0)); err != nil {
		t.Fatal(err)
	}
	if m.Counts["_mm256_add_ps"] != 0 {
		t.Error("dead pure intrinsic executed")
	}
	if m.Counts["_mm256_storeu_ps"] != 1 {
		t.Error("live store missing")
	}
}

func TestLoopWithStagedStrideAndPtrAdd(t *testing.T) {
	// The Section 4 pattern: dot_ps(bits, a+i, b+i) with stride from a
	// virtual intrinsic.
	k := dsl.NewKernel("ptradd", isa.Haswell.Features)
	a := k.ParamF32Ptr()
	out := dsl.Mutable(k, k.ParamF32Ptr())
	n := k.ParamInt()
	k.For(k.ConstInt(0), n, 8, func(i dsl.Int) {
		shifted := a.Plus(i)
		v := k.MM256LoaduPs(shifted, k.ConstInt(0))
		k.MM256StoreuPs(out.Plus(i), k.ConstInt(0), v)
	})
	p, err := Compile(k.F)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]float32, 16)
	for i := range src {
		src[i] = float32(i * i)
	}
	dst := vm.NewBuffer(isa.PrimF32, 16)
	if _, err := p.Run(haswell(), vm.PtrValue(vm.PinF32(src), 0),
		vm.PtrValue(dst, 0), vm.IntValue(16)); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if dst.F32At(i) != src[i] {
			t.Fatalf("copy[%d] = %v, want %v", i, dst.F32At(i), src[i])
		}
	}
}

func TestScheduleStatsExposed(t *testing.T) {
	k := stageSaxpy(t)
	s := ir.Schedule(k.F)
	if s.Kept == 0 || s.Total < s.Kept {
		t.Errorf("schedule stats: kept=%d total=%d", s.Kept, s.Total)
	}
}
