package machine

import (
	"testing"

	"repro/internal/dsl"
	"repro/internal/ir"
	"repro/internal/isa"
)

// TestParallelEligible: an elementwise loop qualifies for lanes, a
// loop-free kernel does not.
func TestParallelEligible(t *testing.T) {
	if !ParallelEligible(stagedLoop(t)) {
		t.Fatal("independent elementwise loop rejected for lanes")
	}
	k := dsl.NewKernel("noloop", isa.Haswell.Features)
	a := dsl.Mutable(k, k.ParamF32Ptr())
	k.MM256StoreuPs(a, k.ConstInt(0), k.MM256Set1Ps(k.ConstF32(1)))
	if ParallelEligible(k.F) {
		t.Fatal("loop-free kernel admitted for lanes")
	}
	if ParallelEligible(nil) {
		t.Fatal("nil func admitted for lanes")
	}
}

// stagedLoop stages a minimal independent elementwise loop.
func stagedLoop(t *testing.T) *ir.Func {
	t.Helper()
	k := dsl.NewKernel("pred_loop", isa.Haswell.Features)
	a := dsl.Mutable(k, k.ParamF32Ptr())
	n := k.ParamInt()
	two := k.MM256Set1Ps(k.ConstF32(2))
	k.For(k.ConstInt(0), n, 8, func(i dsl.Int) {
		k.MM256StoreuPs(a, i, k.MM256MulPs(k.MM256LoaduPs(a, i), two))
	})
	return k.F
}
