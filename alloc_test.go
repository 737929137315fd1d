// Steady-state allocation guards for the figure hot paths. The
// BENCH_*.json sweeps report allocs/op for each figure; the residual
// Figure 6a allocations were one-time specification synthesis amortized
// over the benchmark loop, not per-call garbage. These tests pin the
// invariant the perf reports rely on: after warmup, a kernel invocation
// and its model estimate allocate nothing.
package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hotspot"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/vm"
)

// TestFig6aCallSteadyStateZeroAlloc: the Figure 6a measured path — a
// compiled SAXPY invocation with prebuilt argument values — must be
// allocation-free at steady state for the smallest figure size.
func TestFig6aCallSteadyStateZeroAlloc(t *testing.T) {
	rt := core.DefaultRuntime()
	kn, err := rt.Compile(kernels.StagedSaxpy(rt.Arch.Features))
	if err != nil {
		t.Fatal(err)
	}
	const n = 64 // smallest Figure 6a bucket (2^6)
	a := vm.PinF32(make([]float32, n))
	y := vm.PinF32(make([]float32, n))
	args := []vm.Value{vm.PtrValue(a, 0), vm.PtrValue(y, 0),
		vm.F32Value(2.5), vm.IntValue(n)}

	// Warmup: first call pays one-time costs (verifier spec index,
	// frame-pool growth, counter key insertion).
	for i := 0; i < 3; i++ {
		if _, err := kn.CallValues(args...); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := kn.CallValues(args...); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state SAXPY call allocates %.3f allocs/op, want 0", allocs)
	}
}

// TestFig6aEstimateSteadyStateZeroAlloc: the model-estimate half of a
// sweep point (scaling counts and pricing them) must also be
// allocation-free once the estimator's scratch is warm — this is what
// keeps the sweep workers' measure loops out of the allocator.
func TestFig6aEstimateSteadyStateZeroAlloc(t *testing.T) {
	rt := core.DefaultRuntime()
	kn, err := rt.Compile(kernels.StagedSaxpy(rt.Arch.Features))
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	a := vm.PinF32(make([]float32, n))
	y := vm.PinF32(make([]float32, n))
	args := []vm.Value{vm.PtrValue(a, 0), vm.PtrValue(y, 0),
		vm.F32Value(2.5), vm.IntValue(n)}
	if _, err := kn.CallValues(args...); err != nil {
		t.Fatal(err)
	}
	est := machine.NewEstimator(rt.Arch)
	counts := rt.Machine.Counts
	est.Estimate(kn.Func(), counts, 8*n) // warm the chain-analysis scratch
	allocs := testing.AllocsPerRun(100, func() {
		est.Estimate(kn.Func(), counts, 8*n)
	})
	if allocs != 0 {
		t.Fatalf("steady-state estimate allocates %.3f allocs/op, want 0", allocs)
	}
}

// TestJavaLaneSteadyStateZeroAlloc: the simulated HotSpot baseline — the
// lane behind most of Figure 6b's wall time — runs the same compiled
// interpreter programs as the LMS kernels. A steady-state invocation of
// the triple-loop and blocked MMM methods, at the C2 tier (SLP body) and
// the interpreter tier (scalar body), must allocate nothing.
func TestJavaLaneSteadyStateZeroAlloc(t *testing.T) {
	const n = 64
	jvm := hotspot.NewVM(isa.Haswell)
	for _, build := range []func(isa.FeatureSet) *ir.Func{kernels.JavaMMMTriple, kernels.JavaMMMBlocked} {
		method, err := jvm.Load(build(jvm.Arch.Features))
		if err != nil {
			t.Fatal(err)
		}
		a := vm.PinF32(make([]float32, n*n))
		b := vm.PinF32(make([]float32, n*n))
		c := vm.PinF32(make([]float32, n*n))
		args := []vm.Value{vm.PtrValue(a, 0), vm.PtrValue(b, 0), vm.PtrValue(c, 0), vm.IntValue(n)}
		for _, tier := range []hotspot.Tier{hotspot.TierC2, hotspot.TierInterpreter} {
			// Warmup: frame-pool growth and counter key insertion.
			if _, err := method.InvokeAt(tier, args...); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := method.InvokeAt(tier, args...); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s at %v allocates %.3f allocs/op, want 0", method.Name, tier, allocs)
			}
		}
	}
}
