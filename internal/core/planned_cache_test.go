package core

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/backend"
	"repro/internal/ir"
	"repro/internal/kernelc"
	"repro/internal/vm"
)

// countingNative stands in for the native plugin backend: it serves
// every CompileCached as a prebuilt executable — the interpreter
// program behind a run counter — so the planner admits a native
// candidate without a toolchain.
type countingNative struct{ runs atomic.Int64 }

var plannedNativeStub = &countingNative{}

func init() {
	backend.Register("counting-native", func() backend.Backend { return plannedNativeStub })
}

func (*countingNative) Name() string     { return "counting-native" }
func (*countingNative) Available() error { return nil }

func (c *countingNative) Compile(f *ir.Func) (backend.Executable, error) {
	p, err := kernelc.Compile(f)
	if err != nil {
		return nil, err
	}
	return countingExec{c, p}, nil
}

func (c *countingNative) CompileCached(f *ir.Func) (backend.Executable, bool) {
	exe, err := c.Compile(f)
	return exe, err == nil
}

type countingExec struct {
	c *countingNative
	p *kernelc.Program
}

func (e countingExec) Run(m *vm.Machine, args ...vm.Value) (vm.Value, error) {
	e.c.runs.Add(1)
	return e.p.Run(m, args...)
}

// TestSharedCachePlannerIsolation puts a static and a planned runtime
// on one CompileCache and one DiskCache. Their compiles share one
// artifact (the cache key has no planner or tier dimension), so the
// artifact must keep the planner's native executable away from static
// calls, and must carry the graph hash a planner keys on whichever
// runtime built it.
func TestSharedCachePlannerIsolation(t *testing.T) {
	defer func(prev string) { plannedBackend = prev }(plannedBackend)
	plannedBackend = "counting-native"
	t.Run("static_never_runs_planned_native", func(t *testing.T) {
		disk, err := OpenDiskCache(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		planned := DefaultRuntime()
		planned.Disk = disk
		planned.EnableAutoPlan()
		static := DefaultRuntime()
		static.Cache, static.Disk = planned.Cache, disk

		knP, err := planned.Compile(stageDouble(planned))
		if err != nil {
			t.Fatal(err)
		}
		// Planned forks (sweep workers, tenants) resolve the native
		// candidate and calibrate concurrently on the shared artifact.
		before := plannedNativeStub.runs.Load()
		var wg sync.WaitGroup
		errs := make([]error, 4)
		for g := range errs {
			f := planned.Fork()
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				kn, err := f.Compile(stageDouble(f))
				xs := make([]float32, 64)
				for i := 0; i < 12 && err == nil; i++ {
					_, err = kn.Call(xs, len(xs))
				}
				errs[g] = err
			}(g)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if plannedNativeStub.runs.Load() == before {
			t.Fatal("the planned runtimes never probed their native candidate")
		}

		knS, err := static.Compile(stageDouble(static))
		if err != nil {
			t.Fatal(err)
		}
		if knS.art != knP.art {
			t.Fatal("static and planned compiles of one graph do not share an artifact")
		}
		// A second static runtime with a cold memory cache lowers from
		// the shared disk entry instead.
		cold := DefaultRuntime()
		cold.Disk = disk
		knC, err := cold.Compile(stageDouble(cold))
		if err != nil {
			t.Fatal(err)
		}
		before = plannedNativeStub.runs.Load()
		for _, kn := range []*Kernel{knS, knC} {
			for i := 0; i < 8; i++ {
				ys := []float32{1, 2, 3, 4, 5, 6, 7, 8}
				if _, err := kn.Call(ys, len(ys)); err != nil {
					t.Fatal(err)
				}
				if ys[7] != 16 {
					t.Fatalf("static call computed %v", ys)
				}
			}
		}
		if got := plannedNativeStub.runs.Load() - before; got != 0 {
			t.Fatalf("static runtimes ran the planner's native executable %d times", got)
		}
	})

	t.Run("enable_after_static_compile_plans", func(t *testing.T) {
		dir := t.TempDir()
		built := diskRuntime(t, dir) // full compile, stored to disk
		knB, err := built.Compile(stageDouble(built))
		if err != nil {
			t.Fatal(err)
		}
		loaded := diskRuntime(t, dir) // artifact lowered from the disk entry
		knL, err := loaded.Compile(stageDouble(loaded))
		if err != nil {
			t.Fatal(err)
		}
		if st := loaded.Disk.Stats(); st.Hits != 1 {
			t.Fatalf("second runtime missed the disk entry: %+v", st)
		}
		want := fmt.Sprintf("%016x", ir.Hash(knB.Func()))
		xs := make([]float32, 64)
		for name, kn := range map[string]*Kernel{"built": knB, "loaded": knL} {
			if _, err := kn.Call(xs, len(xs)); err != nil { // a static call first
				t.Fatal(err)
			}
			kn.rt.EnableAutoPlan()
			for i := 0; i < 12; i++ {
				if _, err := kn.Call(xs, len(xs)); err != nil {
					t.Fatal(err)
				}
			}
			views := kn.rt.Planner.Snapshot()
			if len(views) != 1 || !views[0].Calibrated || views[0].Hash != want {
				t.Fatalf("%s: EnableAutoPlan after a static compile did not plan under hash %s: %+v",
					name, want, views)
			}
		}
	})
}

// TestTierProgramsAgree pins the compiled sum-of-squares kernel at the
// core API level to its closed form, (n-1)n(2n-1)/6, and to the op
// counts of its unoptimized loop body (one alu, one mul and one loop
// step per iteration, one JNI crossing per call) — the cost-model
// invariant the loop-nest optimizer must preserve.
func TestTierProgramsAgree(t *testing.T) {
	rt := DefaultRuntime()
	kn, err := rt.Compile(stageSumSquares(rt))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int64{0, 1, 7, 100} {
		rt.Machine.Counts.Reset()
		got, err := kn.Call(int(n))
		if err != nil {
			t.Fatal(err)
		}
		if want := (n - 1) * n * (2*n - 1) / 6; got.I != want {
			t.Fatalf("n=%d: sum of squares = %d, want %d", n, got.I, want)
		}
		loopKey := ""
		for k := range rt.Machine.Counts {
			if strings.HasPrefix(k, "loop.#") {
				loopKey = k
			}
		}
		want := vm.Counter{JNICall: 1, loopKey: n, kernelc.OpScalarALU: n,
			kernelc.OpScalarMul: n, kernelc.OpLoopIter: n}
		if !reflect.DeepEqual(rt.Machine.Counts, want) {
			t.Fatalf("n=%d: counts\ngot:  %v\nwant: %v", n, rt.Machine.Counts, want)
		}
	}
}
