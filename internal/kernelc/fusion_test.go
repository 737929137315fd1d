package kernelc

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/isa"
	"repro/internal/vm"
)

// saxpyInputs builds one SAXPY call's buffers and argument list.
func saxpyInputs(n int) (*vm.Buffer, []vm.Value) {
	av := make([]float32, n)
	bv := make([]float32, n)
	for i := range av {
		av[i] = float32(i) * 0.25
		bv[i] = float32(n - i)
	}
	aBuf, bBuf := vm.PinF32(av), vm.PinF32(bv)
	return aBuf, []vm.Value{vm.PtrValue(aBuf, 0), vm.PtrValue(bBuf, 0),
		vm.F32Value(1.5), vm.IntValue(n)}
}

// TestFusionPreservesSemantics runs the fused SAXPY program against
// the closed form: a[i] = 0.25i + 1.5(n-i) (exact in float32 at these
// sizes, so the vector body's fused multiply-add and the scalar tail's
// separate rounding agree bit for bit), and the unfused op stream of
// v = n/8 vector iterations plus r = n%8 scalar tail iterations.
func TestFusionPreservesSemantics(t *testing.T) {
	k := stageSaxpy(t)
	p, err := Compile(k.F)
	if err != nil {
		t.Fatal(err)
	}
	if p.FusedOps() == 0 {
		t.Fatal("SAXPY must fuse at least one load→op or op→store pair")
	}

	for _, n := range []int{8, 37, 256} {
		aBuf, args := saxpyInputs(n)
		m := haswell()
		if _, err := p.Run(m, args...); err != nil {
			t.Fatal(err)
		}
		got := make([]float32, n)
		aBuf.UnpinF32(got)
		for i := range got {
			if want := float32(i)*0.25 + float32(n-i)*1.5; got[i] != want {
				t.Fatalf("n=%d: a[%d] = %v, want %v", n, i, got[i], want)
			}
		}
		v, r := int64(n/8), int64(n%8)
		want := map[string]int64{
			"_mm256_set1_ps": 1, "_mm256_loadu_ps": 2 * v, "_mm256_fmadd_ps": v,
			"_mm256_storeu_ps": v, OpScalarALU: 2 + 2*v, OpLoopIter: v + r,
			OpScalarLoad: 2 * r, OpScalarFMul: r, OpScalarFP: r, OpScalarStore: r,
		}
		for key, c := range m.Counts {
			if strings.HasPrefix(key, "loop.#") {
				continue // per-loop trip counters: v and r, keyed by symbol id
			}
			if c != want[key] {
				t.Errorf("n=%d: count %s = %d, want %d", n, key, c, want[key])
			}
			delete(want, key)
		}
		if len(want) != 0 {
			t.Errorf("n=%d: counts missing %v", n, want)
		}
	}
}

// TestFrameReuseIsClean runs one program repeatedly and concurrently:
// pooled register frames must never leak state between runs.
func TestFrameReuseIsClean(t *testing.T) {
	k := stageSaxpy(t)
	p, err := Compile(k.F)
	if err != nil {
		t.Fatal(err)
	}

	const n = 37
	aBuf, args := saxpyInputs(n)
	if _, err := p.Run(haswell(), args...); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), aBuf.Data...)

	// Sequential reuse: identical fresh inputs, identical outputs.
	for r := 0; r < 4; r++ {
		aBuf2, args2 := saxpyInputs(n)
		if _, err := p.Run(haswell(), args2...); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(aBuf2.Data, want) {
			t.Fatalf("rep %d: pooled frame leaked state into the result", r)
		}
	}

	// Concurrent reuse: one Program, many machines (run with -race).
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 16; r++ {
				aBufG, argsG := saxpyInputs(n)
				if _, err := p.Run(vm.NewMachine(isa.Haswell), argsG...); err != nil {
					errs[g] = err
					return
				}
				if !bytes.Equal(aBufG.Data, want) {
					errs[g] = errors.New("concurrent run produced wrong output")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}
