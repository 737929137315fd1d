package kernelc

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dsl"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/vm"
)

// firstSupporting picks the first microarchitecture whose feature set
// covers a target's unconditional ISA requirements, mirroring the skip
// decision Runtime.Compile makes via MissingISAs.
func firstSupporting(reqs []isa.Family) *isa.Microarch {
	for _, m := range isa.Microarchs() {
		if m.Features.Has(reqs...) {
			return m
		}
	}
	return nil
}

// fillBuffer writes deterministic, tier-independent data: benign float
// values for float buffers (so kernels exercise real arithmetic, not
// NaN propagation) and xorshift bytes for integer buffers.
func fillBuffer(b *vm.Buffer, seed uint64) {
	switch b.Prim {
	case isa.PrimF32:
		for i := 0; i < b.Len(); i++ {
			v := float32(i%23)*0.375 - 3.5 + float32(seed%7)
			binary.LittleEndian.PutUint32(b.Data[i*4:], math.Float32bits(v))
		}
	case isa.PrimF64:
		for i := 0; i < b.Len(); i++ {
			v := float64(i%23)*0.375 - 3.5 + float64(seed%7)
			binary.LittleEndian.PutUint64(b.Data[i*8:], math.Float64bits(v))
		}
	default:
		x := seed*2862933555777941757 + 3037000493
		for i := range b.Data {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			b.Data[i] = byte(x)
		}
	}
}

// kernelArgs builds one argument list for f from its parameter types:
// pointers get fresh filled buffers of elems elements, integer params
// get n, float params a fixed scalar. Two calls with the same seed
// produce bit-identical inputs in distinct buffers.
func kernelArgs(t *testing.T, f *ir.Func, n, elems int, seed uint64) ([]vm.Value, []*vm.Buffer) {
	t.Helper()
	var args []vm.Value
	var bufs []*vm.Buffer
	for _, p := range f.Params {
		switch p.Typ.Kind {
		case ir.KindPtr:
			b := vm.NewBuffer(p.Typ.Elem, elems)
			fillBuffer(b, seed+uint64(len(args)))
			bufs = append(bufs, b)
			args = append(args, vm.PtrValue(b, 0))
		case ir.KindI32:
			args = append(args, vm.IntValue(n))
		case ir.KindI64:
			args = append(args, vm.Value{Kind: ir.KindI64, I: int64(n)})
		case ir.KindF32:
			args = append(args, vm.F32Value(1.5))
		case ir.KindF64:
			args = append(args, vm.F64Value(1.5))
		default:
			t.Fatalf("%s: no argument recipe for parameter kind %v", f.Name, p.Typ.Kind)
		}
	}
	return args, bufs
}

// sameValue compares run results without tripping over buffer identity
// or NaN: pointer results compare their backing bytes, floats compare
// bit patterns (NaN == NaN here — both runs execute identical scalar
// code, so even NaN payloads must match).
func sameValue(a, b vm.Value) bool {
	if a.Mem != nil || b.Mem != nil {
		return (a.Mem == nil) == (b.Mem == nil) && a.Kind == b.Kind &&
			a.Off == b.Off && bytes.Equal(a.Mem.Data, b.Mem.Data)
	}
	af, bf := a, b
	af.F, bf.F = 0, 0
	return af == bf && math.Float64bits(a.F) == math.Float64bits(b.F)
}

// goldenRun is one recorded kernel execution: the error text, the
// result value, an fnv-1a digest of every argument buffer after the
// run, and the full dynamic counter map.
type goldenRun struct {
	Kernel string           `json:"kernel"`
	N      int              `json:"n"`
	Err    string           `json:"err,omitempty"`
	Result string           `json:"result"`
	Bufs   []string         `json:"bufs"`
	Counts map[string]int64 `json:"counts"`
}

func fnvHex(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// describeValue renders a run result field by field; floats as bit
// patterns (NaN payloads included), vectors and pointed-to memory as
// digests.
func describeValue(v vm.Value) string {
	mem := "-"
	if v.Mem != nil {
		mem = fnvHex(v.Mem.Data)
	}
	return fmt.Sprintf("kind=%d i=%d u=%d f=%#016x b=%t v=%s off=%d mem=%s",
		v.Kind, v.I, v.U, math.Float64bits(v.F), v.B, fnvHex([]byte(fmt.Sprint(v.V))), v.Off, mem)
}

// TestOptimizerDifferentialAllKernels is the optimizer's ground truth:
// every shipped kernel must reproduce, at several sizes including a
// non-multiple-of-vector-width tail, the results, memory contents,
// error text and — because the dynamic op counts feed the analytical
// cost model behind every figure — the exact counter map recorded in
// testdata/tier_golden.json. The golden was recorded from the
// interpreter with the loop-nest optimizer off (and checked equal to
// the optimized program) before that configuration was deleted, so it
// still pins the optimizer against the unoptimized op stream.
func TestOptimizerDifferentialAllKernels(t *testing.T) {
	raw, err := os.ReadFile("testdata/tier_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden []goldenRun
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	want := map[string][]goldenRun{}
	for _, g := range golden {
		want[g.Kernel] = append(want[g.Kernel], g)
	}
	targets := kernels.Targets()
	if len(targets) < 18 || len(want) != len(targets) {
		t.Fatalf("expected the full 18-kernel registry in code and golden, got %d and %d",
			len(targets), len(want))
	}
	for _, tgt := range targets {
		t.Run(tgt.Name, func(t *testing.T) {
			arch := firstSupporting(tgt.Requires)
			if arch == nil {
				t.Fatalf("no microarchitecture supports %v", tgt.Requires)
			}
			f, err := tgt.Build(arch.Features)
			if err != nil {
				t.Fatal(err)
			}
			p, err := Compile(f)
			if err != nil {
				t.Fatal(err)
			}
			square := strings.Contains(strings.ToLower(tgt.Name), "mmm")
			runs := want[tgt.Name]
			if len(runs) != 3 {
				t.Fatalf("golden holds %d runs for %s, want 3", len(runs), tgt.Name)
			}
			for _, w := range runs {
				elems := w.N
				if square {
					elems = w.N * w.N
				}
				args, bufs := kernelArgs(t, f, w.N, elems, 42)
				m := vm.NewMachine(arch)
				out, err := p.Run(m, args...)
				got := goldenRun{Kernel: tgt.Name, N: w.N, Result: describeValue(out),
					Counts: map[string]int64(m.Counts)}
				if err != nil {
					got.Err = err.Error()
				}
				for _, b := range bufs {
					got.Bufs = append(got.Bufs, fnvHex(b.Data))
				}
				if !reflect.DeepEqual(got, w) {
					t.Fatalf("n=%d: diverges from the golden run:\ngot:  %+v\nwant: %+v", w.N, got, w)
				}
			}
		})
	}
}

// stageLICM builds a loop whose body contains one clearly invariant
// subexpression (n*n+7) and one affine address chain (i*4), so the unit
// tests below can pin down exactly what each optimisation claims.
func stageLICM(t *testing.T) *dsl.Kernel {
	t.Helper()
	k := dsl.NewKernel("licm_probe", isa.Haswell.Features)
	a := dsl.Mutable(k, k.ParamI32Ptr())
	n := k.ParamInt()
	k.For(k.ConstInt(0), n, 1, func(i dsl.Int) {
		inv := n.Mul(n).Add(k.ConstInt(7))
		a.Set(i, inv.Add(i.Mul(k.ConstInt(4))))
	})
	return k
}

// TestHoistAndStrengthReduceClaims checks the optimizer recognises the
// staged shapes — the invariant chain hoists, the affine chain strength-
// reduces — and that the claims change nothing observable: memory
// matches the closed form a[i] = n*n+7+4i, and the counts match the
// unoptimized body's (two mul and two alu per iteration, one store),
// including for the empty loop (entry work is guarded by start < end).
func TestHoistAndStrengthReduceClaims(t *testing.T) {
	k := stageLICM(t)
	p, err := Compile(k.F)
	if err != nil {
		t.Fatal(err)
	}
	if p.Hoisted() < 2 {
		t.Errorf("n*n+7 should hoist two nodes, got Hoisted()=%d", p.Hoisted())
	}
	if p.Strength() < 1 {
		t.Errorf("i*4 should strength-reduce, got Strength()=%d", p.Strength())
	}
	loopKey := ""
	for _, n := range []int{0, 1, 13} {
		b := vm.NewBuffer(isa.PrimI32, 16)
		m := haswell()
		if _, err := p.Run(m, vm.PtrValue(b, 0), vm.IntValue(n)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 16; i++ {
			want := 0
			if i < n {
				want = n*n + 7 + 4*i
			}
			if got := int(b.IntAt(i)); got != want {
				t.Fatalf("n=%d: a[%d] = %d, want %d", n, i, got, want)
			}
		}
		for key := range m.Counts {
			if strings.HasPrefix(key, "loop.#") {
				loopKey = key
			}
		}
		want := vm.Counter{loopKey: int64(n), OpLoopIter: int64(n), OpScalarALU: 2 * int64(n),
			OpScalarMul: 2 * int64(n), OpScalarStore: int64(n)}
		if !reflect.DeepEqual(m.Counts, want) {
			t.Fatalf("n=%d: counts\ngot:  %v\nwant: %v", n, m.Counts, want)
		}
	}
}

// TestFusedChainLength checks chain fusion extends past pairs: SAXPY's
// load→load→fma→store body fuses into a chain the compiler reports.
func TestFusedChainLength(t *testing.T) {
	k := stageSaxpy(t)
	p, err := Compile(k.F)
	if err != nil {
		t.Fatal(err)
	}
	if p.FusedChains() == 0 {
		t.Fatalf("SAXPY must fuse at least one chain of length >= 2 (FusedOps=%d)",
			p.FusedOps())
	}
}

// TestNegativeDegreeShapes pins down inputs the optimizer must refuse:
// accumulator chains (carried value is a body param) and i64-typed
// affine expressions (the incremental update wraps at 32 bits).
func TestNegativeDegreeShapes(t *testing.T) {
	k := dsl.NewKernel("acc_probe", isa.Haswell.Features)
	n := k.ParamInt()
	sum := k.ForAccInt(k.ConstInt(0), n, 1, k.ConstInt(0),
		func(i dsl.Int, acc dsl.Int) dsl.Int {
			return acc.Add(i)
		})
	k.Return(sum)
	p, err := Compile(k.F)
	if err != nil {
		t.Fatal(err)
	}
	if p.Strength() != 0 || p.Hoisted() != 0 {
		t.Errorf("accumulator chain must stay in the body: hoisted=%d strength=%d",
			p.Hoisted(), p.Strength())
	}
	out, err := p.Run(haswell(), vm.IntValue(10))
	if err != nil {
		t.Fatal(err)
	}
	if out.I != 45 {
		t.Errorf("sum 0..9 = %d, want 45", out.I)
	}
}

// TestOptimizedRunZeroAllocs locks in the zero-alloc hot path: after
// warm-up, repeated Runs of an optimized program allocate nothing — the
// frame pool plus the per-frame vector arena absorb all vector traffic.
func TestOptimizedRunZeroAllocs(t *testing.T) {
	k := stageSaxpy(t)
	p, err := Compile(k.F)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	aBuf, args := saxpyInputs(n)
	_ = aBuf
	m := haswell()
	if _, err := p.Run(m, args...); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := p.Run(m, args...); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("optimized Run allocates %v times per call, want 0", allocs)
	}
}

// TestArenaAccounting checks the per-frame vector arena statistics move
// when optimized loops run.
func TestArenaAccounting(t *testing.T) {
	ResetArenaStats()
	k := stageSaxpy(t)
	p, err := Compile(k.F)
	if err != nil {
		t.Fatal(err)
	}
	_, slots := ArenaStats()
	if slots == 0 {
		t.Error("compiling an optimized vector kernel must reserve arena slots")
	}
	_, args := saxpyInputs(64)
	if _, err := p.Run(haswell(), args...); err != nil {
		t.Fatal(err)
	}
	resets, _ := ArenaStats()
	if resets == 0 {
		t.Error("running optimized loops must record arena resets")
	}
}

// BenchmarkSaxpy measures the interpreter on a 1024-element SAXPY.
func BenchmarkSaxpy(b *testing.B) {
	k := stageSaxpy(b)
	p, err := Compile(k.F)
	if err != nil {
		b.Fatal(err)
	}
	_, args := saxpyInputs(1024)
	m := haswell()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Run(m, args...); err != nil {
			b.Fatal(err)
		}
	}
}
