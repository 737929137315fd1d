package kernelc

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/dsl"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/vm"
)

// forcePar lowers the trip-count gate so tiny test loops take the
// sharded driver, restoring it when the test ends.
func forcePar(t *testing.T) {
	t.Helper()
	prev := parMinIters
	parMinIters = 1
	t.Cleanup(func() { parMinIters = prev })
}

// parMachine builds a machine with a lane budget, as the CLI's -par
// flag does.
func parMachine(arch *isa.Microarch, lanes int) *vm.Machine {
	m := vm.NewMachine(arch)
	m.Workers = lanes
	return m
}

// TestParallelDifferentialAllKernels is the parallel tier's ground
// truth: every shipped kernel, executed serially and with four lanes,
// must agree on the result value, every buffer's memory image, and the
// exact dynamic op-counter map, across sizes including a
// non-multiple-of-vector-width tail. The Makefile runs this under
// -race, so it doubles as the scheduler's data-race gate.
func TestParallelDifferentialAllKernels(t *testing.T) {
	forcePar(t)
	targets := kernels.Targets()
	if len(targets) < 18 {
		t.Fatalf("expected the full 18-kernel registry, got %d", len(targets))
	}
	for _, tgt := range targets {
		t.Run(tgt.Name, func(t *testing.T) {
			arch := firstSupporting(tgt.Requires)
			if arch == nil {
				t.Skipf("no microarchitecture supports %v", tgt.Requires)
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
			for _, n := range []int{8, 32, 33} {
				elems := n
				if square {
					elems = n * n
				}
				argsS, bufsS := kernelArgs(t, f, n, elems, 42)
				argsP, bufsP := kernelArgs(t, f, n, elems, 42)
				mS := vm.NewMachine(arch)
				mP := parMachine(arch, 4)
				outS, errS := p.Run(mS, argsS...)
				outP, errP := p.Run(mP, argsP...)
				if (errS == nil) != (errP == nil) ||
					(errS != nil && errS.Error() != errP.Error()) {
					t.Fatalf("n=%d: drivers disagree on errors:\nserial:   %v\nparallel: %v",
						n, errS, errP)
				}
				if !sameValue(outS, outP) {
					t.Fatalf("n=%d: results diverge:\nserial:   %+v\nparallel: %+v",
						n, outS, outP)
				}
				for i := range bufsS {
					if !bytes.Equal(bufsS[i].Data, bufsP[i].Data) {
						t.Fatalf("n=%d: buffer %d memory images diverge", n, i)
					}
				}
				if !reflect.DeepEqual(mS.Counts, mP.Counts) {
					t.Fatalf("n=%d: dynamic op counts diverge:\nserial:   %v\nparallel: %v",
						n, mS.Counts, mP.Counts)
				}
			}
		})
	}
}

// TestParallelAccumulatorResult pins the loop result register: a
// sharded reduction must deposit the folded accumulator in the loop's
// destination, not just in the accumulator slot (a bug the differential
// test would mask for kernels whose result feeds another loop).
func TestParallelAccumulatorResult(t *testing.T) {
	forcePar(t)
	k := dsl.NewKernel("par_sum", isa.Haswell.Features)
	n := k.ParamInt()
	sum := k.ForAccInt(k.ConstInt(0), n, 1, k.ConstInt(5),
		func(i dsl.Int, acc dsl.Int) dsl.Int {
			return acc.Add(i)
		})
	k.Return(sum)
	p, err := Compile(k.F)
	if err != nil {
		t.Fatal(err)
	}
	_, runs0, _, _, _ := ParStats()
	out, err := p.Run(parMachine(isa.Haswell, 4), vm.IntValue(100))
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(5 + 99*100/2); out.I != want {
		t.Fatalf("sharded sum = %d, want %d", out.I, want)
	}
	_, runs1, _, _, _ := ParStats()
	if runs1 == runs0 {
		t.Fatal("accumulator loop did not take the sharded driver")
	}
}

// stageStencil writes a[i] = 2*b[i+1]: per-iteration windows are
// disjoint when a and b are distinct buffers, but overlap when the
// caller aliases them — a fact only the runtime probe can see.
func stageStencil() *dsl.Kernel {
	k := dsl.NewKernel("par_stencil", isa.Haswell.Features)
	a := dsl.Mutable(k, k.ParamI32Ptr())
	b := k.ParamI32Ptr()
	n := k.ParamInt()
	k.For(k.ConstInt(0), n, 1, func(i dsl.Int) {
		a.Set(i, b.At(i.Add(k.ConstInt(1))).Mul(k.ConstInt(2)))
	})
	return k
}

// TestParallelAliasFallback: the stencil shards with distinct buffers
// and falls back to the byte-identical serial driver when the caller
// aliases them (combined footprint wider than the per-iteration
// stride) — the admit check the static analysis cannot make.
func TestParallelAliasFallback(t *testing.T) {
	forcePar(t)
	p, err := Compile(stageStencil().F)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64

	runSerial := func(buf *vm.Buffer, b *vm.Buffer) []byte {
		if _, err := p.Run(vm.NewMachine(isa.Haswell),
			vm.PtrValue(buf, 0), vm.PtrValue(b, 0), vm.IntValue(n)); err != nil {
			t.Fatal(err)
		}
		return append([]byte(nil), buf.Data...)
	}

	// Distinct buffers: sharded run, identical image.
	a1, b1 := vm.NewBuffer(isa.PrimI32, n+1), vm.NewBuffer(isa.PrimI32, n+1)
	a2, b2 := vm.NewBuffer(isa.PrimI32, n+1), vm.NewBuffer(isa.PrimI32, n+1)
	fillBuffer(b1, 7)
	fillBuffer(b2, 7)
	want := runSerial(a1, b1)
	_, runs0, fb0, _, _ := ParStats()
	if _, err := p.Run(parMachine(isa.Haswell, 4),
		vm.PtrValue(a2, 0), vm.PtrValue(b2, 0), vm.IntValue(n)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a2.Data, want) {
		t.Fatal("sharded stencil image diverges from serial")
	}
	_, runs1, fb1, _, _ := ParStats()
	if runs1 == runs0 {
		t.Fatal("distinct-buffer stencil should shard")
	}
	if fb1 != fb0 {
		t.Fatal("distinct-buffer stencil should not fall back")
	}

	// Aliased: a[i] depends on a[i+1], so sharding would corrupt chunk
	// boundaries. The probe must reject and the serial driver must
	// produce the same bytes as a serial-only machine.
	s1 := vm.NewBuffer(isa.PrimI32, n+1)
	s2 := vm.NewBuffer(isa.PrimI32, n+1)
	fillBuffer(s1, 9)
	fillBuffer(s2, 9)
	wantAlias := runSerial(s1, s1)
	if _, err := p.Run(parMachine(isa.Haswell, 4),
		vm.PtrValue(s2, 0), vm.PtrValue(s2, 0), vm.IntValue(n)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s2.Data, wantAlias) {
		t.Fatal("aliased stencil image diverges from serial")
	}
	_, _, fb2, _, _ := ParStats()
	if fb2 == fb1 {
		t.Fatal("aliased stencil must be rejected by the runtime probe")
	}
}

// TestParallelRunsConcurrently exercises the lane pool and frame pool
// from many goroutines at once (the -race gate's concurrency stress):
// every concurrent sharded execution must produce the serial image.
func TestParallelRunsConcurrently(t *testing.T) {
	forcePar(t)
	p, err := Compile(stageStencil().F)
	if err != nil {
		t.Fatal(err)
	}
	const n = 128
	src := vm.NewBuffer(isa.PrimI32, n+1)
	fillBuffer(src, 3)
	want := vm.NewBuffer(isa.PrimI32, n+1)
	if _, err := p.Run(vm.NewMachine(isa.Haswell),
		vm.PtrValue(want, 0), vm.PtrValue(src, 0), vm.IntValue(n)); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 10; rep++ {
				dst := vm.NewBuffer(isa.PrimI32, n+1)
				if _, err := p.Run(parMachine(isa.Haswell, 4),
					vm.PtrValue(dst, 0), vm.PtrValue(src, 0), vm.IntValue(n)); err != nil {
					errs[g] = err
					return
				}
				if !bytes.Equal(dst.Data, want.Data) {
					errs[g] = errBadImage
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

var errBadImage = &badImageError{}

type badImageError struct{}

func (*badImageError) Error() string { return "concurrent sharded run produced a divergent image" }

// TestArenaNoUndercountOnError is the regression for the arena release
// path: a loop whose body errors mid-flight must still tally its
// completed iterations before the frame recycles through the pool, so
// ArenaStats never undercounts.
func TestArenaNoUndercountOnError(t *testing.T) {
	k := dsl.NewKernel("arena_err", isa.Haswell.Features)
	a := dsl.Mutable(k, k.ParamI32Ptr())
	n := k.ParamInt()
	k.For(k.ConstInt(0), n, 1, func(i dsl.Int) {
		a.Set(i, i)
	})
	p, err := Compile(k.F)
	if err != nil {
		t.Fatal(err)
	}
	const elems = 24
	buf := vm.NewBuffer(isa.PrimI32, elems)
	ResetArenaStats()
	// n = elems + 8: iterations 0..elems-1 complete, iteration elems
	// stores out of bounds and errors.
	if _, err := p.Run(vm.NewMachine(isa.Haswell),
		vm.PtrValue(buf, 0), vm.IntValue(elems+8)); err == nil {
		t.Fatal("out-of-bounds store must error")
	}
	resets, _ := ArenaStats()
	if resets != elems {
		t.Fatalf("erroring loop tallied %d arena resets, want %d completed iterations",
			resets, elems)
	}
}

// TestShardPlanContract spot-checks the scheduler geometry the fuzz
// target holds at scale.
func TestShardPlanContract(t *testing.T) {
	for _, tc := range []struct {
		iters   int64
		workers int
	}{{1, 1}, {1, 8}, {16, 4}, {17, 4}, {1000, 3}, {1 << 20, 16}} {
		checkShardPlan(t, tc.iters, tc.workers)
	}
}

// checkShardPlan asserts the shardPlan contract for one input.
func checkShardPlan(t *testing.T, iters int64, workers int) {
	t.Helper()
	chunkSize, chunks, owners := shardPlan(iters, workers)
	if workers < 1 {
		workers = 1
	}
	if chunkSize < 1 {
		t.Fatalf("shardPlan(%d,%d): chunkSize %d < 1", iters, workers, chunkSize)
	}
	if chunks > workers*chunksPerWorker {
		t.Fatalf("shardPlan(%d,%d): %d chunks exceeds %d", iters, workers, chunks, workers*chunksPerWorker)
	}
	var covered int64
	for k := 0; k < chunks; k++ {
		k0 := int64(k) * chunkSize
		cnt := chunkSize
		if k0+cnt > iters {
			cnt = iters - k0
		}
		if cnt <= 0 {
			t.Fatalf("shardPlan(%d,%d): chunk %d empty (size %d)", iters, workers, k, cnt)
		}
		covered += cnt
	}
	if covered != iters {
		t.Fatalf("shardPlan(%d,%d): chunks cover %d of %d iterations", iters, workers, covered, iters)
	}
	if len(owners) != workers+1 || owners[0] != 0 || owners[workers] != chunks {
		t.Fatalf("shardPlan(%d,%d): owner ranges %v do not span [0,%d)", iters, workers, owners, chunks)
	}
	for w := 0; w < workers; w++ {
		if owners[w] > owners[w+1] {
			t.Fatalf("shardPlan(%d,%d): owner range %d inverted: %v", iters, workers, w, owners)
		}
	}
}

// FuzzShardBounds fuzzes the shard-boundary math: every iteration lands
// in exactly one chunk, no chunk is empty, owner ranges partition the
// chunk index space, and the work-stealing queues serve each chunk
// exactly once.
func FuzzShardBounds(f *testing.F) {
	f.Add(int64(16), 4)
	f.Add(int64(1), 1)
	f.Add(int64(1<<40), 1024)
	f.Add(int64(17), 3)
	f.Fuzz(func(t *testing.T, iters int64, workers int) {
		if iters < 1 || iters > 1<<40 {
			t.Skip()
		}
		if workers < 1 || workers > 1024 {
			t.Skip()
		}
		checkShardPlan(t, iters, workers)

		// Drain the chunk queues from one thief-prone lane: every chunk
		// must surface exactly once.
		_, chunks, owners := shardPlan(iters, workers)
		if chunks > 1<<14 {
			return // keep queue draining cheap under the fuzzer
		}
		ranges := make([]chunkRange, workers)
		for w := 0; w < workers; w++ {
			ranges[w].init(owners[w], owners[w+1])
		}
		seen := make([]bool, chunks)
		for {
			k, _, ok := nextChunk(ranges, 0)
			if !ok {
				break
			}
			if seen[k] {
				t.Fatalf("chunk %d served twice", k)
			}
			seen[k] = true
		}
		for k, s := range seen {
			if !s {
				t.Fatalf("chunk %d never served", k)
			}
		}
	})
}
