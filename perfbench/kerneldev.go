package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cgen"
	"repro/internal/conform"
	"repro/internal/core"
	"repro/internal/dsl"
	"repro/internal/irverify"
	"repro/internal/isa"
	"repro/internal/kernelc"
	"repro/internal/kernels"
	"repro/internal/vm"
	"repro/internal/xmlspec"
)

// devRecipes is how many generated kernels one kernel-dev round
// compiles; rounds repeat, each over fresh kernels and a fresh cache
// directory, while the measured phase has room. A fixed round size
// keeps the disk cache's directory size — which its store path scans —
// the same in every run.
const devRecipes = 300

// devArch is the machine the generated kernels target.
var devArch = isa.Haswell

// devMachines are the machines every kernels.Targets() entry is staged
// on, where the machine supports it.
var devMachines = []*isa.Microarch{isa.Nehalem, isa.SandyBridge, isa.Haswell, isa.SkylakeX}

// devStems are the lane-op stems of the conformance grammar — the ones
// conform.RunOracle evaluates. stemPool keeps those the spec, the vm
// and the target machine all provide at a given width and precision.
var devStems = []string{"add", "sub", "mul", "div", "min", "max", "sqrt",
	"and", "or", "xor", "andnot", "fmadd", "fmsub", "fnmadd", "fnmsub"}

func stemPool(width int, prim isa.Prim, ix *xmlspec.Index) []string {
	prefix, suffix := "_mm_", "_ps"
	if width == 256 {
		prefix = "_mm256_"
	}
	if prim == isa.PrimF64 {
		suffix = "_pd"
	}
	var out []string
	for _, st := range devStems {
		name := prefix + st + suffix
		if spec, ok := ix.Lookup(name); ok && vm.Implemented(name) && spec.AvailableOn(devArch.Features) {
			out = append(out, st)
		}
	}
	return out
}

// rng is the benchmark's own xorshift64 stream for generated inputs.
type rng struct{ s uint64 }

func newRng(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float64 is uniform in [0, 1).
func (r *rng) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// genRecipe draws well-formed kernel i of the seed's stream from
// conform.Recipe's exported fields: 128/256-bit, f32/f64, a chain of
// one to four lane ops, unit or double stride, an optional scalar
// tail and (f32 only) an optional reduction. Each case has its own
// stream, so any case replays on its own.
func genRecipe(seed uint64, i int, ix *xmlspec.Index) conform.Recipe {
	r := newRng(seed*0x9E3779B97F4A7C15 + uint64(i)*0xBF58476D1CE4E5B9 + 1)
	rec := conform.Recipe{Case: i, Width: 128 + 128*r.intn(2), Prim: isa.PrimF32, Stride: 1}
	if r.intn(2) == 1 {
		rec.Prim = isa.PrimF64
	}
	if r.intn(3) == 0 {
		rec.Stride = 2
	}
	lanes := rec.Width / rec.Prim.Bits()
	rec.N = lanes*(2+r.intn(6)) + r.intn(lanes)
	rec.Tail = r.intn(2) == 1
	rec.Reduce = rec.Prim == isa.PrimF32 && r.intn(3) == 0
	pool := stemPool(rec.Width, rec.Prim, ix)
	for n := 1 + r.intn(4); n > 0; n-- {
		rec.Ops = append(rec.Ops, pool[r.intn(len(pool))])
	}
	return rec
}

// devKernel is one kernel of the stream: a generated recipe (checked
// against the scalar oracle) or a registry target (compile only).
type devKernel struct {
	name  string
	arch  *isa.Microarch
	stage func() (*dsl.Kernel, error)
	rec   *conform.Recipe
}

// devStream is round r's kernels: devRecipes fresh generated kernels
// followed by every registry target on each machine that supports it.
func devStream(seed uint64, round int, ix *xmlspec.Index) []devKernel {
	var out []devKernel
	for i := round * devRecipes; i < (round+1)*devRecipes; i++ {
		rec := genRecipe(seed, i, ix)
		out = append(out, devKernel{name: rec.Name(), arch: devArch, rec: &rec,
			stage: func() (*dsl.Kernel, error) { return rec.Build(devArch.Features, ix) }})
	}
	for _, arch := range devMachines {
		for _, t := range kernels.Targets() {
			if !arch.Features.Has(t.Requires...) {
				continue
			}
			out = append(out, devKernel{name: t.Name + "@" + arch.Name, arch: arch,
				stage: func() (*dsl.Kernel, error) {
					f, err := t.Build(arch.Features)
					if err != nil {
						return nil, err
					}
					return &dsl.Kernel{F: f, Features: arch.Features}, nil
				}})
		}
	}
	return out
}

// newDevRuntime is the kernel-dev set-up: the spec index, a runtime
// for the generated kernels' machine and a persistent compile cache.
func newDevRuntime(cacheDir string) (*core.Runtime, error) {
	irverify.SpecIndex()
	rt, err := core.NewRuntime(devArch, cgen.HostEnvironment)
	if err != nil {
		return nil, err
	}
	if rt.Disk, err = core.OpenDiskCache(cacheDir, 0); err != nil {
		return nil, err
	}
	return rt, nil
}

// devRuntimes hands out one runtime per machine, all over one disk
// cache (the generated kernels' machine reuses the set-up runtime).
type devRuntimes struct {
	disk *core.DiskCache
	rts  map[*isa.Microarch]*core.Runtime
}

func (d *devRuntimes) get(arch *isa.Microarch) (*core.Runtime, error) {
	if rt, ok := d.rts[arch]; ok {
		return rt, nil
	}
	rt, err := core.NewRuntime(arch, cgen.HostEnvironment)
	if err != nil {
		return nil, err
	}
	rt.Disk = d.disk
	d.rts[arch] = rt
	return rt, nil
}

func openDevRuntimes(dir string) (*devRuntimes, error) {
	rt, err := newDevRuntime(dir)
	if err != nil {
		return nil, err
	}
	return &devRuntimes{disk: rt.Disk, rts: map[*isa.Microarch]*core.Runtime{devArch: rt}}, nil
}

// devRound is what one cold + warm round measured.
type devRound struct {
	cold, warm []float64 // µs per Runtime.Compile
	coldWall   float64   // seconds: stage → compile → call → check, all kernels
	kernels    int
	diskBytes  int64
	disk       core.DiskCacheStats // the warm runtimes' cache traffic
	// Traced-round layer samples (µs per kernel) and generated-code
	// yields; empty when untraced.
	overhead                  []float64
	cBytes, fused, hoisted, n int64
}

// runDevRound takes ks through a cold pass (fresh cache directory, one
// store per kernel, each generated kernel called once and checked bit
// for bit against the scalar oracle) and a warm pass (fresh runtimes
// over the same directory: every compile must be a disk hit producing
// the same generated C). With a tracer it also times each layer of the
// compile pipeline from outside, one call per layer on the same graph.
func runDevRound(s *session, ks []devKernel, tr *tracer) (*devRound, error) {
	dir, err := os.MkdirTemp(s.dir, "devcache-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	res := &devRound{kernels: len(ks)}

	cold, err := openDevRuntimes(dir)
	if err != nil {
		return nil, err
	}
	sources := make([]string, len(ks))
	start := time.Now()
	for i, k := range ks {
		rt, err := cold.get(k.arch)
		if err != nil {
			return nil, err
		}
		var dk *dsl.Kernel
		if err := tr.span("dsl.stage", func() (err error) { dk, err = k.stage(); return err }); err != nil {
			s.check(fmt.Errorf("kernel-dev: stage %s: %w", k.name, err))
			continue
		}
		t0 := time.Now()
		kn, err := rt.Compile(dk)
		compile := time.Since(t0)
		res.cold = append(res.cold, float64(compile.Nanoseconds())/1e3)
		if err != nil {
			s.check(fmt.Errorf("kernel-dev: compile %s: %w", k.name, err))
			continue
		}
		sources[i] = kn.Source()
		if tr != nil {
			tr.add("core.compile", compile)
			res.traceLayers(tr, dk, k.arch, kn, compile)
		}
		if k.rec != nil {
			err = checkOracle(kn, dk, k.rec, s.seed+uint64(k.rec.Case)*131, tr)
		}
		s.check(err)
	}
	res.coldWall = time.Since(start).Seconds()
	if res.diskBytes, err = dirBytes(dir); err != nil {
		return nil, err
	}

	disk, err := core.OpenDiskCache(dir, 0)
	if err != nil {
		return nil, err
	}
	warm := &devRuntimes{disk: disk, rts: map[*isa.Microarch]*core.Runtime{}}
	for i, k := range ks {
		if sources[i] == "" {
			continue // failed cold; already counted
		}
		rt, err := warm.get(k.arch)
		if err != nil {
			return nil, err
		}
		dk, err := k.stage()
		if err != nil {
			return nil, err
		}
		hits := disk.Stats().Hits
		t0 := time.Now()
		kn, err := rt.Compile(dk)
		warmD := time.Since(t0)
		res.warm = append(res.warm, float64(warmD.Nanoseconds())/1e3)
		tr.add("core.warm_compile", warmD)
		switch {
		case err != nil:
			err = fmt.Errorf("kernel-dev: warm compile %s: %w", k.name, err)
		case disk.Stats().Hits != hits+1:
			err = fmt.Errorf("kernel-dev: warm compile %s missed the disk cache", k.name)
		case kn.Source() != sources[i]:
			err = fmt.Errorf("kernel-dev: warm compile %s generated different C", k.name)
		}
		s.check(err)
	}
	res.disk = disk.Stats()
	return res, nil
}

// traceLayers times verification, C emission and lowering of one
// compiled graph as separate calls, and records the compile's residual
// overhead (its own time minus those three) and the generated code's
// size and optimizer yields.
func (res *devRound) traceLayers(tr *tracer, dk *dsl.Kernel, arch *isa.Microarch, kn *core.Kernel, compile time.Duration) {
	var spent time.Duration
	timed := func(name string, fn func()) {
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		tr.add(name, d)
		spent += d
	}
	timed("irverify.verify", func() { irverify.Verify(dk.F, arch) })
	// The C emission options Runtime.Compile uses.
	timed("cgen.emit", func() {
		cgen.Emit(dk.F, cgen.Options{JNI: true, Package: "ch.ethz.acl.ngen", Class: "NKernel"})
	})
	var prog *kernelc.Program
	timed("kernelc.lower", func() { prog, _ = kernelc.CompileTier(dk.F, kernelc.TierOpt) })
	res.overhead = append(res.overhead, float64((compile-spent).Nanoseconds())/1e3)
	res.n++
	res.cBytes += int64(len(kn.Source()))
	if prog != nil {
		res.fused += int64(prog.FusedChains())
		res.hoisted += int64(prog.Hoisted())
	}
}

// checkOracle calls a compiled generated kernel once and compares its
// result and every output buffer bit for bit with the scalar oracle's
// evaluation of the same graph on identical inputs.
func checkOracle(kn *core.Kernel, dk *dsl.Kernel, rec *conform.Recipe, seed uint64, tr *tracer) error {
	args, bufs, err := kernels.BuildArgs(dk.F, rec.N, rec.Elems(), seed)
	if err != nil {
		return err
	}
	var val vm.Value
	if err := tr.span("dev.call", func() (err error) { val, err = kn.CallValues(args...); return err }); err != nil {
		return fmt.Errorf("kernel-dev: call %s: %w", rec.Name(), err)
	}
	oArgs, oBufs, err := kernels.BuildArgs(dk.F, rec.N, rec.Elems(), seed)
	if err != nil {
		return err
	}
	var want vm.Value
	if err := tr.span("conform.oracle", func() (err error) { want, err = conform.RunOracle(dk.F, oArgs); return err }); err != nil {
		return fmt.Errorf("kernel-dev: oracle %s: %w", rec.Name(), err)
	}
	if !val.Equal(want) {
		return fmt.Errorf("kernel-dev: %s returned %+v, oracle %+v", rec.Name(), val, want)
	}
	for i := range bufs {
		if !bytes.Equal(bufs[i].Data, oBufs[i].Data) {
			return fmt.Errorf("kernel-dev: %s pointer argument %d differs from the oracle", rec.Name(), i)
		}
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// runKernelDev is the kernel-dev workload: cold + warm rounds over
// fresh seeded kernels while the measured phase has room for another.
func runKernelDev(s *session) error {
	ix := irverify.SpecIndex()
	var cold, warm []float64
	var kernelsDone int
	var coldWall float64
	var rounds []float64
	end := s.deadline()
	for r := 0; r == 0 || time.Now().Add(secondsDur(median(rounds))).Before(end); r++ {
		t0 := time.Now()
		res, err := runDevRound(s, devStream(s.seed, r, ix), nil)
		if err != nil {
			return err
		}
		rounds = append(rounds, time.Since(t0).Seconds())
		cold = append(cold, res.cold...)
		warm = append(warm, res.warm...)
		kernelsDone += res.kernels
		coldWall += res.coldWall
	}
	// The gated latency is the warm compile, which every later start of
	// a developer's program pays; the cold compile's median moved with
	// the file system's noise by up to a quarter between runs, and the
	// cold pipeline stays gated through the cold-pass throughput.
	compileUS, warmUS := median(cold), median(warm)
	s.set("p50_ms", "ms", warmUS/1e3)
	s.set("throughput_per_s", "1/s", float64(kernelsDone)/coldWall)
	s.note("compile_p50_us      %.2f us (cold Runtime.Compile; tail %s us)", compileUS, tailLabel(cold))
	s.note("warm_compile_p50_us %.2f us (disk-cache hit in a fresh runtime; tail %s us)", warmUS, tailLabel(warm))
	s.note("kernels_per_s       %.2f 1/s (stage→compile→call→check, %d kernels in %d rounds)",
		float64(kernelsDone)/coldWall, kernelsDone, len(rounds))
	return nil
}
