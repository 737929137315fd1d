package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dsl"
	"repro/internal/hotspot"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/quant"
	"repro/internal/vm"
)

// The traced figures replica replays each figure's size points through
// the same public calls bench.Suite makes — Runtime.Compile,
// Kernel.Call, hotspot VM.Load / Method.InvokeAt, Estimator.Estimate /
// Method.Estimate — with a span around each, so every second of a
// sweep point belongs to a layer. It rebuilds the suite's inputs (same
// seeds, same quantization draw order) and its median-of-reps
// estimate, so its rendered table must equal the suite's byte for
// byte and its dynamic op total must equal Suite.SweepCounts.Total():
// that is the work-identity check that the replica measures the same
// work as the untraced sweep.

// Span names of the figures replica. pointSpan is the worker time of
// one size point; the others are the layer spans inside it.
const (
	pointSpan    = "bench.point"
	inputsSpan   = "bench.inputs"
	stageSpan    = "dsl.stage"
	compileSpan  = "core.compile"
	callSpan     = "lms.call"
	loadSpan     = "hotspot.load"
	invokeSpan   = "hotspot.invoke"
	estimateSpan = "machine.estimate"
)

// pointLayers are the spans that attribute a point's worker time.
var pointLayers = []string{stageSpan, compileSpan, callSpan, loadSpan, invokeSpan, estimateSpan}

// replicaLane is one series measured at one size point: a staged
// kernel on the LMS lane or a Java method on the HotSpot lane.
type replicaLane struct {
	series    int
	name      string // per-worker memo key, as the suite's
	stage     func() (*dsl.Kernel, error)
	build     func() (*ir.Func, error)
	call      func(kn *core.Kernel, rn int) error
	invoke    func(m *hotspot.Method, rn int) error
	flops     func(int) int64
	n, runN   int
	footprint int
}

// replicaFigure is one figure's replay plan.
type replicaFigure struct {
	series []string // series names in table order
	points [][]replicaLane
	row    []int // point index → the table row its lanes fill
}

// replicaWorker owns what a suite sweep worker owns: a forked runtime,
// a private JVM and estimator, per-worker kernel and method memos, and
// its own span recorder and op totals.
type replicaWorker struct {
	rt      *core.Runtime
	jvm     *hotspot.VM
	est     *machine.Estimator
	kernels map[string]*core.Kernel
	methods map[string]*hotspot.Method
	tr      *tracer
	total   vm.Counter
	// stagedOps / javaOps are the op totals of each lane's calls.
	stagedOps, javaOps int64
	scaled             vm.Counter
}

// replicaResult is what one figure's replay produced.
type replicaResult struct {
	text               string
	ops                int64
	stagedOps, javaOps int64
	wall               time.Duration
	tr                 *tracer
}

func randSlice(n int, seed uint64) []float32 {
	rng := vm.NewXorshift(seed)
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(rng.Uniform()*2 - 1)
	}
	return out
}

// planFigure builds one figure's replay plan with the suite's inputs.
func planFigure(suite *bench.Suite, figure string) (*replicaFigure, error) {
	sizes, err := bench.FigureSizes(figure, false)
	if err != nil {
		return nil, err
	}
	fs := suite.RT.Arch.Features
	staged := func(series int, name string, stage func() (*dsl.Kernel, error),
		call func(kn *core.Kernel, rn int) error, flops func(int) int64, n, runN, fp int) replicaLane {
		return replicaLane{series: series, name: name, stage: stage, call: call, flops: flops, n: n, runN: runN, footprint: fp}
	}
	java := func(series int, name string, build func() (*ir.Func, error),
		invoke func(m *hotspot.Method, rn int) error, flops func(int) int64, n, runN, fp int) replicaLane {
		return replicaLane{series: series, name: name, build: build, invoke: invoke, flops: flops, n: n, runN: runN, footprint: fp}
	}
	c2 := func(m *hotspot.Method, args ...vm.Value) error {
		_, err := m.InvokeAt(hotspot.TierC2, args...)
		return err
	}

	rf := &replicaFigure{}
	switch figure {
	case "fig6a":
		rf.series = []string{"Java SAXPY", "LMS generated SAXPY"}
		for _, n := range sizes {
			runN := min(n, suite.MaxRunLinear)
			a, b := vm.PinF32(randSlice(runN, 1)), vm.PinF32(randSlice(runN, 2))
			rf.points = append(rf.points, []replicaLane{
				staged(1, "saxpy", func() (*dsl.Kernel, error) { return kernels.StagedSaxpy(fs), nil },
					func(kn *core.Kernel, rn int) error { _, err := kn.Call(a, b, float32(2.5), rn); return err },
					kernels.SaxpyFlops, n, runN, 8*n),
				java(0, "java-saxpy", func() (*ir.Func, error) { return kernels.JavaSaxpy(fs), nil },
					func(m *hotspot.Method, rn int) error {
						return c2(m, vm.PtrValue(a, 0), vm.PtrValue(b, 0), vm.F32Value(2.5), vm.IntValue(rn))
					}, kernels.SaxpyFlops, n, runN, 8*n),
			})
		}
	case "fig6b":
		rf.series = []string{"Java MMM (triple loop)", "Java MMM", "LMS generated MMM"}
		for _, n := range sizes {
			runN := min(n, suite.MaxRunCubic)
			a, b := vm.PinF32(randSlice(runN*runN, 3)), vm.PinF32(randSlice(runN*runN, 4))
			c := vm.PinF32(make([]float32, runN*runN))
			inv := func(m *hotspot.Method, rn int) error {
				return c2(m, vm.PtrValue(a, 0), vm.PtrValue(b, 0), vm.PtrValue(c, 0), vm.IntValue(rn))
			}
			rf.points = append(rf.points, []replicaLane{
				staged(2, "mmm", func() (*dsl.Kernel, error) { return kernels.StagedMMM(fs), nil },
					func(kn *core.Kernel, rn int) error { _, err := kn.Call(a, b, c, rn); return err },
					kernels.MMMFlops, n, runN, 12*n*n),
				java(0, "java-mmm-triple", func() (*ir.Func, error) { return kernels.JavaMMMTriple(fs), nil },
					inv, kernels.MMMFlops, n, runN, 12*n*n),
				java(1, "java-mmm-blocked", func() (*ir.Func, error) { return kernels.JavaMMMBlocked(fs), nil },
					inv, kernels.MMMFlops, n, runN, 12*n*n),
			})
		}
	case "fig7":
		bitsList := []int{32, 16, 8, 4}
		for _, bits := range bitsList {
			rf.series = append(rf.series, fmt.Sprintf("Java %d-bit", bits))
		}
		for _, bits := range bitsList {
			rf.series = append(rf.series, fmt.Sprintf("LMS generated %d-bit", bits))
		}
		// Java series first, then LMS — the suite's point order. Each
		// series consumes its own RNG across its sizes in order.
		for si, bits := range bitsList {
			rng := vm.NewXorshift(4321)
			for _, n := range sizes {
				runN := min(n, suite.MaxRunLinear)
				args := javaDotArgs(bits, runN, rng)
				rf.points = append(rf.points, []replicaLane{java(si, fmt.Sprintf("java-dot-%d", bits),
					func() (*ir.Func, error) { return kernels.JavaDot(bits, fs) },
					func(m *hotspot.Method, rn int) error { return c2(m, args(rn)...) },
					kernels.DotOps, n, runN, dotFootprint(bits, n))})
			}
		}
		for si, bits := range bitsList {
			rng := vm.NewXorshift(1234)
			for _, n := range sizes {
				runN := min(n, suite.MaxRunLinear)
				args := dotArgs(bits, runN, rng)
				rf.points = append(rf.points, []replicaLane{staged(len(bitsList)+si, fmt.Sprintf("dot-%d", bits),
					func() (*dsl.Kernel, error) { return kernels.StagedDot(bits, fs) },
					func(kn *core.Kernel, rn int) error { _, err := kn.CallValues(args(rn)...); return err },
					kernels.DotOps, n, runN, dotFootprint(bits, n))})
			}
		}
	default:
		return nil, fmt.Errorf("replica: unknown figure %q", figure)
	}
	// fig6a/fig6b have one point per row; fig7's points run
	// series-major over the size axis.
	rf.row = make([]int, len(rf.points))
	for i := range rf.points {
		rf.row[i] = i % len(sizes)
	}
	return rf, nil
}

func dotFootprint(bits, n int) int {
	switch bits {
	case 32:
		return 8 * n
	case 16:
		return 4 * n
	case 8:
		return 2 * n
	default:
		return n
	}
}

func ptrArgs(extra []vm.Value, bufs ...*vm.Buffer) func(rn int) []vm.Value {
	return func(rn int) []vm.Value {
		out := make([]vm.Value, 0, len(bufs)+len(extra)+1)
		for _, b := range bufs {
			out = append(out, vm.PtrValue(b, 0))
		}
		out = append(out, extra...)
		return append(out, vm.IntValue(rn))
	}
}

// dotArgs rebuilds the LMS lane's quantized dot-product inputs.
func dotArgs(bits, runN int, rng *vm.Xorshift) func(rn int) []vm.Value {
	a, b := randSlice(runN, 7), randSlice(runN, 8)
	switch bits {
	case 32:
		return ptrArgs(nil, vm.PinF32(a), vm.PinF32(b))
	case 16:
		return ptrArgs(nil, vm.PinU16(quant.EncodeF16(a).Data), vm.PinU16(quant.EncodeF16(b).Data))
	case 8:
		qa, qb := quant.QuantizeQ8(a, rng), quant.QuantizeQ8(b, rng)
		return ptrArgs([]vm.Value{vm.F32Value(1 / (qa.Scale * qb.Scale))}, vm.PinI8(qa.Data), vm.PinI8(qb.Data))
	default:
		qa, qb := quant.QuantizeQ4(a, rng), quant.QuantizeQ4(b, rng)
		lut := vm.PinI8(kernels.DecodeLUT4())
		return ptrArgs([]vm.Value{vm.PtrValue(lut, 0), vm.F32Value(1 / (qa.Scale * qb.Scale))},
			vm.PinU8(qa.Data), vm.PinU8(qb.Data))
	}
}

// javaDotArgs rebuilds the Java lane's inputs (16-bit Java uses scaled
// shorts; 4-bit Java takes no lookup table).
func javaDotArgs(bits, runN int, rng *vm.Xorshift) func(rn int) []vm.Value {
	switch bits {
	case 32, 8:
		return dotArgs(bits, runN, rng)
	case 16:
		a, b := randSlice(runN, 7), randSlice(runN, 8)
		sa, sb := quant.Scale(a, 16), quant.Scale(b, 16)
		qa, qb := make([]int16, runN), make([]int16, runN)
		for i := range a {
			qa[i] = int16(a[i] * sa)
			qb[i] = int16(b[i] * sb)
		}
		return ptrArgs([]vm.Value{vm.F32Value(1 / (sa * sb))}, vm.PinI16(qa), vm.PinI16(qb))
	default:
		a, b := randSlice(runN, 7), randSlice(runN, 8)
		qa, qb := quant.QuantizeQ4(a, rng), quant.QuantizeQ4(b, rng)
		return ptrArgs([]vm.Value{vm.F32Value(1 / (qa.Scale * qb.Scale))}, vm.PinU8(qa.Data), vm.PinU8(qb.Data))
	}
}

// replayFigure runs one figure's replica over as many workers as the
// suite sweeps with and renders its table with bench.Format, under the
// title and metric label of the suite's own rendering (want).
func replayFigure(suite *bench.Suite, figure, want string) (*replicaResult, error) {
	tr := newTracer()
	t0 := time.Now()
	var rf *replicaFigure
	err := tr.span(inputsSpan, func() (err error) {
		rf, err = planFigure(suite, figure)
		return err
	})
	if err != nil {
		return nil, err
	}
	rows := len(rf.points)
	if figure == "fig7" {
		rows /= len(rf.series)
	}
	out := make([]bench.Series, len(rf.series))
	for i, name := range rf.series {
		out[i] = bench.Series{Name: name, Points: make([]bench.Point, rows)}
	}

	workers := make([]*replicaWorker, max(suite.Workers, 1))
	for i := range workers {
		workers[i] = &replicaWorker{rt: suite.RT.Fork(), jvm: hotspot.NewVM(suite.JVM.Arch),
			est: machine.NewEstimator(suite.RT.Arch), kernels: map[string]*core.Kernel{},
			methods: map[string]*hotspot.Method{}, tr: newTracer(), total: vm.Counter{}, scaled: vm.Counter{}}
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	for _, w := range workers {
		wg.Add(1)
		go func(w *replicaWorker) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(rf.points) {
					return
				}
				err := w.tr.span(pointSpan, func() error {
					for _, ln := range rf.points[i] {
						p, err := w.measure(suite, ln)
						if err != nil {
							return err
						}
						out[ln.series].Points[rf.row[i]] = p
					}
					return nil
				})
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	res := &replicaResult{tr: tr}
	for _, w := range workers {
		tr.merge(w.tr)
		res.ops += w.total.Total()
		res.stagedOps += w.stagedOps
		res.javaOps += w.javaOps
	}
	title, metric, err := tableHeader(want)
	if err != nil {
		return nil, err
	}
	res.text = bench.Format(title, metric, out)
	res.wall = time.Since(t0)
	return res, nil
}

// tableHeader recovers a rendered figure's title (its first line) and
// metric label (the legend's first field).
func tableHeader(text string) (title, metric string, err error) {
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	legend := lines[len(lines)-1]
	i := strings.IndexByte(legend, ';')
	if len(lines) < 3 || !strings.HasPrefix(legend, "(") || i < 0 {
		return "", "", fmt.Errorf("replica: unrecognised figure table layout")
	}
	return lines[0], legend[1:i], nil
}

// measure runs one lane at one point: memoized compile or load, then
// the suite's reps of (reset counts, call, scale, estimate), reporting
// the median-performance point.
func (w *replicaWorker) measure(suite *bench.Suite, ln replicaLane) (bench.Point, error) {
	var (
		run     func(rn int) error
		counts  vm.Counter
		javaM   *hotspot.Method
		stagedK *core.Kernel
	)
	if ln.stage != nil {
		kn, ok := w.kernels[ln.name]
		if !ok {
			var k *dsl.Kernel
			if err := w.tr.span(stageSpan, func() (err error) { k, err = ln.stage(); return err }); err != nil {
				return bench.Point{}, err
			}
			if err := w.tr.span(compileSpan, func() (err error) { kn, err = w.rt.Compile(k); return err }); err != nil {
				return bench.Point{}, err
			}
			w.kernels[ln.name] = kn
		}
		stagedK = kn
		counts = w.rt.Machine.Counts
		run = func(rn int) error { return w.tr.span(callSpan, func() error { return ln.call(kn, rn) }) }
	} else {
		m, ok := w.methods[ln.name]
		if !ok {
			f, err := ln.build()
			if err != nil {
				return bench.Point{}, err
			}
			if err := w.tr.span(loadSpan, func() (err error) { m, err = w.jvm.Load(f); return err }); err != nil {
				return bench.Point{}, err
			}
			w.methods[ln.name] = m
		}
		javaM = m
		counts = w.jvm.Machine.Counts
		run = func(rn int) error { return w.tr.span(invokeSpan, func() error { return ln.invoke(m, rn) }) }
	}

	perfs := make([]float64, 0, suite.Reps)
	var rep machine.Report
	for r := 0; r < suite.Reps; r++ {
		counts.Reset()
		if err := run(ln.runN); err != nil {
			return bench.Point{}, err
		}
		ops := counts.Total()
		if stagedK != nil {
			w.stagedOps += ops
		} else {
			w.javaOps += ops
		}
		w.total.Merge(counts)
		c := counts
		if ln.runN != ln.n {
			c = w.scale(counts, float64(ln.flops(ln.n))/float64(ln.flops(ln.runN)))
		}
		w.tr.span(estimateSpan, func() error {
			if stagedK != nil {
				rep = w.est.Estimate(stagedK.Func(), c, ln.footprint)
			} else {
				rep = javaM.Estimate(hotspot.TierC2, c, ln.footprint)
			}
			return nil
		})
		perfs = append(perfs, machine.FlopsPerCycle(ln.flops(ln.n), rep))
	}
	sort.Float64s(perfs)
	return bench.Point{N: ln.n, Perf: perfs[len(perfs)/2], Bound: rep.Bound, Level: rep.Level}, nil
}

// scale extrapolates run-size counts to the full size by the work
// ratio; the per-invocation JNI crossing never scales.
func (w *replicaWorker) scale(c vm.Counter, factor float64) vm.Counter {
	w.scaled.Reset()
	for k, v := range c {
		if k == core.JNICall {
			w.scaled[k] = v
			continue
		}
		w.scaled[k] = int64(float64(v)*factor + 0.5)
	}
	return w.scaled
}
