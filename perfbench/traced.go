package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dsl"
	"repro/internal/irverify"
	"repro/internal/isa"
	"repro/internal/kernelc"
	"repro/internal/kernels"
	"repro/internal/plan"
	"repro/internal/vm"
)

// runTraced is the traced run. It measures every layer on the workload
// that exercises it — the figures replica (LMS and Java lanes, cost
// model, sweep harness), a kernel-dev round (staging, verifier, C
// emission, lowering, compile cache and disk cache) and a serve-mix
// open loop (daemon, planner, load generator) — so it reports every
// per-layer metric whichever workload is named. End-to-end metrics
// come from untraced runs; the issue-named end-to-end figures it
// prints come from the untraced halves of its legs.
func runTraced(s *session) error {
	t0 := time.Now()
	irverify.SpecIndex() // first use in this process builds the index
	s.set("xmlspec.index_ms", "ms", float64(time.Since(t0).Nanoseconds())/1e6)

	// Interpreter frame-pool and parallel-tier traffic over every leg:
	// the figures' two lanes and the daemon's planner-chosen strategies.
	gets0, news0 := kernelc.PoolStats()
	_, runs0, fall0, _, _ := kernelc.ParStats()
	for _, leg := range []func(*session) error{traceFigures, traceKernelDev, traceServeMix, tracePlanner} {
		if err := leg(s); err != nil {
			return err
		}
	}
	gets1, news1 := kernelc.PoolStats()
	_, runs1, fall1, _, _ := kernelc.ParStats()
	s.set("kernelc.frame_recycle_frac", "ratio", ratio(float64((gets1-gets0)-(news1-news0)), float64(gets1-gets0)))
	s.set("kernelc.par_shard_frac", "ratio", ratio(float64(runs1-runs0), float64(runs1-runs0+fall1-fall0)))
	s.set("failed_frac", "ratio", float64(s.failed)/float64(max(s.attempted, 1)))
	for _, name := range sortedKeys(s.metrics) {
		s.note("%-28s %14.6g %s", name, s.metrics[name].Value, s.metrics[name].Unit)
	}
	return nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traceFigures runs each figure untraced through Suite.RunFigure, then
// replays it traced, checking that the replica renders the same table
// from the same dynamic op total.
func traceFigures(s *session) error {
	suite, err := newFigureSuite()
	if err != nil {
		return err
	}
	ref, err := readRef()
	if err != nil {
		return err
	}
	tr := newTracer()
	var untraced, traced time.Duration
	var stagedOps, javaOps int64
	for _, fig := range bench.FigureNames() {
		suite.SweepCounts = vm.Counter{}
		t0 := time.Now()
		text, err := suite.RunFigure(fig, nil)
		d := time.Since(t0)
		untraced += d
		s.set("bench."+fig+"_s", "s", d.Seconds())
		if err == nil {
			err = checkFigure(ref, fig, text)
		}
		s.check(err)
		if err != nil {
			continue
		}
		want := suite.SweepCounts.Total()
		res, err := replayFigure(suite, fig, text)
		s.check(err)
		if err != nil {
			continue
		}
		traced += res.wall
		tr.merge(res.tr)
		stagedOps += res.stagedOps
		javaOps += res.javaOps
		switch {
		case res.text != text:
			err = fmt.Errorf("%s replica: table differs from the suite's", fig)
		case res.ops != want:
			err = fmt.Errorf("%s replica: %d vm ops, untraced sweep %d", fig, res.ops, want)
		}
		s.check(err)
		s.note("%s replica: vm ops %d = untraced SweepCounts.Total() %d: %v", fig, res.ops, want, res.ops == want)
	}

	callS, invokeS := tr.seconds(callSpan), tr.seconds(invokeSpan)
	s.set("figure_s", "s", untraced.Seconds())
	s.set("lms.call_s", "s", callS)
	s.set("lms.ns_per_op", "ns", ratio(callS*1e9, float64(stagedOps)))
	s.set("hotspot.invoke_s", "s", invokeS)
	s.set("hotspot.ns_per_op", "ns", ratio(invokeS*1e9, float64(javaOps)))
	s.set("hotspot.load_ms", "ms", tr.seconds(loadSpan)*1e3)
	s.set("machine.estimate_s", "s", tr.seconds(estimateSpan))
	s.set("vm.ops", "count", float64(stagedOps+javaOps))
	st := suite.RT.CacheStats()
	s.set("core.cache_hit_ratio", "ratio", ratio(float64(st.Hits), float64(st.Hits+st.Misses)))

	worker := tr.seconds(pointSpan)
	covered := 0.0
	for _, name := range pointLayers {
		covered += tr.seconds(name)
	}
	s.set("bench.covered_frac", "ratio", ratio(covered, worker))
	s.set("obs.overhead_frac", "ratio", ratio(traced.Seconds(), untraced.Seconds())-1)
	s.note("figures replica: worker time %.3f s, layer spans %.3f s; unattributed %.3f s is the harness's own work between calls (counter reset/merge/scale, median of reps)",
		worker, covered, worker-covered)
	for _, name := range tr.names() {
		s.note("  span %-18s %6d  %10.4f s", name, tr.count(name), tr.seconds(name))
	}

	allocs, err := lmsAllocsPerOp(suite)
	if err != nil {
		return err
	}
	s.set("vm.allocs_per_op", "count", allocs)
	return nil
}

// lmsAllocsPerOp measures steady-state heap allocations per dynamic vm
// op on the LMS lane: the figures' staged kernels called repeatedly on
// one goroutine after a warm-up call.
func lmsAllocsPerOp(suite *bench.Suite) (float64, error) {
	rt := suite.RT.Fork()
	fs := rt.Arch.Features
	const n, mn = 4096, 32
	a, b := vm.PinF32(randSlice(n, 1)), vm.PinF32(randSlice(n, 2))
	ma, mb, mc := vm.PinF32(randSlice(mn*mn, 3)), vm.PinF32(randSlice(mn*mn, 4)), vm.PinF32(make([]float32, mn*mn))
	saxpy, err := rt.Compile(kernels.StagedSaxpy(fs))
	if err != nil {
		return 0, err
	}
	mmm, err := rt.Compile(kernels.StagedMMM(fs))
	if err != nil {
		return 0, err
	}
	dk, err := kernels.StagedDot(32, fs)
	if err != nil {
		return 0, err
	}
	dot, err := rt.Compile(dk)
	if err != nil {
		return 0, err
	}
	calls := func() error {
		if _, err := saxpy.Call(a, b, float32(2.5), n); err != nil {
			return err
		}
		if _, err := mmm.Call(ma, mb, mc, mn); err != nil {
			return err
		}
		_, err := dot.CallValues(vm.PtrValue(a, 0), vm.PtrValue(b, 0), vm.IntValue(n))
		return err
	}
	if err := calls(); err != nil {
		return 0, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ops0 := rt.Machine.Counts.Total()
	for i := 0; i < 50; i++ {
		if err := calls(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	return ratio(float64(m1.Mallocs-m0.Mallocs), float64(rt.Machine.Counts.Total()-ops0)), nil
}

// traceKernelDev runs one untraced kernel-dev round (the issue-named
// compile figures) and one traced round over the next kernels of the
// stream (the compile pipeline's layers, timed from outside).
func traceKernelDev(s *session) error {
	ix := irverify.SpecIndex()
	plain, err := runDevRound(s, devStream(s.seed, 0, ix), nil)
	if err != nil {
		return err
	}
	s.set("compile_p50_us", "us", median(plain.cold))
	s.set("warm_compile_p50_us", "us", median(plain.warm))
	s.set("kernels_per_s", "1/s", ratio(float64(plain.kernels), plain.coldWall))

	tr := newTracer()
	full0 := core.FullCompiles()
	res, err := runDevRound(s, devStream(s.seed, 1, ix), tr)
	if err != nil {
		return err
	}
	s.set("dsl.stage_us", "us", tr.p50us("dsl.stage"))
	s.set("irverify.verify_us", "us", tr.p50us("irverify.verify"))
	s.set("cgen.emit_us", "us", tr.p50us("cgen.emit"))
	s.set("cgen.c_bytes", "bytes", ratio(float64(res.cBytes), float64(res.n)))
	s.set("kernelc.lower_us", "us", tr.p50us("kernelc.lower"))
	s.set("kernelc.fused_chains", "count", ratio(float64(res.fused), float64(res.n)))
	s.set("kernelc.hoisted", "count", ratio(float64(res.hoisted), float64(res.n)))
	s.set("core.compile_overhead_us", "us", median(res.overhead))
	s.set("core.full_compiles", "count", float64(core.FullCompiles()-full0))
	s.set("core.disk_hit_ratio", "ratio", ratio(float64(res.disk.Hits), float64(res.disk.Hits+res.disk.Misses)))
	s.set("core.disk_bytes", "bytes", float64(res.diskBytes))
	return nil
}

// traceServeMix runs the serve-mix open loop with client-side spans
// around every request and reads the daemon's own timestamps and
// counters from its records, /metrics and /healthz.
func traceServeMix(s *session) error {
	sched := genSchedule(s.seed, serveLoadSeconds(s))
	tr := newTracer()
	run, err := runOpenLoop(s, sched, tr)
	if err != nil {
		return err
	}
	var queue, exec []float64
	for _, o := range run.outcomes {
		s.check(o.err)
		r := o.rec
		if o.done && o.err == nil && !r.Cached && r.CoalescedWith == "" {
			queue = append(queue, float64(r.StartedNS-r.CreatedNS)/1e6)
			exec = append(exec, float64(r.FinishedNS-r.StartedNS)/1e6)
		}
	}
	sm := summarize(run)
	nom := sm.steps[serveNominal]
	_, nomTail, _ := tail(nom.lat)
	_, queueTail, _ := tail(queue)
	_, execTail, _ := tail(exec)
	_, lagTail, _ := tail(lagsMS(run))
	m := func(name string) float64 { return float64(run.metrics[name]) }
	s.set("job_p50_ms", "ms", finite(nom.p50))
	s.set("job_p99_ms", "ms", finite(nomTail))
	s.set("max_jobs_per_s", "1/s", sm.maxRate)
	s.set("server.submit_p50_ms", "ms", median(micros(run.submit))/1e3)
	s.set("server.queue_wait_p99_ms", "ms", queueTail)
	s.set("server.exec_p50_ms", "ms", median(exec))
	s.set("server.exec_p99_ms", "ms", execTail)
	s.set("server.resultcache_hit_ratio", "ratio",
		ratio(m("server.resultcache.hits"), m("server.resultcache.hits")+m("server.resultcache.misses")))
	s.set("server.coalesced_frac", "ratio", ratio(m("server.coalesce.followers"), float64(len(run.outcomes))))
	s.set("server.rejected", "count", m("server.jobs.rejected"))
	s.set("server.store_bytes", "bytes", float64(run.storeB))
	s.set("server.compiles", "count", float64(run.compiles))
	s.set("loadgen.lag_p99_ms", "ms", lagTail)
	s.note("serve-mix: %d jobs, tails use the highest percentile with >=10 samples beyond (nominal %s ms)%s",
		len(run.outcomes), tailLabel(nom.lat), behind(lagTail))
	return nil
}

// planTarget is one kernel the planner leg calibrates: the serve-mix
// kernels at one size per working-set bucket they cover.
type planTarget struct {
	stage func(fs isa.FeatureSet) (*dsl.Kernel, error)
	sizes []int
	args  func(n int) []vm.Value
}

// planRounds bounds the calls per size: one install plus a probe sweep
// over every unpruned candidate fits well inside it.
const planRounds = 16

// tracePlanner measures the adaptive planner the way a fresh ngend
// meets it, but without load: a runtime in auto mode over a fresh cache
// directory calls each target until every plan has calibrated, and the
// planner's own counters give its decision and probe traffic. (The
// serve-mix daemon runs with the planner off; see RATIONALE.md.)
func tracePlanner(s *session) error {
	dir, err := os.MkdirTemp(s.dir, "plan-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rt := core.DefaultRuntime()
	if rt.Disk, err = core.OpenDiskCache(dir, 0); err != nil {
		return err
	}
	rt.EnableAutoPlan()
	linear := func(n int) []vm.Value {
		return []vm.Value{vm.PtrValue(vm.PinF32(randSlice(n, 1)), 0), vm.PtrValue(vm.PinF32(randSlice(n, 2)), 0),
			vm.F32Value(2.5), vm.IntValue(n)}
	}
	octaves := []int{1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14, 1 << 15, 1 << 16}
	targets := []planTarget{
		{func(fs isa.FeatureSet) (*dsl.Kernel, error) { return kernels.StagedSaxpy(fs), nil }, octaves, linear},
		{func(fs isa.FeatureSet) (*dsl.Kernel, error) { return kernels.StagedDot(32, fs) }, octaves,
			func(n int) []vm.Value { return append(linear(n)[:2], vm.IntValue(n)) }},
		{func(fs isa.FeatureSet) (*dsl.Kernel, error) { return kernels.StagedMMM(fs), nil }, []int{16, 32, 64},
			func(n int) []vm.Value {
				return []vm.Value{vm.PtrValue(vm.PinF32(randSlice(n*n, 3)), 0), vm.PtrValue(vm.PinF32(randSlice(n*n, 4)), 0),
					vm.PtrValue(vm.PinF32(make([]float32, n*n)), 0), vm.IntValue(n)}
			}},
	}
	t0 := time.Now()
	for _, t := range targets {
		k, err := t.stage(rt.Arch.Features)
		if err != nil {
			return err
		}
		kn, err := rt.Compile(k)
		if err != nil {
			return err
		}
		for _, n := range t.sizes {
			args := t.args(n)
			// The first call installs this size's plan; calls then
			// continue until every plan of the kernel has calibrated.
			for i := 0; i < planRounds; i++ {
				_, err := kn.CallValues(args...)
				s.check(err)
				if calibrated(rt.Planner.KernelViews(kn.Func().Name)) {
					break
				}
			}
		}
	}
	st := rt.Planner.Stats()
	s.set("plan.decisions", "count", float64(st["decisions"]))
	s.set("plan.probes", "count", float64(st["probes"]))
	s.set("plan.probe_frac", "ratio", ratio(float64(st["probes"]), float64(st["decisions"])))
	s.set("plan.mispredicts", "count", float64(st["mispredict"]))
	s.note("planner: %d plans calibrated in %.3f s (%d decisions, %d probes, %d mispredicts)",
		len(rt.Planner.Snapshot()), time.Since(t0).Seconds(), st["decisions"], st["probes"], st["mispredict"])
	return nil
}

// calibrated reports whether every plan in views has calibrated (false
// before the first plan exists).
func calibrated(views []plan.View) bool {
	for _, v := range views {
		if !v.Calibrated {
			return false
		}
	}
	return len(views) > 0
}

// finite maps a refused/failed (+Inf) tail to a large sentinel so the
// JSON stays valid; such a run is also marked incorrect.
func finite(v float64) float64 {
	if math.IsInf(v, 0) {
		return math.MaxFloat32
	}
	return v
}
