package core

// Planned execution: with a Planner attached the runtime defers the
// (backend, lanes) choice to the adaptive planner (internal/plan) per
// kernel × size bucket. Every strategy executes the identical counted
// op stream, so planning changes wall time only — results, writes,
// dynamic counts, and therefore figure bytes are invariant (pinned by
// the backend/parallel differential suites and
// TestAutoPlanDifferential).

import (
	"errors"
	"time"

	"repro/internal/backend"
	"repro/internal/machine"
	"repro/internal/plan"
	"repro/internal/vm"
)

// defaultSpec is the planner's safe incumbent: the static runtime's
// behavior (interpreter, serial). A cold key's first invocation always
// runs it.
var defaultSpec = plan.StrategySpec{Backend: "vm", Lanes: 1}

// plannedBackend names the registered backend whose prebuilt
// executables serve the planner's native candidate (tests substitute a
// counting stub).
var plannedBackend = "native"

// EnableAutoPlan switches the runtime to planner-driven execution: a
// Planner is attached (sharing the disk cache for plan persistence
// when one is present). Idempotent; kernels compiled earlier plan too,
// and forks made afterwards share the planner, so calibration from any
// worker benefits all of them.
func (rt *Runtime) EnableAutoPlan() {
	if rt.Planner == nil {
		rt.Planner = plan.New()
	}
	if rt.Disk != nil {
		rt.Planner.SetStore(rt.Disk)
	}
}

// plannedNative returns the native executable the planner may route
// to: the runtime backend's own executable when it compiled one,
// otherwise a prebuilt plugin resolved once per artifact without ever
// paying a toolchain build — only a process-memo or blob-store hit
// (backend.CachedCompiler) qualifies. Cold caches simply plan without
// a native candidate; `ngen plan` builds plugins eagerly so warm runs
// have one.
func (kn *Kernel) plannedNative() backend.Executable {
	a := kn.art
	if a.exec != nil {
		return a.exec
	}
	a.plannedOnce.Do(func() {
		be, err := backend.Lookup(plannedBackend)
		if err != nil || be.Available() != nil {
			return
		}
		if sa, ok := be.(backend.StoreAware); ok && kn.rt.Disk != nil {
			sa.SetStore(kn.rt.Disk)
		}
		if cc, ok := be.(backend.CachedCompiler); ok {
			a.planned, _ = cc.CompileCached(a.f)
		}
	})
	return a.planned
}

// run routes one invocation: planner-driven when a Planner is
// attached, the static artifact path otherwise.
func (kn *Kernel) run(m *vm.Machine, args ...vm.Value) (vm.Value, error) {
	if kn.rt.Planner == nil {
		return kn.art.run(m, args...)
	}
	return kn.runPlanned(m, args...)
}

// runPlanned executes under the planner. A cold (hash, arch, bucket)
// key runs the default strategy, installs every admissible candidate,
// and records that run as the default's first probe — exploration is
// amortized over real invocations, never extra runs. Known keys
// execute whatever Decide returns (a calibration probe or the
// calibrated winner) and report the measured time back.
func (kn *Kernel) runPlanned(m *vm.Machine, args ...vm.Value) (vm.Value, error) {
	rt := kn.rt
	key := plan.Key{Hash: kn.art.hash, Arch: rt.Arch.Name, Bucket: plan.Bucket(footprint(args))}
	d, ok := rt.Planner.Decide(key)
	if !ok {
		d.Spec = defaultSpec
	}
	start := time.Now()
	out, err := kn.execStrategy(m, d.Spec, args)
	elapsed := time.Since(start)
	if err != nil {
		return out, err
	}
	if !ok {
		kn.installPlan(key)
	}
	rt.Planner.Observe(key, d.Spec, float64(elapsed.Nanoseconds()))
	return out, nil
}

// installPlan registers the admissible strategies for one cold key,
// the default first: the serial interpreter, native when an executable
// is on hand, and the machine's lane budget when the kernel has a loop
// the dependence analysis proves independent.
func (kn *Kernel) installPlan(key plan.Key) {
	specs := []plan.StrategySpec{defaultSpec}
	if kn.plannedNative() != nil {
		specs = append(specs, plan.StrategySpec{Backend: "native", Lanes: 1})
	}
	if w := kn.rt.Machine.Workers; w > 1 && machine.ParallelEligible(kn.art.f) {
		specs = append(specs, plan.StrategySpec{Backend: "vm", Lanes: w})
	}
	kn.rt.Planner.Install(key, kn.art.f.Name, specs)
}

// CallStrategy invokes the kernel once under an explicit strategy,
// bypassing the planner's decision and bookkeeping (one JNI crossing is
// still counted). `ngen plan -check` uses it to re-time every
// candidate after calibration.
func (kn *Kernel) CallStrategy(s plan.StrategySpec, args ...vm.Value) (vm.Value, error) {
	kn.rt.Machine.Counts.Add(JNICall, 1)
	return kn.execStrategy(kn.rt.Machine, s, args)
}

// execStrategy runs one invocation under an explicit strategy. The
// serial strategies force the machine's lane budget off so a runtime
// configured with workers still measures a true serial baseline; the
// parallel strategy installs the planner's lane count and chunk hint
// for the duration of the call.
func (kn *Kernel) execStrategy(m *vm.Machine, s plan.StrategySpec, args []vm.Value) (vm.Value, error) {
	if s.Backend == "native" {
		if exe := kn.plannedNative(); exe != nil {
			out, err := exe.Run(m, args...)
			if !errors.Is(err, backend.ErrFallback) {
				return out, err
			}
		}
		// The executable declined this particular call (cache simulator
		// attached, argument shape mismatch): the interpreter serves it.
	}
	savedW, savedH := m.Workers, m.ChunkHint
	if s.Lanes > 1 {
		m.Workers, m.ChunkHint = s.Lanes, int64(s.Chunk)
	} else {
		m.Workers, m.ChunkHint = 0, 0
	}
	out, err := kn.art.prog.Run(m, args...)
	m.Workers, m.ChunkHint = savedW, savedH
	return out, err
}

// footprint sums the byte sizes of the invocation's pinned buffers —
// the working set the size bucket is derived from. Scalar arguments
// contribute nothing: strategy crossovers track memory traffic.
func footprint(args []vm.Value) int64 {
	var b int64
	for i := range args {
		if args[i].Mem != nil {
			b += int64(len(args[i].Mem.Data))
		}
	}
	return b
}
