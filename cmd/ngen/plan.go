package main

// ngen plan — the execution planner's calibration tool. It compiles a
// set of registry kernels in auto mode, drives each through
// representative size buckets until every plan calibrates, and prints
// the measured strategy tables the planner decided from. With -cachedir
// the calibrated plans persist next to the compile cache, so a
// subsequent run (or ngen -auto / ngend) starts warm: the `plan probes:
// 0` line on a second run is the CI plancheck gate's evidence that
// persistence works. See docs/PLANNER.md.

import (
	"flag"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dsl"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/plan"
	"repro/internal/vm"
)

// planTarget is one kernel the calibrator drives: how to stage it, the
// sizes spanning its interesting buckets, and how to build arguments.
type planTarget struct {
	name  string
	stage func(fs isa.FeatureSet) (*dsl.Kernel, error)
	sizes []int
	args  func(n int) []vm.Value
}

func planTargets() []planTarget {
	return []planTarget{
		{
			name:  "saxpy",
			stage: func(fs isa.FeatureSet) (*dsl.Kernel, error) { return kernels.StagedSaxpy(fs), nil },
			sizes: []int{1 << 6, 1 << 12, 1 << 16},
			args: func(n int) []vm.Value {
				a := vm.PinF32(make([]float32, n))
				y := vm.PinF32(make([]float32, n))
				return []vm.Value{vm.PtrValue(a, 0), vm.PtrValue(y, 0),
					vm.F32Value(2.5), vm.IntValue(n)}
			},
		},
		{
			name:  "mmm",
			stage: func(fs isa.FeatureSet) (*dsl.Kernel, error) { return kernels.StagedMMM(fs), nil },
			sizes: []int{16, 64},
			args: func(n int) []vm.Value {
				a := vm.PinF32(make([]float32, n*n))
				b := vm.PinF32(make([]float32, n*n))
				c := vm.PinF32(make([]float32, n*n))
				return []vm.Value{vm.PtrValue(a, 0), vm.PtrValue(b, 0),
					vm.PtrValue(c, 0), vm.IntValue(n)}
			},
		},
		{
			name:  "dot8",
			stage: func(fs isa.FeatureSet) (*dsl.Kernel, error) { return kernels.StagedDot(8, fs) },
			sizes: []int{1 << 8, 1 << 14},
			args: func(n int) []vm.Value {
				a := vm.PinI8(make([]int8, n))
				b := vm.PinI8(make([]int8, n))
				return []vm.Value{vm.PtrValue(a, 0), vm.PtrValue(b, 0),
					vm.F32Value(1), vm.IntValue(n)}
			},
		},
	}
}

// calibrateRounds bounds the invocations per size: install (1) plus a
// full probe sweep (≤3 candidates × plan.ProbeBudget) fits well inside
// it, and warm keys exit on the calibration check after one call.
const calibrateRounds = 16

// retimeRounds is how many interleaved rounds -check re-times every
// candidate for: one call per candidate per round, the order rotated
// each round so no strategy always runs first (cold) or last.
const retimeRounds = 5

// retimeSlack bounds -check's re-timing gate: the chosen strategy's
// fastest re-timed call may exceed the fastest re-timed call of any
// candidate by at most this factor. It is set from recorded cold runs
// of `ngen plan -check saxpy mmm dot8` on a shared 2-vCPU host; see
// docs/PLANNER.md for the recorded ratios.
const retimeSlack = 1.75

func planCmd(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ContinueOnError)
	cachedir := fs.String("cachedir", "", "persistent cache directory; calibrated plans are stored and reloaded here")
	check := fs.Bool("check", false, "verify every plan calibrates on its measured argmin and the chosen strategy re-times within retimeSlack of the best candidate (exit 1 otherwise)")
	par := fs.Int("par", runtime.NumCPU(), "lane budget for the parallel candidate (≤1 disables it)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	targets := planTargets()
	if fs.NArg() > 0 {
		byName := map[string]planTarget{}
		for _, t := range targets {
			byName[t.name] = t
		}
		targets = targets[:0]
		for _, name := range fs.Args() {
			t, ok := byName[name]
			if !ok {
				return fmt.Errorf("plan: unknown kernel %q (have saxpy, mmm, dot8)", name)
			}
			targets = append(targets, t)
		}
	}

	rt := core.DefaultRuntime()
	rt.Machine.Workers = *par
	if *cachedir != "" {
		d, err := core.OpenDiskCache(*cachedir, 0)
		if err != nil {
			return err
		}
		rt.Disk = d
	}

	// Eager native builds on a fork: auto mode never pays a toolchain
	// run mid-measurement (backend.CachedCompiler admits cache hits
	// only), so the calibrator builds the plugins up front. Hosts
	// without the native backend calibrate the interpreter alone.
	nrt := rt.Fork()
	if err := nrt.UseBackend("native"); err != nil {
		fmt.Printf("plan: native backend unavailable (%v); calibrating vm strategies only\n", err)
	} else {
		for _, t := range targets {
			k, err := t.stage(rt.Arch.Features)
			if err != nil {
				return err
			}
			if _, err := nrt.Compile(k); err != nil {
				return fmt.Errorf("plan: native build of %s: %w", t.name, err)
			}
		}
	}

	rt.EnableAutoPlan()

	var failures []string
	for _, t := range targets {
		k, err := t.stage(rt.Arch.Features)
		if err != nil {
			return err
		}
		kn, err := rt.Compile(k)
		if err != nil {
			return err
		}
		kernel := kn.Func().Name
		for _, n := range t.sizes {
			callArgs := t.args(n)
			for i := 0; i < calibrateRounds; i++ {
				if _, err := kn.CallValues(callArgs...); err != nil {
					return err
				}
				if i > 0 && allCalibrated(rt.Planner.KernelViews(kernel)) {
					break
				}
			}
		}
		views := rt.Planner.KernelViews(kernel)
		printPlanTable(kernel, views)
		if *check {
			fails, err := checkPlans(kn, t, views)
			if err != nil {
				return err
			}
			failures = append(failures, fails...)
		}
	}

	st := rt.Planner.Stats()
	fmt.Printf("plan probes: %d (plans %d, installs %d, loaded %d, persisted %d)\n",
		st["probes"], len(rt.Planner.Snapshot()), st["installs"],
		st["loads"], st["persists"])
	if len(failures) > 0 {
		return fmt.Errorf("plan check: %d failures:\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	return nil
}

func allCalibrated(views []plan.View) bool {
	if len(views) == 0 {
		return false
	}
	for _, v := range views {
		if !v.Calibrated {
			return false
		}
	}
	return true
}

// printPlanTable renders one kernel's plans: a block per size bucket
// with the full candidate table, the chosen row starred.
func printPlanTable(kernel string, views []plan.View) {
	fmt.Printf("plan: %s\n%s\n", kernel, strings.Repeat("=", len("plan: ")+len(kernel)))
	for _, v := range views {
		state := "calibrating"
		if v.Calibrated {
			state = "calibrated"
		}
		fmt.Printf("bucket %d (≲%s working set, arch %s) — %s\n",
			v.Bucket, bucketBytes(v.Bucket), v.Arch, state)
		fmt.Printf("  %-1s %-16s %12s %7s\n", "", "strategy", "meas ns", "probes")
		for _, c := range v.Candidates {
			mark := " "
			if c.Spec.String() == v.Spec {
				mark = "*"
			}
			meas := "-"
			if c.Probes > 0 {
				meas = fmt.Sprintf("%.0f", c.MeasNs)
			}
			fmt.Printf("  %-1s %-16s %12s %7d\n", mark, c.Spec.String(), meas, c.Probes)
		}
	}
}

// checkPlans is -check, per size bucket of one kernel: the plan must
// have calibrated, and its chosen strategy must hold up against fresh
// measurements — re-timed over retimeRounds interleaved rounds, its
// fastest call may exceed the fastest call of the best candidate by at
// most retimeSlack — and be the argmin of the planner's own table. A
// planner that picked the wrong strategy, or scored candidates so that
// a cold call decided, fails the re-timing even when its table is
// self-consistent. It returns one line per failed rule; the error is
// for a call that could not run at all.
func checkPlans(kn *core.Kernel, t planTarget, views []plan.View) ([]string, error) {
	kernel := kn.Func().Name
	// The target's sizes ascend and fall in distinct buckets, so the
	// views (sorted by bucket) pair with them in order.
	if len(views) != len(t.sizes) {
		return []string{fmt.Sprintf("%s has %d plans for %d sizes", kernel, len(views), len(t.sizes))}, nil
	}
	var fails []string
	for i, v := range views {
		if !v.Calibrated {
			fails = append(fails, fmt.Sprintf("%s bucket %d never calibrated", kernel, v.Bucket))
			continue
		}
		args := t.args(t.sizes[i])
		fastest, err := retime(kn, v.Candidates, args)
		if err != nil {
			return nil, err
		}
		best, chosen := 0, 0
		for j, c := range v.Candidates {
			if fastest[j] < fastest[best] {
				best = j
			}
			if c.Spec.String() == v.Spec {
				chosen = j
			}
		}
		ratio := fastest[chosen] / fastest[best]
		fmt.Printf("check: %s bucket %d chose %s, re-timed %.0fns; best %s %.0fns (×%.2f, limit ×%.2f)\n",
			kernel, v.Bucket, v.Spec, fastest[chosen],
			v.Candidates[best].Spec, fastest[best], ratio, retimeSlack)
		if ratio > retimeSlack {
			fails = append(fails, fmt.Sprintf("%s bucket %d chose %s but it re-times ×%.2f slower than %s (limit ×%.2f)",
				kernel, v.Bucket, v.Spec, ratio, v.Candidates[best].Spec, retimeSlack))
		}
		for _, c := range v.Candidates {
			if c.Probes > 0 && c.MeasNs < v.MeasNs {
				fails = append(fails, fmt.Sprintf("%s bucket %d chose %s at %.0fns but %s measured %.0fns",
					kernel, v.Bucket, v.Spec, v.MeasNs, c.Spec, c.MeasNs))
				break
			}
		}
	}
	return fails, nil
}

// retime calls the kernel once per candidate per round for
// retimeRounds rounds, rotating the order each round, and returns each
// candidate's fastest call in nanoseconds.
func retime(kn *core.Kernel, cands []plan.Candidate, args []vm.Value) ([]float64, error) {
	fastest := make([]float64, len(cands))
	for r := 0; r < retimeRounds; r++ {
		for j := range cands {
			i := (j + r) % len(cands)
			start := time.Now()
			if _, err := kn.CallStrategy(cands[i].Spec, args...); err != nil {
				return nil, err
			}
			ns := float64(time.Since(start).Nanoseconds())
			if r == 0 || ns < fastest[i] {
				fastest[i] = ns
			}
		}
	}
	return fastest, nil
}

// bucketBytes renders a bucket index as its upper byte bound.
func bucketBytes(b int) string {
	bytes := int64(1) << uint(b+1)
	switch {
	case bytes >= 1<<20:
		return fmt.Sprintf("%dMB", bytes>>20)
	case bytes >= 1<<10:
		return fmt.Sprintf("%dKB", bytes>>10)
	default:
		return fmt.Sprintf("%dB", bytes)
	}
}
