package conform

import (
	"bytes"
	"fmt"
	"io"
	"strings"

	"repro/internal/cgen"
	"repro/internal/core"
	"repro/internal/dsl"
	"repro/internal/ir"
	"repro/internal/irverify"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/vm"
	"repro/internal/xmlspec"
)

// Failure kinds. The first two are verifier-completeness failures, the
// next two are execution failures (the second also covers verifier
// soundness: an accepted graph must run cleanly everywhere), and
// genfail means the generator itself broke its grammar.
const (
	KindMissed        = "missed"        // defect accepted / not flagged
	KindMisclassified = "misclassified" // flagged by the wrong pass, or clean kernel rejected
	KindDiverged      = "diverged"      // backends disagree on result, memory or op counts
	KindUnsound       = "unsound"       // accepted graph failed to compile or run
	KindGenFail       = "genfail"       // generator bug
)

// Options configures one conformance run. The zero value (plus a
// Count) is the production configuration; tests inject Verify to prove
// the suite notices a lobotomised verifier pass.
type Options struct {
	// Seed selects the deterministic case stream. Same seed, same
	// binary → same recipes, same verdicts.
	Seed uint64

	// Count is how many cases to generate. Defaults to 200.
	Count int

	// Arch is the machine the kernels are staged and executed for.
	// Defaults to isa.Haswell (the paper's platform). ISA-defect cases
	// are additionally *verified* against isa.Nehalem, where their
	// 256-bit ops are illegal.
	Arch *isa.Microarch

	// Verify is the verifier under test. Defaults to the real pass
	// stack (irverify.VerifyWithSpec). Tests substitute a broken one;
	// execution always goes through Runtime.Compile's own verification,
	// so a hook that wrongly accepts shows up as an unsound accept.
	Verify func(f *ir.Func, arch *isa.Microarch) *irverify.Result

	// NativeEvery runs the native plugin backend on every k-th executed
	// case (each distinct kernel is one `go build -buildmode=plugin`,
	// far too slow for every case). 0 means the default of 8; negative
	// disables the native leg entirely.
	NativeEvery int

	// Log, when non-nil, receives one line per failure as it happens.
	Log io.Writer
}

// config is one execution backend under differential test.
type config struct {
	name string
	rt   *core.Runtime
	// vmCounts: this config runs on the vm, so its dynamic op-counter
	// map must be byte-identical to every other vm config's.
	vmCounts bool
}

type harness struct {
	opts    Options
	ix      *xmlspec.Index
	configs []config // vm configs; native (when present) is last
	native  bool     // last config is the native backend
	rep     *Report
	// executed counts accepted cases actually run, for native sampling.
	executed int
}

// Run generates opts.Count kernels and drives each through the
// verifier and, when accepted, through every execution backend against
// the scalar oracle. It returns a non-nil error only for environment
// failures (a runtime that cannot be constructed); verdicts about the
// kernels and the verifier live in the Report.
func Run(opts Options) (*Report, error) {
	h, err := newHarness(opts)
	if err != nil {
		return nil, err
	}
	for i := 0; i < h.opts.Count; i++ {
		caseRng := newRng(caseSeed(h.opts.Seed, i))
		rec, err := genRecipe(caseRng, i, h.opts.Arch.Features, h.ix)
		if err != nil {
			h.rep.stat(rec.Defect).Generated++
			h.fail(rec, KindGenFail, err.Error(), nil)
			continue
		}
		h.runCase(rec, true)
	}
	return h.rep, nil
}

// caseSeed derives the rng seed for case i of a run. It is the single
// definition of the per-case stream: the corpus regenerator
// (TestUpdateCorpus -update) uses it too, so a change here regenerates
// a matching corpus instead of silently drifting from Run.
func caseSeed(seed uint64, i int) uint64 {
	return seed*0x9E3779B97F4A7C15 + uint64(i)*0xBF58476D1CE4E5B9 + 1
}

// Replay drives an explicit recipe list — the checked-in regression
// corpus — through the same verdict machinery as Run.
func Replay(opts Options, recipes []Recipe) (*Report, error) {
	h, err := newHarness(opts)
	if err != nil {
		return nil, err
	}
	h.rep.Count = len(recipes)
	for _, rec := range recipes {
		h.runCase(rec, true)
	}
	return h.rep, nil
}

func newHarness(opts Options) (*harness, error) {
	if opts.Count <= 0 {
		opts.Count = 200
	}
	if opts.Arch == nil {
		opts.Arch = isa.Haswell
	}
	if opts.Verify == nil {
		opts.Verify = func(f *ir.Func, arch *isa.Microarch) *irverify.Result {
			return irverify.VerifyWithSpec(f, arch, irverify.SpecIndex())
		}
	}
	if opts.NativeEvery == 0 {
		opts.NativeEvery = 8
	}

	h := &harness{opts: opts, ix: irverify.SpecIndex(), rep: newReport(opts.Seed, opts.Count)}

	mk := func() (*core.Runtime, error) { return core.NewRuntime(opts.Arch, cgen.HostEnvironment) }
	opt, err := mk()
	if err != nil {
		return nil, fmt.Errorf("conform: %w", err)
	}
	par, err := mk()
	if err != nil {
		return nil, fmt.Errorf("conform: %w", err)
	}
	par.Machine.Workers = 4
	h.configs = []config{
		{"vm-opt", opt, true},
		{"vm-par", par, true},
	}
	if opts.NativeEvery > 0 {
		native, err := mk()
		if err != nil {
			return nil, fmt.Errorf("conform: %w", err)
		}
		if err := native.UseBackend("native"); err != nil {
			h.rep.NativeNote = fmt.Sprintf("native backend disabled: %v", err)
		} else {
			h.configs = append(h.configs, config{"native", native, false})
			h.native = true
		}
	} else {
		h.rep.NativeNote = "native backend disabled by options"
	}
	return h, nil
}

// fail records one failure, logging it as it happens.
func (h *harness) fail(rec Recipe, kind, detail string, shrunk *Recipe) {
	h.rep.Failures = append(h.rep.Failures, Failure{Kind: kind, Detail: detail, Recipe: rec, Shrunk: shrunk})
	if h.opts.Log != nil {
		fmt.Fprintf(h.opts.Log, "conform: %s: %s\n  recipe: %s\n", kind, detail, rec.String())
		if shrunk != nil {
			fmt.Fprintf(h.opts.Log, "  shrunk: %s\n", shrunk.String())
		}
	}
}

// runCase drives one recipe end to end and returns the failure kind
// ("" when clean). With record=false (shrinker probes) the report is
// left untouched and execution failures are not themselves shrunk.
func (h *harness) runCase(rec Recipe, record bool) string {
	// Shrinker probes (record=false) tally into a throwaway stat so the
	// verdict paths below never have to guard a nil pointer.
	st := &ClassStat{}
	if record {
		st = h.rep.stat(rec.Defect)
	}
	st.Generated++
	emit := func(kind, detail string) string {
		if record {
			var shrunk *Recipe
			if kind == KindDiverged || kind == KindUnsound {
				if shrunk = h.shrink(rec, kind); shrunk != nil {
					h.rep.Shrunk++
				}
			}
			h.fail(rec, kind, detail, shrunk)
		}
		return kind
	}

	k, err := rec.Build(h.opts.Arch.Features, h.ix)
	if err != nil {
		return emit(KindGenFail, err.Error())
	}

	// ISA mutants are staged for the full-featured machine but judged
	// against the SSE-only one, where their 256-bit ops must be errors.
	verifyArch := h.opts.Arch
	if rec.Defect == DefectISA {
		verifyArch = isa.Nehalem
	}
	res := h.opts.Verify(k.F, verifyArch)
	accepted := res.Errors() == 0
	if accepted {
		st.Accepted++
	} else {
		st.Rejected++
	}

	exp, isDefect := expectations[rec.Defect]
	switch {
	case !isDefect: // well-formed: must be accepted, then execute
		if !accepted {
			st.Misclassified++
			return emit(KindMisclassified, "well-formed kernel rejected: "+firstError(res))
		}
		st.Matched++
	case exp.severity == "error":
		if accepted {
			st.Missed++
			return emit(KindMissed, fmt.Sprintf("%s defect accepted by verifier", rec.Defect))
		}
		if !diagMatches(res, irverify.Error, exp) {
			st.Misclassified++
			return emit(KindMisclassified,
				fmt.Sprintf("%s defect rejected, but not by the %s pass: %s", rec.Defect, exp.pass, firstError(res)))
		}
		st.Matched++
		return "" // error-class mutants never execute
	default: // warning-class defect: must be flagged, must still run clean
		if !accepted {
			st.Misclassified++
			return emit(KindMisclassified,
				fmt.Sprintf("%s defect escalated to an error: %s", rec.Defect, firstError(res)))
		}
		if !diagMatches(res, irverify.Warning, exp) {
			st.Missed++
			return emit(KindMissed, fmt.Sprintf("%s defect drew no %s warning", rec.Defect, exp.pass))
		}
		st.Matched++
	}

	st.Executed++
	// Native sampling: recorded runs take the native leg every k-th
	// executed case; shrink probes always take it, so a native-only
	// divergence stays reproducible while shrinking.
	withNative := h.native && (!record || h.executed%h.opts.NativeEvery == 0)
	if record {
		h.executed++
	}
	kind, detail := h.execute(rec, k, withNative)
	switch kind {
	case KindDiverged:
		st.Diverged++
	case KindUnsound:
		st.Unsound++
	case "":
		return ""
	}
	return emit(kind, detail)
}

// execute runs one accepted kernel on the oracle and on every backend,
// comparing results, memory effects and (between the vm configs)
// dynamic op counters. It returns ("", "") when everything agrees.
func (h *harness) execute(rec Recipe, k *dsl.Kernel, withNative bool) (kind, detail string) {
	argSeed := h.opts.Seed + uint64(rec.Case)*131
	oArgs, oBufs, err := kernels.BuildArgs(k.F, rec.N, rec.Elems(), argSeed)
	if err != nil {
		return KindGenFail, fmt.Sprintf("building arguments: %v", err)
	}
	oVal, err := RunOracle(k.F, oArgs)
	if err != nil {
		// The verifier accepted this graph; the reference evaluator
		// must be able to run it.
		return KindUnsound, fmt.Sprintf("oracle: %v", err)
	}

	var refCounts vm.Counter // first vm config's op counters
	for _, cfg := range h.configs {
		if cfg.name == "native" && !withNative {
			continue
		}
		args, bufs, err := kernels.BuildArgs(k.F, rec.N, rec.Elems(), argSeed)
		if err != nil {
			return KindGenFail, fmt.Sprintf("building arguments: %v", err)
		}
		kn, err := cfg.rt.Compile(k)
		if err != nil {
			return KindUnsound, fmt.Sprintf("%s: compile: %v", cfg.name, err)
		}
		if cfg.name == "native" {
			h.rep.NativeRuns++
			if fb := kn.BackendFallback(); fb != "" {
				h.rep.NativeFallbacks++
			}
		}
		cfg.rt.Machine.Counts.Reset()
		val, err := callSafe(kn, args)
		if err != nil {
			return KindUnsound, fmt.Sprintf("%s: %v", cfg.name, err)
		}
		if !val.Equal(oVal) {
			return KindDiverged, fmt.Sprintf("%s: result %+v, oracle %+v", cfg.name, val, oVal)
		}
		for i, b := range bufs {
			if !bytes.Equal(b.Data, oBufs[i].Data) {
				return KindDiverged, fmt.Sprintf("%s: pointer argument %d memory differs from oracle (first diff at byte %d)",
					cfg.name, i, firstDiff(b.Data, oBufs[i].Data))
			}
		}
		if cfg.vmCounts {
			counts := cfg.rt.Machine.Counts.Clone()
			if refCounts == nil {
				refCounts = counts
			} else if d := countsDiff(refCounts, counts); d != "" {
				return KindDiverged, fmt.Sprintf("%s: op counters diverge from %s: %s", cfg.name, h.configs[0].name, d)
			}
		}
	}
	return "", ""
}

// callSafe invokes a compiled kernel, converting panics (a backend
// crash on a verifier-accepted graph) into unsoundness errors.
func callSafe(kn *core.Kernel, args []vm.Value) (val vm.Value, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return kn.CallValues(args...)
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// countsDiff describes the first discrepancy between two op-counter
// maps, or "" when they are identical.
func countsDiff(a, b vm.Counter) string {
	for _, op := range a.Ops() {
		if a[op] != b[op] {
			return fmt.Sprintf("%s: %d vs %d", op, a[op], b[op])
		}
	}
	for _, op := range b.Ops() {
		if _, ok := a[op]; !ok {
			return fmt.Sprintf("%s: 0 vs %d", op, b[op])
		}
	}
	return ""
}

// diagMatches reports whether the result carries a diagnostic of the
// expected severity from the expected pass (with the expected message
// fragment, when the class specifies one).
func diagMatches(res *irverify.Result, sev irverify.Severity, exp classExpect) bool {
	for _, d := range res.Diags {
		if d.Sev != sev || d.Pass != exp.pass {
			continue
		}
		if exp.substr != "" && !strings.Contains(d.Msg, exp.substr) {
			continue
		}
		return true
	}
	return false
}

func firstError(res *irverify.Result) string {
	for _, d := range res.Diags {
		if d.Sev == irverify.Error {
			return fmt.Sprintf("[%s] %s", d.Pass, d.Msg)
		}
	}
	if len(res.Diags) > 0 {
		return fmt.Sprintf("[%s] %s", res.Diags[0].Pass, res.Diags[0].Msg)
	}
	return "no diagnostics"
}
