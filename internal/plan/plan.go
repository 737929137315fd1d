// Package plan is the adaptive execution planner: for each (kernel
// graph, microarchitecture, working-set size bucket) it selects the
// fastest execution strategy — backend (vm interpreter or native
// plugin) and parallel lane count with shard chunk size — by measuring
// every admissible candidate on real invocations.
//
// The paper's pipeline faces the same decision implicitly: when is the
// JNI crossing to a native kernel worth its fixed cost, and when does
// the managed tier win? Here the decision is explicit and measured.
// Strategy switching is safe by construction: every strategy executes
// the identical counted op stream (the backend and parallel
// differential suites pin results, writes, and dynamic counts to be
// bit-identical), so the planner can only change wall-clock time, never
// figures or results.
//
// Lifecycle of one (hash, arch, bucket) key:
//
//  1. Unknown — Decide returns ok=false; the caller runs the default
//     strategy (vm, serial — the static runtime's behavior), then calls
//     Install with the admissible candidates (default first) followed
//     by Observe for that run.
//  2. Calibrating — Decide rotates through the candidates until each
//     has ProbeBudget timed probes. Probe runs are real invocations
//     serving real callers (exploration is amortized across a
//     benchmark's repeat loop, never extra work), they just pick the
//     strategy under test instead of the incumbent.
//  3. Calibrated — the candidate with the fastest single probe wins.
//     Scoring by the fastest probe rather than an average keeps a
//     cold first call (page faults, plugin load, first-touch frames)
//     from deciding the plan. The plan persists once — write-once,
//     atomic, checksummed — through the attached Store, so a warm
//     -cachedir process loads it and runs zero exploration probes. The
//     measurement table freezes with the plan: post-calibration
//     observations are ignored, so the live table always agrees with
//     the persisted plan.
package plan

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Version is the persisted-plan schema version; bumped on any change
// to the file format so stale files miss instead of misparse. v2
// dropped the model's predictions and the tier from the strategy.
const Version = 2

// ProbeBudget is how many timed runs each candidate gets before the
// plan calibrates.
const ProbeBudget = 2

// Key identifies one planning unit: a staged graph (by canonical
// structural hash), the microarchitecture it runs on, and the
// log2-size bucket of the invocation's working set. Buckets group
// nearby sizes so a sweep does not recalibrate at every point, while
// still separating the cache regimes where the best strategy flips.
type Key struct {
	Hash   uint64
	Arch   string
	Bucket int
}

// ID renders the key as a filesystem- and map-safe identifier, the
// persisted plan's filename stem.
func (k Key) ID() string {
	return fmt.Sprintf("%016x-%s-b%d", k.Hash, sanitize(k.Arch), k.Bucket)
}

func sanitize(s string) string {
	out := []byte(s)
	for i := 0; i < len(out); i++ {
		c := out[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			out[i] = '_'
		}
	}
	return string(out)
}

// Bucket maps a working-set footprint in bytes to its size bucket
// (log2, so bucket n covers [2^n, 2^(n+1)) bytes; 0 covers 0–1).
func Bucket(bytes int64) int {
	b := 0
	for v := bytes; v > 1; v >>= 1 {
		b++
	}
	return b
}

// StrategySpec names one admissible execution configuration: which
// backend runs the kernel and how many parallel lanes (1 = serial) with
// which shard chunk size (0 = scheduler default).
type StrategySpec struct {
	Backend string `json:"backend"`
	Lanes   int    `json:"lanes"`
	Chunk   int    `json:"chunk,omitempty"`
}

// String renders the spec the way planner tables print it.
func (s StrategySpec) String() string {
	out := s.Backend + "/" + strconv.Itoa(s.Lanes)
	if s.Chunk > 0 {
		out += "c" + strconv.Itoa(s.Chunk)
	}
	return out
}

// Candidate is one admissible strategy with its measured cost.
type Candidate struct {
	Spec StrategySpec `json:"spec"`
	// MeasNs is the fastest measured wall time of one invocation; 0
	// until the first probe lands.
	MeasNs float64 `json:"meas_ns"`
	// Probes counts the timed runs MeasNs is the minimum of.
	Probes int `json:"probes"`
}

// Decision is the planner's answer for one invocation.
type Decision struct {
	Spec StrategySpec
	// Probe marks a calibration run: the caller should time the
	// invocation and report it via Observe.
	Probe bool
}

// Store persists calibrated plans between processes. core.DiskCache
// satisfies it with plan-<id>.json entries in the compile-cache
// directory (same atomic-rename discipline as compile artifacts).
type Store interface {
	LoadPlan(id string) ([]byte, bool)
	StorePlan(id string, data []byte) error
}

// Planner holds the live plan table. Safe for concurrent use; forked
// runtimes share one Planner so calibration from any worker benefits
// all of them.
type Planner struct {
	mu    sync.Mutex
	store Store
	plans map[Key]*entry

	decisions    atomic.Int64 // planner-routed invocations
	probeRuns    atomic.Int64 // invocations that were calibration probes
	installs     atomic.Int64 // plans installed cold
	calibrations atomic.Int64 // plans that finished calibration
	loads        atomic.Int64 // plans loaded from the store
	persists     atomic.Int64 // plans written to the store
}

type entry struct {
	key        Key
	kernel     string
	cands      []Candidate
	chosen     int
	calibrated bool
	persisted  bool
}

// New creates a planner with no persistence.
func New() *Planner {
	return &Planner{plans: map[Key]*entry{}}
}

// SetStore attaches plan persistence (nil detaches it).
func (p *Planner) SetStore(s Store) {
	p.mu.Lock()
	p.store = s
	p.mu.Unlock()
}

// Decide returns the strategy to use for one invocation under key.
// ok=false means no plan exists yet: the caller must run the default
// strategy, then Install the candidates and Observe that run.
func (p *Planner) Decide(key Key) (Decision, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.plans[key]
	if !ok {
		e, ok = p.loadLocked(key)
		if !ok {
			return Decision{}, false
		}
	}
	p.decisions.Add(1)
	if !e.calibrated {
		if idx := e.nextProbe(); idx >= 0 {
			p.probeRuns.Add(1)
			return Decision{Spec: e.cands[idx].Spec, Probe: true}, true
		}
		// Every candidate met its budget but the closing
		// Observe has not arrived yet (concurrent callers): serve the
		// current measured best meanwhile.
		p.finishLocked(e)
	}
	return Decision{Spec: e.cands[e.chosen].Spec}, true
}

// nextProbe picks the candidate with the fewest probes, if any still
// needs one.
func (e *entry) nextProbe() int {
	best, min := -1, ProbeBudget
	for i := range e.cands {
		if e.cands[i].Probes < min {
			best, min = i, e.cands[i].Probes
		}
	}
	return best
}

// Install registers the admissible candidates for key. The first
// entry must be the default strategy the caller just ran, so the
// planner always has a safe incumbent. Install is idempotent: a
// concurrent or repeated install for an existing key is ignored.
func (p *Planner) Install(key Key, kernel string, specs []StrategySpec) {
	if len(specs) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.plans[key]; dup {
		return
	}
	e := &entry{key: key, kernel: kernel, cands: make([]Candidate, len(specs))}
	for i, s := range specs {
		e.cands[i] = Candidate{Spec: s}
	}
	p.plans[key] = e
	p.installs.Add(1)
}

// Observe records one timed invocation as a probe of spec. Once the
// plan has calibrated, observations are ignored.
func (p *Planner) Observe(key Key, spec StrategySpec, ns float64) {
	if ns <= 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.plans[key]
	if !ok {
		return
	}
	if e.calibrated {
		// The candidate table freezes at calibration: only the chosen
		// strategy runs afterwards, so further samples would move its
		// row against frozen rivals — making the live table disagree
		// with the persisted plan — without ever informing a decision.
		return
	}
	for i := range e.cands {
		if e.cands[i].Spec != spec {
			continue
		}
		c := &e.cands[i]
		if c.MeasNs == 0 || ns < c.MeasNs {
			c.MeasNs = ns
		}
		c.Probes++
		break
	}
	if e.nextProbe() < 0 {
		p.finishLocked(e)
	}
}

// finishLocked closes calibration: the measured argmin becomes the
// chosen strategy and the plan persists exactly once. Called with p.mu
// held.
func (p *Planner) finishLocked(e *entry) {
	if e.calibrated {
		return
	}
	best := 0 // the default strategy is always probed first
	for i := range e.cands {
		c := &e.cands[i]
		if c.MeasNs > 0 && (e.cands[best].MeasNs == 0 || c.MeasNs < e.cands[best].MeasNs) {
			best = i
		}
	}
	e.chosen = best
	e.calibrated = true
	p.calibrations.Add(1)
	p.persistLocked(e)
}

// Calibrated reports whether key has a closed plan.
func (p *Planner) Calibrated(key Key) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.plans[key]
	return ok && e.calibrated
}

// --- persistence -------------------------------------------------------------

// planFile is the persisted form: the full candidate table (so `ngen
// plan` can render the measured table on warm runs), the chosen
// index, and an fnv-1a checksum in the disk cache's idiom.
type planFile struct {
	Version    int         `json:"version"`
	Hash       string      `json:"hash"`
	Arch       string      `json:"arch"`
	Bucket     int         `json:"bucket"`
	Kernel     string      `json:"kernel"`
	Candidates []Candidate `json:"candidates"`
	Chosen     int         `json:"chosen"`
	Sum        uint64      `json:"sum"`
}

func (f *planFile) checksum() uint64 {
	shadow := *f
	shadow.Sum = 0
	raw, err := json.Marshal(&shadow)
	if err != nil {
		return 0
	}
	h := fnv.New64a()
	h.Write(raw)
	return h.Sum64()
}

func (p *Planner) persistLocked(e *entry) {
	if p.store == nil || e.persisted {
		return
	}
	f := &planFile{
		Version: Version, Hash: fmt.Sprintf("%016x", e.key.Hash),
		Arch: e.key.Arch, Bucket: e.key.Bucket, Kernel: e.kernel,
		Candidates: e.cands, Chosen: e.chosen,
	}
	f.Sum = f.checksum()
	raw, err := json.Marshal(f)
	if err != nil {
		return
	}
	if p.store.StorePlan(e.key.ID(), raw) == nil {
		e.persisted = true
		p.persists.Add(1)
	}
}

// loadLocked tries the store for a previously calibrated plan. Corrupt
// or mismatched files are ignored (recalibration overwrites them).
// Called with p.mu held.
func (p *Planner) loadLocked(key Key) (*entry, bool) {
	if p.store == nil {
		return nil, false
	}
	raw, ok := p.store.LoadPlan(key.ID())
	if !ok {
		return nil, false
	}
	var f planFile
	if json.Unmarshal(raw, &f) != nil ||
		f.Version != Version ||
		f.Hash != fmt.Sprintf("%016x", key.Hash) ||
		f.Arch != key.Arch || f.Bucket != key.Bucket ||
		len(f.Candidates) == 0 ||
		f.Chosen < 0 || f.Chosen >= len(f.Candidates) ||
		f.Sum != f.checksum() {
		return nil, false
	}
	e := &entry{key: key, kernel: f.Kernel, cands: f.Candidates,
		chosen: f.Chosen, calibrated: true, persisted: true}
	p.plans[key] = e
	p.loads.Add(1)
	return e, true
}

// --- introspection -----------------------------------------------------------

// View is one plan rendered for telemetry: the chosen strategy with
// its measured cost, plus the full candidate table.
type View struct {
	Kernel     string      `json:"kernel"`
	Hash       string      `json:"hash"`
	Arch       string      `json:"arch"`
	Bucket     int         `json:"bucket"`
	Spec       string      `json:"spec"`
	MeasNs     float64     `json:"meas_ns"`
	Calibrated bool        `json:"calibrated"`
	Candidates []Candidate `json:"candidates,omitempty"`
}

// Snapshot returns every live plan, sorted by kernel then bucket.
// Candidate slices are copied; mutating them is safe.
func (p *Planner) Snapshot() []View {
	p.mu.Lock()
	out := make([]View, 0, len(p.plans))
	for _, e := range p.plans {
		c := e.cands[e.chosen]
		v := View{
			Kernel: e.kernel, Hash: fmt.Sprintf("%016x", e.key.Hash),
			Arch: e.key.Arch, Bucket: e.key.Bucket,
			Spec: c.Spec.String(), MeasNs: c.MeasNs,
			Calibrated: e.calibrated,
			Candidates: append([]Candidate(nil), e.cands...),
		}
		out = append(out, v)
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kernel != out[j].Kernel {
			return out[i].Kernel < out[j].Kernel
		}
		if out[i].Bucket != out[j].Bucket {
			return out[i].Bucket < out[j].Bucket
		}
		return out[i].Hash < out[j].Hash
	})
	return out
}

// KernelViews returns the plans for one kernel name (Snapshot order).
func (p *Planner) KernelViews(kernel string) []View {
	all := p.Snapshot()
	out := all[:0]
	for _, v := range all {
		if v.Kernel == kernel {
			out = append(out, v)
		}
	}
	return out
}

// Stats exposes the planner's cumulative counters for obs gauges
// (plan.* — see docs/OBSERVABILITY.md).
func (p *Planner) Stats() map[string]int64 {
	return map[string]int64{
		"decisions":  p.decisions.Load(),
		"probes":     p.probeRuns.Load(),
		"installs":   p.installs.Load(),
		"calibrated": p.calibrations.Load(),
		"loads":      p.loads.Load(),
		"persists":   p.persists.Load(),
	}
}
