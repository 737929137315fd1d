package plan

import (
	"bytes"
	"os"
	"testing"
)

var (
	serial = StrategySpec{Backend: "vm", Lanes: 1}
	native = StrategySpec{Backend: "native", Lanes: 1}
	lanes4 = StrategySpec{Backend: "vm", Lanes: 4}
)

// specs is the candidate list the tests install: the default first.
func specs() []StrategySpec { return []StrategySpec{serial, native, lanes4} }

// calibrate drives key to calibration, timing each probe with ns.
func calibrate(t *testing.T, p *Planner, key Key, ns func(s StrategySpec, probe int) float64) {
	t.Helper()
	probes := map[StrategySpec]int{serial: 1}
	for i := 0; i < 16 && !p.Calibrated(key); i++ {
		d, ok := p.Decide(key)
		if !ok {
			t.Fatal("Decide missed an installed plan")
		}
		if !d.Probe {
			t.Fatalf("iteration %d: expected a probe while calibrating, got %v", i, d.Spec)
		}
		p.Observe(key, d.Spec, ns(d.Spec, probes[d.Spec]))
		probes[d.Spec]++
	}
	if !p.Calibrated(key) {
		t.Fatal("plan never calibrated")
	}
}

// TestBucket pins the log2 bucketing: powers of two open their own
// bucket, everything in [2^n, 2^(n+1)) shares it.
func TestBucket(t *testing.T) {
	cases := []struct {
		bytes int64
		want  int
	}{{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {1023, 9}, {1024, 10}, {1025, 10}}
	for _, c := range cases {
		if got := Bucket(c.bytes); got != c.want {
			t.Errorf("Bucket(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

// TestLifecycle walks one key through the planner states: unknown →
// install → probe rotation → calibration, with the measured argmin
// winning and no candidate probed beyond the budget.
func TestLifecycle(t *testing.T) {
	p := New()
	key := Key{Hash: 0xfeed, Arch: "Haswell", Bucket: 10}
	if _, ok := p.Decide(key); ok {
		t.Fatal("Decide hit before any plan was installed")
	}
	p.Install(key, "k", specs())
	p.Observe(key, serial, 100) // the cold default run

	seen := map[StrategySpec]int{serial: 1}
	calibrate(t, p, key, func(s StrategySpec, _ int) float64 {
		seen[s]++
		return map[StrategySpec]float64{serial: 200, native: 90, lanes4: 150}[s]
	})
	for s, n := range seen {
		if n != ProbeBudget {
			t.Errorf("candidate %s probed %d times, budget is %d", s, n, ProbeBudget)
		}
	}
	d, ok := p.Decide(key)
	if !ok || d.Probe {
		t.Fatalf("calibrated Decide = %+v, %v", d, ok)
	}
	if d.Spec != native {
		t.Fatalf("measured argmin lost: chose %v", d.Spec)
	}
}

// TestEveryCandidateProbed: every installed candidate is probed, however slow
// it measures — there is no model to rule a strategy out unmeasured.
func TestEveryCandidateProbed(t *testing.T) {
	p := New()
	key := Key{Hash: 9, Arch: "A", Bucket: 1}
	p.Install(key, "k", specs())
	p.Observe(key, serial, 100)
	calibrate(t, p, key, func(s StrategySpec, _ int) float64 {
		if s == lanes4 {
			return 1e9
		}
		return 50
	})
	for _, c := range p.Snapshot()[0].Candidates {
		if c.Probes != ProbeBudget {
			t.Errorf("%s probed %d times, want %d", c.Spec, c.Probes, ProbeBudget)
		}
	}
}

// TestColdFirstProbeDoesNotDecide: a candidate whose first probe runs
// 10× its warm time (cold caches, first plugin call) must still win
// when its warm time is the fastest. Each candidate is scored by its
// fastest probe, so the cold sample cannot outvote the warm one.
func TestColdFirstProbeDoesNotDecide(t *testing.T) {
	p := New()
	key := Key{Hash: 5, Arch: "A", Bucket: 7}
	p.Install(key, "k", specs())
	p.Observe(key, serial, 300) // cold install run
	calibrate(t, p, key, func(s StrategySpec, probe int) float64 {
		switch {
		case s == native && probe == 0:
			return 1000 // cold first call: 10× the warm time
		case s == native:
			return 100
		default:
			return 200
		}
	})
	d, _ := p.Decide(key)
	if d.Spec != native {
		t.Fatalf("cold first sample decided the plan: chose %v, want %v (table %+v)",
			d.Spec, native, p.Snapshot()[0].Candidates)
	}
	if got := p.Snapshot()[0].MeasNs; got != 100 {
		t.Fatalf("chosen row reads %v ns, want its fastest probe 100", got)
	}
}

// memStore is an in-memory plan.Store recording traffic.
type memStore struct {
	m      map[string][]byte
	stores int
}

func (s *memStore) LoadPlan(id string) ([]byte, bool) { b, ok := s.m[id]; return b, ok }
func (s *memStore) StorePlan(id string, b []byte) error {
	if s.m == nil {
		s.m = map[string][]byte{}
	}
	s.m[id] = append([]byte(nil), b...)
	s.stores++
	return nil
}

// TestPersistence pins the warm-start contract: a calibrated plan
// persists exactly once, a fresh planner over the same store serves it
// with zero probes, and the stored bytes never change afterwards
// (write-once — the determinism gate depends on it).
func TestPersistence(t *testing.T) {
	st := &memStore{}
	p := New()
	p.SetStore(st)
	key := Key{Hash: 0xabc, Arch: "Haswell", Bucket: 12}
	p.Install(key, "k", specs())
	p.Observe(key, serial, 100)
	calibrate(t, p, key, func(s StrategySpec, probe int) float64 { return 100 + float64(probe) })
	if st.stores != 1 {
		t.Fatalf("stores=%d", st.stores)
	}
	frozen := append([]byte(nil), st.m[key.ID()]...)

	// Warm planner: loads, decides without probing, never rewrites.
	p2 := New()
	p2.SetStore(st)
	d, ok := p2.Decide(key)
	if !ok || d.Probe {
		t.Fatalf("warm Decide = %+v, %v", d, ok)
	}
	for i := 0; i < 4; i++ {
		p2.Observe(key, d.Spec, 80) // ignored: the plan is final
		p2.Decide(key)
	}
	if st.stores != 1 || !bytes.Equal(st.m[key.ID()], frozen) {
		t.Fatal("warm run rewrote a persisted plan")
	}
	if got := p2.Stats()["probes"]; got != 0 {
		t.Fatalf("warm run ran %d probes, want 0", got)
	}
	if got := p2.Stats()["loads"]; got != 1 {
		t.Fatalf("loads = %d", got)
	}
}

// TestCorruptPlanIgnored: scribbled or mis-keyed plan files miss
// instead of misparse.
func TestCorruptPlanIgnored(t *testing.T) {
	st := &memStore{m: map[string][]byte{}}
	key := Key{Hash: 2, Arch: "A", Bucket: 3}
	st.m[key.ID()] = []byte(`{"version":2,"hash":"junk"`)
	p := New()
	p.SetStore(st)
	if _, ok := p.Decide(key); ok {
		t.Fatal("corrupt plan served a decision")
	}
	// A valid file under the wrong key must also miss.
	other := Key{Hash: 3, Arch: "A", Bucket: 3}
	p2 := New()
	p2.SetStore(st)
	p2.Install(other, "k", specs())
	p2.Observe(other, serial, 100)
	calibrate(t, p2, other, func(StrategySpec, int) float64 { return 100 })
	st.m[key.ID()] = st.m[other.ID()]
	p3 := New()
	p3.SetStore(st)
	if _, ok := p3.Decide(key); ok {
		t.Fatal("plan for another key was accepted")
	}
}

// TestV1PlanFileIgnored: a version-1 plan file, as the previous
// planner wrote it (model predictions in pred_ns, a pruned candidate,
// a lowering tier in every spec, a valid checksum), is not served —
// its specs name strategies that no longer exist — and the key
// calibrates afresh and overwrites it with a current-version plan.
func TestV1PlanFileIgnored(t *testing.T) {
	raw, err := os.ReadFile("testdata/v1_plan.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"version":1`, `"pred_ns"`, `"pruned":true`, `"tier":"plain"`} {
		if !bytes.Contains(raw, []byte(field)) {
			t.Fatalf("fixture lacks %s", field)
		}
	}
	key := Key{Hash: 0x3bfae86436e89609, Arch: "Haswell", Bucket: 14}
	st := &memStore{m: map[string][]byte{key.ID(): raw}}
	p := New()
	p.SetStore(st)
	if d, ok := p.Decide(key); ok {
		t.Fatalf("v1 plan served a decision: %+v", d)
	}
	if got := p.Stats()["loads"]; got != 0 {
		t.Fatalf("loads = %d, want 0", got)
	}
	p.Install(key, "saxpy", specs())
	p.Observe(key, serial, 100)
	calibrate(t, p, key, func(s StrategySpec, _ int) float64 {
		if s == lanes4 {
			return 40
		}
		return 100
	})
	if st.stores != 1 || bytes.Equal(st.m[key.ID()], raw) {
		t.Fatalf("stores = %d; v1 file overwritten: %v", st.stores, !bytes.Equal(st.m[key.ID()], raw))
	}
	p2 := New()
	p2.SetStore(st)
	d, ok := p2.Decide(key)
	if !ok || d.Probe || d.Spec != lanes4 {
		t.Fatalf("rebuilt plan reloads as %+v, %v; want %v", d, ok, lanes4)
	}
}
