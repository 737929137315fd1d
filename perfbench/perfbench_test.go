package main

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/irverify"
)

// One seed must give the same kernel list, spec list and arrival
// schedule every time; another seed must give other inputs.
func TestSeededInputsReproduce(t *testing.T) {
	ix := irverify.SpecIndex()
	names := func(seed uint64) []string {
		var out []string
		for r := 0; r < 2; r++ {
			for _, k := range devStream(seed, r, ix) {
				desc := k.name
				if k.rec != nil {
					desc = k.rec.String()
				}
				out = append(out, desc)
			}
		}
		return out
	}
	if a, b := names(7), names(7); !reflect.DeepEqual(a, b) {
		t.Fatal("kernel-dev stream differs between two draws of seed 7")
	}
	if reflect.DeepEqual(names(7), names(8)) {
		t.Fatal("seeds 7 and 8 drew the same kernel-dev stream")
	}
	if a, b := genSchedule(7, 4), genSchedule(7, 4); !reflect.DeepEqual(a, b) {
		t.Fatal("serve-mix schedule differs between two draws of seed 7")
	}
	if reflect.DeepEqual(genSchedule(7, 4), genSchedule(8, 4)) {
		t.Fatal("seeds 7 and 8 drew the same serve-mix schedule")
	}
}

// Every kernel of a run is distinct, so each cold compile is a real
// compile and each writes its own disk-cache entry.
func TestKernelStreamDistinct(t *testing.T) {
	ix := irverify.SpecIndex()
	seen := map[string]bool{}
	for r := 0; r < 3; r++ {
		for _, k := range devStream(1, r, ix) {
			if k.rec == nil {
				continue // registry targets repeat per round, in a fresh cache
			}
			if seen[k.name] {
				t.Fatalf("kernel %s drawn twice", k.name)
			}
			seen[k.name] = true
		}
	}
}

// Generated kernels stage, and the seeded stream keeps to the grammar
// the oracle evaluates.
func TestRecipesStage(t *testing.T) {
	ix := irverify.SpecIndex()
	for i := 0; i < 50; i++ {
		rec := genRecipe(3, i, ix)
		if _, err := rec.Build(devArch.Features, ix); err != nil {
			t.Fatalf("%s: %v", rec.String(), err)
		}
		if len(rec.Ops) < 1 || len(rec.Ops) > 4 || (rec.Reduce && rec.Prim.Bits() != 32) {
			t.Fatalf("recipe outside the grammar: %s", rec.String())
		}
	}
}

// The open loop offers rate × step-length jobs per step, spread over
// the whole step, and keeps repeats and coalesced followers well under
// half of all jobs.
func TestScheduleShape(t *testing.T) {
	const loadSeconds = 20
	sched := genSchedule(1, loadSeconds)
	perStep := map[int]int{}
	shared := 0
	for _, j := range sched {
		perStep[j.step]++
		if j.kind == "repeat" || j.kind == "burst" {
			shared++
		}
		if limit := serveSteps[j.step].share * loadSeconds; j.due < 0 || j.due.Seconds() >= limit {
			t.Fatalf("job due at %v outside its %gs step", j.due, limit)
		}
	}
	for step, st := range serveSteps {
		if want := int(st.rate * st.share * loadSeconds); perStep[step] < want || perStep[step] > want+2 {
			t.Errorf("step %d: %d jobs, want about %d", step, perStep[step], want)
		}
	}
	if frac := float64(shared) / float64(len(sched)); frac >= 0.4 {
		t.Errorf("repeats and bursts are %.2f of all jobs, want well under half", frac)
	}
}

// The percentile rule: report the highest percentile that still has at
// least ten samples beyond it.
func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending input: tail must sort
		}
		return xs
	}
	for _, c := range []struct {
		n       int
		pct, v  float64
		present bool
	}{
		{n: 1000, pct: 99, v: 990, present: true},
		{n: 100, pct: 90, v: 90, present: true},
		{n: 11, pct: 100.0 / 11, v: 1, present: true},
		{n: 10, present: false},
	} {
		pct, v, ok := tail(seq(c.n))
		if ok != c.present || (ok && (math.Abs(pct-c.pct) > 1e-9 || v != c.v)) {
			t.Errorf("n=%d: tail = p%g %g %v, want p%g %g %v", c.n, pct, v, ok, c.pct, c.v, c.present)
		}
		if ok {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < tailBeyond {
				t.Errorf("n=%d: only %d samples beyond the tail", c.n, beyond)
			}
		}
	}
	if got := tailLabel(seq(1000)); got != fmt.Sprintf("%.4g at p99 (n=1000)", 990.0) {
		t.Errorf("label %q", got)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 3 = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 4 = %g", m)
	}
}
