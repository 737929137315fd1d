package main

import (
	"sort"
	"time"
)

// tracer keeps the traced run's spans in the benchmark's own memory:
// per span name, the count and every duration. Spans wrap calls into
// the program's public entry points from outside; nothing inside the
// program is instrumented. A tracer belongs to one goroutine (parallel
// legs give each worker its own and merge them afterwards), and a nil
// *tracer is the untraced mode — span returns the call's error and
// records nothing — so traced and untraced runs share one code path.
type tracer struct {
	spans map[string]*spanStat
}

type spanStat struct {
	total   time.Duration
	samples []time.Duration
}

func newTracer() *tracer { return &tracer{spans: map[string]*spanStat{}} }

// span times fn under name.
func (t *tracer) span(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	start := time.Now()
	err := fn()
	t.add(name, time.Since(start))
	return err
}

// add records one span of duration d (no-op untraced).
func (t *tracer) add(name string, d time.Duration) {
	if t == nil {
		return
	}
	st := t.spans[name]
	if st == nil {
		st = &spanStat{}
		t.spans[name] = st
	}
	st.total += d
	st.samples = append(st.samples, d)
}

// merge folds other's spans into t.
func (t *tracer) merge(other *tracer) {
	if t == nil || other == nil {
		return
	}
	for name, o := range other.spans {
		st := t.spans[name]
		if st == nil {
			st = &spanStat{}
			t.spans[name] = st
		}
		st.total += o.total
		st.samples = append(st.samples, o.samples...)
	}
}

// seconds is the total time spent in spans called name.
func (t *tracer) seconds(name string) float64 {
	if t == nil || t.spans[name] == nil {
		return 0
	}
	return t.spans[name].total.Seconds()
}

// count is how many spans called name were recorded.
func (t *tracer) count(name string) int {
	if t == nil || t.spans[name] == nil {
		return 0
	}
	return len(t.spans[name].samples)
}

// p50us is the median span duration under name, in microseconds.
func (t *tracer) p50us(name string) float64 {
	if t == nil || t.spans[name] == nil {
		return 0
	}
	return median(micros(t.spans[name].samples))
}

// names lists the recorded span names, sorted.
func (t *tracer) names() []string {
	out := make([]string, 0, len(t.spans))
	for n := range t.spans {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e3
	}
	return out
}
