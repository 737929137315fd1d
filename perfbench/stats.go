package main

import (
	"fmt"
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of xs (mean of the two middle samples for even counts); 0 for
// an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tailBeyond is how many samples must lie above a reported tail
// percentile for it to mean anything.
const tailBeyond = 10

// tail applies the percentile rule: the highest percentile of xs that
// still has at least tailBeyond samples strictly above its rank. With n
// ascending samples, rank r (0-based) has n-1-r samples beyond it, so
// the rule picks r = n-1-tailBeyond, i.e. percentile (n-tailBeyond)/n
// (p99 needs 1000 samples). ok is false below tailBeyond+1 samples.
func tail(xs []float64) (pct, value float64, ok bool) {
	n := len(xs)
	if n <= tailBeyond {
		return 0, 0, false
	}
	s := sorted(xs)
	r := n - 1 - tailBeyond
	return 100 * float64(r+1) / float64(n), s[r], true
}

// tailLabel renders a tail for the human-readable table, with the
// percentile it ended up at and the sample count behind it.
func tailLabel(xs []float64) string {
	pct, v, ok := tail(xs)
	if !ok {
		return fmt.Sprintf("n/a (n=%d)", len(xs))
	}
	return fmt.Sprintf("%.4g at p%.4g (n=%d)", v, math.Floor(pct*10)/10, len(xs))
}

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
