package main

import (
	"fmt"
	"sort"
	"time"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count), as Python's statistics.median does; 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the default, "exclusive"), so
// the spreads this program reports are the ones a reader recomputes from
// the per-run values. One sample is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	switch len(xs) {
	case 0:
		return 0, 0
	case 1:
		return xs[0], xs[0]
	}
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// tailPercentile returns the highest percentile of xs that still has at
// least ten samples above it, and which percentile that is: at 500
// samples the value with ten larger ones, p98. A tail read from fewer
// samples is noise, so fewer than eleven samples is an error.
func tailPercentile(xs []float64) (value, pct float64, err error) {
	n := len(xs)
	if n < 11 {
		return 0, 0, fmt.Errorf("tail percentile needs at least 11 samples, have %d", n)
	}
	s := sorted(xs)
	return s[n-11], 100 * float64(n-10) / float64(n), nil
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}
