package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: below that a tail percentile is a handful of outliers, not a
// property of the system.
const minBeyond = 10

// ladder is the percentiles tailPercentile chooses from, ascending.
var ladder = []float64{50, 75, 90, 95, 99, 99.9}

// rank is the nearest-rank position (1-based) of the q-th percentile among
// n samples: the smallest rank with at least q% of samples at or below it.
// The epsilon keeps 99.9 % of 10,000 at rank 9,990, not 9,991.
func rank(n int, q float64) int {
	r := int(math.Ceil(q/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the q-th percentile (0..100) of sorted, ascending and
// non-empty, by the nearest-rank rule.
func percentile(sorted []float64, q float64) float64 { return sorted[rank(len(sorted), q)-1] }

// supported reports whether n samples carry the q-th percentile: at least
// minBeyond samples above its rank.
func supported(n int, q float64) bool { return n > 0 && n-rank(n, q) >= minBeyond }

// tailPercentile picks the highest ladder percentile n samples support.
// ok is false when not even the median has minBeyond samples beyond it.
func tailPercentile(n int) (q float64, ok bool) {
	for i := len(ladder) - 1; i >= 0; i-- {
		if supported(n, ladder[i]) {
			return ladder[i], true
		}
	}
	return 0, false
}

// sortedCopy returns xs ascending without disturbing the caller's order.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method), so the
// spreads this harness records are the numbers the acceptance driver
// computes from the same values. It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64, err error) {
	s := sortedCopy(xs)
	m := len(s)
	if m < 2 {
		return 0, 0, fmt.Errorf("quartiles need at least two samples, have %d", m)
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3), nil
}

// spread is the interquartile range as a share of the median — the
// run-to-run noise figure every bound in BENCHMARK.json is judged against.
func spread(xs []float64) (float64, error) {
	q1, q3, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	med := median(xs)
	if med == 0 {
		return 0, fmt.Errorf("spread of a zero median")
	}
	return (q3 - q1) / math.Abs(med), nil
}

// ms and us convert durations for reporting, keeping every digit.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// durationsMS converts a latency sample to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// medianDur is the median of a duration sample (0 when empty).
func medianDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return s[len(s)/2]
}

// fastQ is the percentile the raw "fast edge" figures report (<kind>_p05_ms,
// <kind>_rps, eval_user_ms). Interference from the shared host only ever adds
// time, so a run's 5th percentile is the code's own cost as long as the run
// saw some quiet seconds. It is printed beside the gated, host-corrected
// medians (hostref.go), which also hold when it did not.
const fastQ = 5
