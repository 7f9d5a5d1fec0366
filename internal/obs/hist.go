// Package obs is the serving stack's telemetry substrate: a dependency-free
// metric registry (counters, gauges, log-bucketed duration histograms) with
// labeled families and Prometheus text exposition, plus a lightweight
// per-request trace carried through context.Context and a bounded ring of
// slow-request exemplars.
//
// The package sits below every other internal package (it imports only the
// standard library), so any subsystem — the WAL, the online learner, the
// serving engine — can embed its instruments directly. Recording is
// lock-free and allocation-free: a Counter.Add or Histogram.Record on a
// request hot path costs a handful of atomic operations. Label resolution
// (Vec.With) takes a lock and may allocate, so hot paths resolve their
// children once at wiring time and record through the returned pointer.
package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// histBucketsPerDecade fixes the bucket resolution: 32 buckets per 10× of
// latency keeps the worst-case quantile error under one bucket step
// (10^(1/32) ≈ 1.075, i.e. ≲7.5%) while the whole histogram — covering
// 1µs..~17min — stays under 3KiB of counters.
const (
	histBucketsPerDecade = 32
	histMinNanos         = 1e3 // 1µs floor; everything faster lands in bucket 0
	histDecades          = 10  // 1µs · 10^10 ≈ 2.8h ceiling
	histBuckets          = histBucketsPerDecade*histDecades + 1
)

// Histogram is a concurrency-safe log-bucketed duration histogram. The zero
// value is ready to use; Record never allocates or blocks, so it can sit on
// a request hot path. It is the one latency-accounting implementation in the
// repo: the experiments tier, the registry and the /metrics exposition all
// bucket identically.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64 // nanoseconds, high-water
}

// bucketOf maps a duration to its bucket index.
func bucketOf(d time.Duration) int {
	ns := float64(d.Nanoseconds())
	if ns <= histMinNanos {
		return 0
	}
	i := int(math.Log10(ns/histMinNanos)*histBucketsPerDecade) + 1
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// bucketUpper returns the upper latency bound of bucket i in nanoseconds.
func bucketUpper(i int) float64 {
	if i == 0 {
		return histMinNanos
	}
	return histMinNanos * math.Pow(10, float64(i)/histBucketsPerDecade)
}

// Record adds one observation.
func (h *Histogram) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[bucketOf(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(d.Nanoseconds())
	for {
		cur := h.max.Load()
		if d.Nanoseconds() <= cur || h.max.CompareAndSwap(cur, d.Nanoseconds()) {
			break
		}
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total recorded duration.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Mean returns the mean recorded latency (0 when empty).
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Max returns the largest recorded latency.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Quantile returns the latency at quantile q ∈ [0,1], interpolated within
// the containing bucket (upper-bounded by the observed max). Concurrent
// Records make the read a consistent-enough snapshot, not an exact one —
// the histogram's contract is monitoring, not accounting.
func (h *Histogram) Quantile(q float64) time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(n)
	seen := 0.0
	for i := 0; i < histBuckets; i++ {
		c := float64(h.buckets[i].Load())
		if c == 0 {
			continue
		}
		if seen+c >= rank {
			// Interpolate between the bucket's bounds by the rank's position
			// inside it; bucket 0's lower bound is 0.
			lower := 0.0
			if i > 0 {
				lower = bucketUpper(i - 1)
			}
			upper := bucketUpper(i)
			m := float64(h.max.Load())
			if i == histBuckets-1 && m > upper {
				// The overflow bucket has no log-scale upper bound; the
				// observed max is the honest one.
				upper = m
			}
			if upper > m {
				upper = m
			}
			if upper < lower {
				upper = lower
			}
			frac := (rank - seen) / c
			return time.Duration(lower + (upper-lower)*frac)
		}
		seen += c
	}
	return time.Duration(h.max.Load())
}

// bucketCoarsen fixes the exposition grid for cumulative _bucket series:
// every 4th fine bound — 8 per decade instead of 32 — keeps the series
// aggregatable across instances by external Prometheus without emitting 321
// lines per child. Quantiles keep the full fine resolution; only the wire
// format coarsens.
const bucketCoarsen = 4

// CumulativeBuckets returns the coarsened cumulative bucket counts and their
// upper bounds in seconds, Prometheus histogram style: counts[i] is the
// number of observations ≤ uppers[i], and the final entry is the +Inf bucket
// (uppers[last] is math.Inf(1), counts[last] the total count). Like Quantile
// it reads a consistent-enough snapshot under concurrent Records.
func (h *Histogram) CumulativeBuckets() (uppers []float64, counts []int64) {
	n := (histBuckets-1)/bucketCoarsen + 1 // coarse bounds, excluding +Inf
	uppers = make([]float64, 0, n+1)
	counts = make([]int64, 0, n+1)
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if i%bucketCoarsen == 0 {
			uppers = append(uppers, bucketUpper(i)/1e9)
			counts = append(counts, cum)
		}
	}
	// +Inf holds the total. Concurrent Records can leave count momentarily
	// behind the bucket sum; take the larger so the series stays cumulative.
	total := h.count.Load()
	if cum > total {
		total = cum
	}
	uppers = append(uppers, math.Inf(1))
	counts = append(counts, total)
	return uppers, counts
}

// Snapshot returns the conventional serving percentiles in one pass-ish
// read: p50, p95, p99, plus mean, max and count.
func (h *Histogram) Snapshot() Snapshot {
	return Snapshot{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
	}
}

// Snapshot is a point-in-time percentile summary of a Histogram.
type Snapshot struct {
	Count               int64
	Mean, P50, P95, P99 time.Duration
	Max                 time.Duration
}
