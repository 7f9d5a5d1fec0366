package metrics

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"seqfm/internal/obs"
)

// Latency is recorded in obs.Histogram, the repo's one histogram; these
// tests hold it at the millisecond scales the experiment tier reports.

func TestLatencyHistEmpty(t *testing.T) {
	var h obs.Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Max() != 0 {
		t.Fatalf("empty histogram not all-zero: %+v", h.Snapshot())
	}
}

func TestLatencyHistQuantiles(t *testing.T) {
	var h obs.Histogram
	// 1..1000 ms uniformly: p50 ≈ 500ms, p99 ≈ 990ms, within the bucket
	// resolution's ~7.5% relative error.
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d, want 1000", h.Count())
	}
	checks := []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 500 * time.Millisecond},
		{0.95, 950 * time.Millisecond},
		{0.99, 990 * time.Millisecond},
	}
	for _, c := range checks {
		got := h.Quantile(c.q)
		lo := time.Duration(float64(c.want) * 0.85)
		hi := time.Duration(float64(c.want) * 1.15)
		if got < lo || got > hi {
			t.Errorf("Quantile(%.2f) = %s, want within [%s, %s]", c.q, got, lo, hi)
		}
	}
	if h.Max() != 1000*time.Millisecond {
		t.Errorf("Max = %s, want 1s", h.Max())
	}
	if mean := h.Mean(); mean < 480*time.Millisecond || mean > 520*time.Millisecond {
		t.Errorf("Mean = %s, want ≈500ms", mean)
	}
}

func TestLatencyHistBounds(t *testing.T) {
	var h obs.Histogram
	h.Record(-time.Second) // clamped to 0
	h.Record(0)
	h.Record(100 * time.Hour) // beyond the top bucket
	if h.Count() != 3 {
		t.Fatalf("count = %d, want 3", h.Count())
	}
	if q := h.Quantile(1); q != 100*time.Hour {
		// The top quantile is upper-bounded by the observed max, even though
		// the observation overflowed the last bucket.
		t.Errorf("Quantile(1) = %s, want 100h (observed max)", q)
	}
	if q := h.Quantile(0); q > time.Microsecond {
		t.Errorf("Quantile(0) = %s, want ≤1µs", q)
	}
}

func TestLatencyHistConcurrent(t *testing.T) {
	var h obs.Histogram
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < per; i++ {
				h.Record(time.Duration(1+rng.Intn(1_000_000)) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
	if h.Quantile(0.5) <= 0 || h.Max() <= 0 {
		t.Fatalf("degenerate snapshot after concurrent records: %+v", h.Snapshot())
	}
}
