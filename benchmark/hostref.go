package main

import (
	"encoding/json"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// The host-speed reference: the control arm of every gated timing.
//
// The sandbox shares its host, and a neighbour on the same physical core
// slows everything this process does by 1.3–1.5× for seconds to minutes at a
// time (README, "Noise"). A run that falls inside such a stretch reads a
// third slower whatever statistic it reports, which is more than any bound
// BENCHMARK.json may set. So the harness runs a fixed piece of its own code —
// probe, about a millisecond — beside the work it times, and divides each
// gated duration by how much slower than nominal the probes next to it ran.
// The result is time on a host of the nominal speed: "host-corrected", `_hc`
// in metric names. The raw numbers are printed beside it.
//
// The probe is benchmark code: a change to the program cannot move it, so a
// faster program shows as a smaller corrected time exactly as it shows as a
// smaller raw one. It mixes the two kinds of work a request is made of,
// because the neighbour hurts them differently: a cache-resident float64
// kernel (tracks contention for the core's execution ports) and a pass of
// JSON decoding, hashing, allocation and scattered reads from a table larger
// than L2 (tracks contention for the caches). Over a four-minute recording
// with the host in both states, one-second medians of a warm /v1/topk were
// 28 % apart between the quiet and the slow state; divided by this probe's
// time, 7 %.

// probeNominal is the probe's median on this sandbox when the host is quiet,
// so corrected times read as quiet-sandbox times. Any constant would do: it
// scales every corrected number alike and cancels in every comparison.
const probeNominal = 1200 * time.Microsecond

const (
	refN     = 64      // the compute kernel multiplies refN×refN matrices
	refReps  = 4       // times over
	refTable = 1 << 20 // float64s in the gather table: 8 MiB, beyond L2
	refCands = 200
	refRows  = 8 // table rows gathered per candidate
)

// Read-only inputs, shared by every prober.
var (
	refA, refB = refMatrices()
	refBig     = refGatherTable()
	refBody    = topkBody(7, refInts(20, 3), refInts(refCands, 11))
	refSink    atomic.Uint64
)

func refMatrices() (a, b []float64) {
	a, b = make([]float64, refN*refN), make([]float64, refN*refN)
	for i := range a {
		a[i] = float64(i%97) * 0.01
		b[i] = 1 / float64(i%89+1)
	}
	return a, b
}

func refGatherTable() []float64 {
	t := make([]float64, refTable)
	for i := range t {
		t[i] = float64(i % 1021)
	}
	return t
}

// refInts is n distinct-looking ids from a fixed multiplicative sequence.
func refInts(n, salt int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = (i*2654435761 + salt*40503) % 1000003
	}
	return out
}

// probe runs the reference work once and returns how long it took. Safe to
// call from several goroutines at once.
func probe() time.Duration {
	start := time.Now()

	c := make([]float64, refN*refN)
	for r := 0; r < refReps; r++ {
		for i := 0; i < refN; i++ {
			out := c[i*refN : (i+1)*refN]
			for k := 0; k < refN; k++ {
				aik := refA[i*refN+k]
				row := refB[k*refN : (k+1)*refN]
				for j := range row {
					out[j] += aik * row[j]
				}
			}
		}
	}

	var q struct {
		User       int   `json:"user"`
		Hist       []int `json:"hist"`
		Candidates []int `json:"candidates"`
		K          int   `json:"k"`
	}
	for r := 0; r < 2; r++ {
		q.Hist, q.Candidates = nil, nil
		if err := json.Unmarshal(refBody, &q); err != nil {
			panic(err) // the body is a constant
		}
	}
	seen := make(map[int]struct{}, len(q.Candidates))
	s := c[5]
	for r := 0; r < refRows; r++ {
		for _, cand := range q.Candidates {
			seen[cand] = struct{}{}
			off := (cand*31 + r*7919) % (refTable - refN)
			for j, v := range refBig[off : off+refN] {
				s += v * refA[j]
			}
		}
	}
	ids := append([]int(nil), q.Candidates...)
	sort.Ints(ids)
	refSink.Add(math.Float64bits(s+float64(ids[0]+len(seen))) & 1)

	return time.Since(start)
}

// probeBurst runs n probes back to back.
func probeBurst(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = probe()
	}
	return out
}

// Work that keeps every core busy has no gaps to probe in: a host sampler
// probes beside it on a goroutine of its own, one probe every sampleGap (a
// twentieth of one core), and stamps each probe with when it ended.
const (
	sampleGap = 20 * time.Millisecond
	// samplePad widens the interval a factor is asked for, so that work of a
	// few milliseconds still has probes beside it.
	samplePad = 100 * time.Millisecond
)

type hostSample struct {
	at   time.Time
	took time.Duration
}

type hostSamples []hostSample

// sampleHost probes until stop is called; stop returns the probes.
func sampleHost() (stop func() hostSamples) {
	quit, done := make(chan struct{}), make(chan hostSamples)
	go func() {
		var out hostSamples
		for {
			select {
			case <-quit:
				done <- out
				return
			case <-time.After(sampleGap):
				took := probe()
				out = append(out, hostSample{time.Now(), took})
			}
		}
	}()
	return func() hostSamples {
		close(quit)
		return <-done
	}
}

// between returns the probes that ended within samplePad of [from, to].
func (h hostSamples) between(from, to time.Time) []time.Duration {
	from, to = from.Add(-samplePad), to.Add(samplePad)
	var out []time.Duration
	for _, s := range h {
		if !s.at.Before(from) && !s.at.After(to) {
			out = append(out, s.took)
		}
	}
	return out
}

// hostFactor is how much slower than nominal the host ran while these probes
// did: their median over probeNominal. Without probes it is 1, no correction.
func hostFactor(probes ...[]time.Duration) float64 {
	var all []time.Duration
	for _, p := range probes {
		all = append(all, p...)
	}
	if len(all) == 0 {
		return 1
	}
	return float64(medianDur(all)) / float64(probeNominal)
}

// recordHostFactors reports the factors a run's stretches were corrected by:
// their median and extremes.
func recordHostFactors(r *report, factors []float64) {
	if len(factors) == 0 {
		return
	}
	s := sortedCopy(factors)
	r.set("bench.host_factor_p50", "ratio", median(s), len(s))
	r.set("bench.host_factor_min", "ratio", s[0], len(s))
	r.set("bench.host_factor_max", "ratio", s[len(s)-1], len(s))
}
