package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// --- Histogram ---

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 1..1000µs uniform: p50 ≈ 500µs, p99 ≈ 990µs. The log bucketing bounds
	// the relative error by one bucket step (10^(1/32) ≈ 1.075).
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d, want 1000", h.Count())
	}
	checks := []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 500 * time.Microsecond},
		{0.95, 950 * time.Microsecond},
		{0.99, 990 * time.Microsecond},
	}
	for _, c := range checks {
		got := h.Quantile(c.q)
		ratio := float64(got) / float64(c.want)
		if ratio < 1/1.08 || ratio > 1.08 {
			t.Errorf("Quantile(%.2f) = %v, want ~%v (ratio %.3f outside one bucket step)", c.q, got, c.want, ratio)
		}
	}
	if h.Max() != 1000*time.Microsecond {
		t.Errorf("Max = %v, want 1ms", h.Max())
	}
	if got := h.Quantile(1.0); got > h.Max() {
		t.Errorf("Quantile(1.0) = %v exceeds Max %v", got, h.Max())
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must read 0")
	}
	h.Record(-time.Second) // clamps to 0
	if h.Count() != 1 || h.Sum() != 0 {
		t.Fatalf("negative record: count=%d sum=%v, want 1 and 0", h.Count(), h.Sum())
	}
	h.Record(24 * time.Hour) // beyond the last bucket; max keeps the honest value
	if h.Max() != 24*time.Hour {
		t.Fatalf("Max = %v, want 24h", h.Max())
	}
	if got := h.Quantile(1.0); got != 24*time.Hour {
		t.Fatalf("overflow-bucket Quantile(1.0) = %v, want the observed max", got)
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	var h Histogram
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(time.Duration(w*per+i) * time.Microsecond)
				_ = h.Quantile(0.99) // reads race benignly with writes
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
	wantMax := time.Duration(workers*per-1) * time.Microsecond
	if h.Max() != wantMax {
		t.Fatalf("max = %v, want %v (CAS high-water lost an update)", h.Max(), wantMax)
	}
}

// --- Registry ---

func TestRegistryWithReturnsSameChild(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("c_total", "h", "k")
	a, b := v.With("x"), v.With("x")
	if a != b {
		t.Fatal("With must return the same child for the same label values")
	}
	if v.With("y") == a {
		t.Fatal("distinct label values must get distinct children")
	}
	// Re-registering the same family returns the same children.
	if r.NewCounterVec("c_total", "h", "k").With("x") != a {
		t.Fatal("re-registered family must share children")
	}
}

// The calls every instrumented request and every returned top-K item pay —
// Record on a pre-resolved histogram child, Add on a pre-resolved counter
// child, and ScoreSketch.Record — must not allocate.
func TestHotRecordPathAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	hist := r.NewHistogramVec("h_seconds", "h", "stage").With("rerank")
	ctr := r.NewCounterVec("c_total", "h", "endpoint", "code").With("topk", "200")
	var sketch ScoreSketch
	for name, f := range map[string]func(){
		"HistogramVec child Record": func() { hist.Record(time.Microsecond) },
		"CounterVec child Add":      func() { ctr.Add(1) },
		"ScoreSketch.Record":        func() { sketch.Record(1.5) },
	} {
		if a := testing.AllocsPerRun(1000, f); a != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", name, a)
		}
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("m", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.NewGauge("m", "h")
}

func TestRegistryLabelSchemaMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounterVec("m_total", "h", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering with a different label schema must panic")
		}
	}()
	r.NewCounterVec("m_total", "h", "a")
}

func TestRegistryFamiliesOrder(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("first_total", "h")
	r.NewGauge("second", "h")
	r.NewHistogram("third_seconds", "h")
	got := r.Families()
	want := []string{"first_total", "second", "third_seconds"}
	if len(got) != len(want) {
		t.Fatalf("Families() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Families()[%d] = %q, want %q (registration order must be preserved)", i, got[i], want[i])
		}
	}
}

// --- Exposition golden test ---

// TestWritePrometheusGolden pins the exposition byte-for-byte for a fixed
// wiring: family order, HELP/TYPE lines, label rendering (including escapes),
// summary quantile lines, and float formatting. Any format drift — which
// would silently break scrapers — fails here first.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("seqfm_events_total", "Total events.")
	c.Add(42)
	g := r.NewGauge("seqfm_depth", "Queue depth.")
	g.Set(2.5)
	v := r.NewCounterVec("seqfm_requests_total", "Requests by endpoint and code.", "endpoint", "code")
	v.With("topk", "200").Add(7)
	v.With("topk", "429").Add(1)
	r.CounterFunc("seqfm_cb_total", "Callback counter.", func() int64 { return 9 })
	r.GaugeFunc("seqfm_cb_ratio", "Callback gauge.", func() float64 { return 0.125 })
	r.GaugeFunc("seqfm_weird", `Help with \ and
newline.`, func() float64 { return 1 }, Label{Name: "path", Value: `a"b\c`})
	h := r.NewHistogram("seqfm_op_seconds", "Op latency.")
	for i := 0; i < 4; i++ {
		h.Record(time.Millisecond) // single bucket: quantiles interpolate deterministically
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}

	// The four 1ms records land in one bucket; quantiles interpolate between
	// the bucket's lower bound and the observed max (1ms = 1e6ns exactly).
	lower := bucketUpper(bucketOf(time.Millisecond) - 1) // ns
	q := func(frac float64) string {
		val := (lower + (1e6-lower)*frac) / 1e9
		return formatFloat(val)
	}
	// Cumulative _bucket lines on the coarsened grid, derived from the bucket
	// math directly: 0 below the 1ms records' bucket, 4 from it on, +Inf last.
	var bucketLines []string
	rec := bucketOf(time.Millisecond)
	for i := 0; i < histBuckets; i += bucketCoarsen {
		n := "0"
		if i >= rec {
			n = "4"
		}
		bucketLines = append(bucketLines,
			`seqfm_op_seconds_bucket{le="`+formatFloat(bucketUpper(i)/1e9)+`"} `+n)
	}
	bucketLines = append(bucketLines, `seqfm_op_seconds_bucket{le="+Inf"} 4`)
	want := strings.Join([]string{
		"# HELP seqfm_events_total Total events.",
		"# TYPE seqfm_events_total counter",
		"seqfm_events_total 42",
		"# HELP seqfm_depth Queue depth.",
		"# TYPE seqfm_depth gauge",
		"seqfm_depth 2.5",
		"# HELP seqfm_requests_total Requests by endpoint and code.",
		"# TYPE seqfm_requests_total counter",
		`seqfm_requests_total{endpoint="topk",code="200"} 7`,
		`seqfm_requests_total{endpoint="topk",code="429"} 1`,
		"# HELP seqfm_cb_total Callback counter.",
		"# TYPE seqfm_cb_total counter",
		"seqfm_cb_total 9",
		"# HELP seqfm_cb_ratio Callback gauge.",
		"# TYPE seqfm_cb_ratio gauge",
		"seqfm_cb_ratio 0.125",
		`# HELP seqfm_weird Help with \\ and\nnewline.`,
		"# TYPE seqfm_weird gauge",
		`seqfm_weird{path="a\"b\\c"} 1`,
		"# HELP seqfm_op_seconds Op latency.",
		"# TYPE seqfm_op_seconds summary",
		`seqfm_op_seconds{quantile="0.5"} ` + q(0.5),
		`seqfm_op_seconds{quantile="0.95"} ` + q(0.95),
		`seqfm_op_seconds{quantile="0.99"} ` + q(0.99),
		strings.Join(bucketLines, "\n"),
		"seqfm_op_seconds_sum 0.004",
		"seqfm_op_seconds_count 4",
		"",
	}, "\n")
	if got := sb.String(); got != want {
		t.Fatalf("exposition drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestParsePrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("a_total", "h").Add(3)
	r.NewCounterVec("b_total", "h", "k", "j").With("x", `va"l`).Add(5)
	r.NewGauge("c", "h").Set(-1.5)
	h := r.NewHistogram("d_seconds", "h")
	h.Record(2 * time.Millisecond)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	samples, err := ParsePrometheus(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("ParsePrometheus on our own output: %v", err)
	}
	if v, ok := samples.Value("a_total"); !ok || v != 3 {
		t.Errorf("a_total = %v,%v want 3,true", v, ok)
	}
	if v, ok := samples.Value("b_total", "k", "x", "j", `va"l`); !ok || v != 5 {
		t.Errorf("b_total{k=x} = %v,%v want 5,true (escaped label must round-trip)", v, ok)
	}
	if v, ok := samples.Value("c"); !ok || v != -1.5 {
		t.Errorf("c = %v,%v want -1.5,true", v, ok)
	}
	if v, ok := samples.Value("d_seconds_count"); !ok || v != 1 {
		t.Errorf("d_seconds_count = %v,%v want 1,true", v, ok)
	}
	if v, ok := samples.Value("d_seconds", "quantile", "0.5"); !ok || math.Abs(v-0.002) > 0.0002 {
		t.Errorf("d_seconds{q=0.5} = %v,%v want ~0.002", v, ok)
	}
	if _, ok := samples.Value("nope"); ok {
		t.Error("lookup of absent family must report !ok")
	}
	if sum, n := samples.SumValues("b_total", "k", "x"); n != 1 || sum != 5 {
		t.Errorf("SumValues(b_total,k=x) = %v,%d want 5,1", sum, n)
	}
}

// --- Trace ---

func TestTraceNilSafety(t *testing.T) {
	var tr *Trace
	tr.Stage("x", time.Millisecond) // must not panic
	tr.StartStage("y")()
	if tr.Stages() != nil {
		t.Fatal("nil trace must report no stages")
	}
	if FromContext(nil) != nil {
		t.Fatal("FromContext(nil) must be nil")
	}
}

func TestTraceStagesAndSink(t *testing.T) {
	r := NewRegistry()
	sink := r.NewHistogramVec("stage_seconds", "h", "stage")
	tr := NewTrace("recommend", sink)
	tr.Stage("retrieve", 2*time.Millisecond)
	tr.Stage("rerank", time.Millisecond)
	tr.Stage("retrieve", -time.Millisecond) // clamps to 0, still counted

	st := tr.Stages()
	if len(st) != 3 || st[0].Name != "retrieve" || st[1].Name != "rerank" {
		t.Fatalf("stages = %+v, want retrieve,rerank,retrieve in order", st)
	}
	if st[0].Millis != 2 {
		t.Errorf("retrieve ms = %v, want 2", st[0].Millis)
	}
	if st[2].Dur != 0 {
		t.Errorf("negative stage duration must clamp to 0, got %v", st[2].Dur)
	}
	if got := sink.With("retrieve").Count(); got != 2 {
		t.Errorf("sink retrieve count = %d, want 2", got)
	}
	if got := sink.With("rerank").Count(); got != 1 {
		t.Errorf("sink rerank count = %d, want 1", got)
	}
}

// --- SlowRing ---

func TestSlowRingThresholdAndOrder(t *testing.T) {
	ring := NewSlowRing(3, 10*time.Millisecond)
	obs := func(ep string, total time.Duration) {
		tr := NewTrace(ep, nil)
		tr.Stage("retrieve", total/2)
		ring.Observe(tr, 200, total)
	}
	obs("fast", 5*time.Millisecond) // below threshold: dropped
	obs("a", 20*time.Millisecond)
	obs("b", 30*time.Millisecond)
	obs("c", 40*time.Millisecond)
	obs("d", 50*time.Millisecond) // evicts "a" (ring size 3)

	got := ring.Snapshot()
	if len(got) != 3 {
		t.Fatalf("snapshot len = %d, want 3", len(got))
	}
	wantOrder := []string{"d", "c", "b"} // newest first
	for i, w := range wantOrder {
		if got[i].Endpoint != w {
			t.Fatalf("snapshot[%d] = %q, want %q (newest-first order)", i, got[i].Endpoint, w)
		}
	}
	if got[0].Millis != 50 || got[0].Status != 200 {
		t.Errorf("entry = %+v, want 50ms status 200", got[0])
	}
	if len(got[0].Stages) != 1 || got[0].Stages[0].Name != "retrieve" {
		t.Errorf("stage breakdown lost: %+v", got[0].Stages)
	}
}

func TestSlowRingNegativeThresholdKeepsAll(t *testing.T) {
	ring := NewSlowRing(8, -1)
	ring.Observe(NewTrace("x", nil), 200, 0)
	if len(ring.Snapshot()) != 1 {
		t.Fatal("negative threshold must keep every request")
	}
	if ring.Threshold() >= 0 {
		t.Fatal("negative threshold must be preserved")
	}
}

func TestSlowRingPartialFill(t *testing.T) {
	ring := NewSlowRing(16, -1)
	ring.Observe(NewTrace("a", nil), 200, time.Millisecond)
	ring.Observe(NewTrace("b", nil), 200, time.Millisecond)
	got := ring.Snapshot()
	if len(got) != 2 || got[0].Endpoint != "b" || got[1].Endpoint != "a" {
		t.Fatalf("partial ring snapshot = %+v, want [b a]", got)
	}
	// Nil trace: the entry records endpoint "unknown" rather than panicking.
	ring.Observe(nil, 500, time.Millisecond)
	if got := ring.Snapshot(); got[0].Endpoint != "unknown" {
		t.Fatalf("nil-trace entry endpoint = %q, want unknown", got[0].Endpoint)
	}
}

// TestScrapeDuringRecording hammers recording and Vec resolution from many
// goroutines while scraping the registry — under -race this proves exposition
// takes consistent locks against wiring and never trips the detector against
// atomic recording.
func TestScrapeDuringRecording(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("hot_total", "h", "k")
	hv := r.NewHistogramVec("hot_seconds", "h", "k")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := v.With("w")
			h := hv.With("w")
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Add(1)
				h.Record(time.Duration(i) * time.Microsecond)
				if i%64 == 0 {
					// Concurrent wiring: new children appear mid-scrape.
					v.With(string(rune('a' + (w+i)%8))).Add(1)
				}
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatalf("scrape %d: %v", i, err)
		}
		if _, err := ParsePrometheus(strings.NewReader(sb.String())); err != nil {
			t.Fatalf("scrape %d unparseable: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}
