package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"seqfm/internal/data"
)

// The tests here are the fast ones (well under two seconds together): the
// statistics, the span arithmetic, generator determinism, the output schema
// and the compare verdicts. Nothing in them builds a serving stack.

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 15, ok: false},            // median has 7 beyond
		{n: 20, want: 50, ok: true},   // exactly 10 beyond the median
		{n: 100, want: 90, ok: true},  // p90 has 10 beyond, p95 only 5
		{n: 200, want: 95, ok: true},  // p95 has 10 beyond, p99 only 2
		{n: 1000, want: 99, ok: true}, // p99 has 10 beyond, p99.9 only 1
		{n: 10000, want: 99.9, ok: true},
	} {
		q, ok := tailPercentile(tc.n)
		if ok != tc.ok || (ok && q != tc.want) {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, q, ok, tc.want, tc.ok)
		}
	}
	if supported(199, 95) || !supported(200, 95) {
		t.Errorf("p95 must need exactly 200 samples: supported(199)=%v supported(200)=%v", supported(199, 95), supported(200, 95))
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := percentile(xs, 99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
}

// Python: statistics.quantiles([3,1,4,1,5,9,2,6,5,3], n=4) == [1.75, 3.5, 5.25].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3, err := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if err != nil || q1 != 1.75 || q3 != 5.25 {
		t.Fatalf("quartiles = %v, %v, %v; want 1.75, 5.25", q1, q3, err)
	}
	sp, err := spread([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if err != nil || sp != 1 {
		t.Fatalf("spread = %v, %v; want (5.25-1.75)/3.5 = 1", sp, err)
	}
	if _, _, err := quartiles([]float64{1}); err == nil {
		t.Fatal("one sample must not have quartiles")
	}
}

func TestSelfTimeIsSpanMinusUnionOfChildren(t *testing.T) {
	parent := span{Name: "p", StartNS: 100, EndNS: 200}
	for _, tc := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{StartNS: 110, EndNS: 120}, {StartNS: 150, EndNS: 170}}, 70},
		{"overlapping counted once", []span{{StartNS: 110, EndNS: 150}, {StartNS: 130, EndNS: 160}}, 50},
		{"nested", []span{{StartNS: 110, EndNS: 190}, {StartNS: 120, EndNS: 130}}, 20},
		{"clipped to parent", []span{{StartNS: 50, EndNS: 120}, {StartNS: 190, EndNS: 400}}, 70},
		{"outside", []span{{StartNS: 0, EndNS: 90}}, 100},
		{"covers all", []span{{StartNS: 0, EndNS: 500}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestTracerLaysReexecutedChildrenBackToBack(t *testing.T) {
	tr := newTracer()
	root := tr.root(7, "root", func() { time.Sleep(2 * time.Millisecond) })
	var off time.Duration
	a := tr.lay(root, &off, "a", 300*time.Microsecond)
	b := tr.lay(root, &off, "b", 500*time.Microsecond)
	if a.StartNS != root.StartNS || b.StartNS != a.EndNS || a.Parent != "root" || b.Req != 7 {
		t.Fatalf("children not laid from the parent's start: root %+v a %+v b %+v", root, a, b)
	}
	self := tr.selfTimes("root")
	if len(self) != 1 || self[0] != root.dur()-800*time.Microsecond {
		t.Fatalf("self time %v, want %v", self, root.dur()-800*time.Microsecond)
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d span lines, want 3", len(lines))
	}
	var got map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &got); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"req", "name", "parent", "start_ns", "end_ns"} {
		if _, ok := got[k]; !ok {
			t.Errorf("span line lacks %q: %s", k, lines[1])
		}
	}
	if len(got) != 5 {
		t.Errorf("span line has %d keys, want exactly req, name, parent, start_ns, end_ns", len(got))
	}
}

// testDataset is a small stand-in with the generator's structure.
func testDataset(t *testing.T, seed int64) *data.Dataset {
	t.Helper()
	ds, err := data.GeneratePOI(data.GowallaConfig(0.02, seed))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestPlansAreAFunctionOfTheSeed(t *testing.T) {
	l := load{Rate: 50, Open: 0.6, Closed: 0.4}
	build := func(seed int64) [3]string {
		ds := testDataset(t, seed)
		mixed, err := mixedOnlinePlan(ds, seed, load{Rate: 20, Open: 0.6, Closed: 0.4}, 4)
		if err != nil {
			t.Fatal(err)
		}
		return [3]string{planHash(recColdPlan(ds, seed, l, 4)), planHash(topkWarmPlan(ds, seed, l, 4)), planHash(mixed)}
	}
	a, b, c := build(3), build(3), build(4)
	if a != b {
		t.Errorf("same seed, different plans: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] == c[i] {
			t.Errorf("plan %d did not change with the seed", i)
		}
	}
}

func TestRecColdNeverRepeatsAHistory(t *testing.T) {
	ds := testDataset(t, 1)
	seen := map[string]bool{}
	for _, ph := range recColdPlan(ds, 1, load{Rate: 100, Open: 0.6, Closed: 0.4}, 4) {
		for _, ops := range [][]op{ph.Sched, ph.Filler} {
			for _, o := range ops {
				if seen[string(o.Body)] {
					t.Fatalf("request repeated: %s", o.Body)
				}
				seen[string(o.Body)] = true
				if len(o.Hist) == 0 {
					t.Fatalf("request without a history: %s", o.Body)
				}
			}
		}
	}
	if len(seen) < 1000 {
		t.Fatalf("only %d requests planned", len(seen))
	}
}

func TestOpenLoopDueTimesAreEvenlySpaced(t *testing.T) {
	ds := testDataset(t, 1)
	for _, ph := range recColdPlan(ds, 1, load{Rate: 100, Open: 0.5, Closed: 0.5}, 2*segments) {
		if ph.Group != groupOpen {
			continue
		}
		if len(ph.Sched) != 100 { // one second per open stretch at 100/s
			t.Fatalf("%s: %d scheduled ops, want 100", ph.Name, len(ph.Sched))
		}
		for i, o := range ph.Sched {
			if o.Due != time.Duration(i)*10*time.Millisecond {
				t.Fatalf("%s op %d due %v", ph.Name, i, o.Due)
			}
		}
	}
}

func TestMixedPlanReadsNeverRaceAWrite(t *testing.T) {
	ds := testDataset(t, 2)
	phases, err := mixedOnlinePlan(ds, 2, load{Rate: 20, Open: 0.6, Closed: 0.4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	wrote := map[int]bool{}
	for _, ph := range phases {
		for _, o := range ph.Sched {
			if o.Kind == opFeedback {
				if wrote[o.User] {
					t.Fatalf("user %d gets two events", o.User)
				}
				wrote[o.User] = true
				log := ds.Users[o.User]
				if o.Object != log[len(log)-1].Object {
					t.Fatalf("user %d: event object %d is not the held-out tail", o.User, o.Object)
				}
			}
		}
	}
	for _, ph := range phases {
		for _, o := range ph.Filler {
			if wrote[o.User] {
				t.Fatalf("closed-loop read for user %d, who also receives an event", o.User)
			}
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json repeats spec.go's contract subset; this keeps them equal
// and inside the driver's limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var file struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if len(file.Paths) != 1 || file.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", file.Paths)
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", file.RunSeconds)
	}
	var gated []workloadDef
	for _, w := range workloadDefs {
		if w.Gated {
			gated = append(gated, w)
		}
	}
	if len(file.Workloads) != len(gated) || len(gated) < 2 {
		t.Fatalf("%d workloads, spec gates %d", len(file.Workloads), len(gated))
	}
	names := map[string]bool{}
	unique := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q outside the driver's limits", n)
		}
		if names[n] {
			t.Errorf("name %q used twice", n)
		}
		names[n] = true
	}
	for i, w := range file.Workloads {
		unique(w.Name)
		if w.Name != gated[i].Name || w.Why != gated[i].Why {
			t.Errorf("workload %d: %+v differs from spec %q", i, w, gated[i].Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
	}
	for _, w := range workloadDefs {
		for _, d := range contractE2E {
			if w.Project[d.Name] == "" {
				t.Errorf("workload %s fills no %s", w.Name, d.Name)
			}
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, spec has %d", kind, len(got), len(want))
		}
		for i, m := range got {
			unique(m.Name)
			d := want[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s %d: %+v differs from spec %+v", kind, i, m, d)
			}
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q outside the driver's limits", m.Name, m.Unit)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != d.Bound || *m.Bound <= 0 || *m.Bound > 0.25):
				t.Errorf("%s: bound %v, spec %v, must be in (0, 0.25]", m.Name, m.Bound, d.Bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s: per-layer metrics carry no bound", m.Name)
			}
		}
	}
	check("end_to_end", file.EndToEnd, contractE2E, true)
	check("per_layer", file.PerLayer, perLayer, false)
	if len(file.PerLayer) > 128 || len(file.EndToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed 16 / 128", len(file.EndToEnd), len(file.PerLayer))
	}
	var hasSetup bool
	for _, m := range file.EndToEnd {
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !hasSetup {
		t.Error("end_to_end must include setup_s in s, lower is better")
	}
}

func sampleReport(workload string, trace int, latency float64) *report {
	r := newReport(workload, 1, 16, trace)
	r.addPhase("open1", 2.4, 100, 0)
	w := workloadByName(workload)
	for _, d := range contractE2E {
		r.set(w.Project[d.Name], d.Unit, latency, 32)
	}
	for _, d := range perLayer {
		r.set(d.Name, d.Unit, 1.5, 3)
	}
	return r
}

func TestContractLineHasExactlyTheListedMetrics(t *testing.T) {
	for _, w := range workloadDefs {
		for trace, want := range map[int][]metricDef{0: contractE2E, 1: perLayer} {
			line, err := sampleReport(w.Name, trace, 4.2).contract()
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.Name, trace, err)
			}
			enc, err := json.Marshal(line)
			if err != nil {
				t.Fatal(err)
			}
			var back struct {
				Correct   *bool
				Attempted *int
				Failed    *int
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			dec := json.NewDecoder(bytes.NewReader(enc))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&back); err != nil {
				t.Fatalf("%s trace %d: %v in %s", w.Name, trace, err, enc)
			}
			if back.Correct == nil || back.Attempted == nil || back.Failed == nil || *back.Attempted != 100 {
				t.Fatalf("%s trace %d: missing keys in %s", w.Name, trace, enc)
			}
			if len(back.Metrics) != len(want) {
				t.Fatalf("%s trace %d: %d metrics, want %d", w.Name, trace, len(back.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := back.Metrics[d.Name]
				if !ok || m.Value == nil || m.Unit != d.Unit {
					t.Errorf("%s trace %d: metric %s missing or mis-united in %s", w.Name, trace, d.Name, enc)
				}
			}
		}
	}
	r := sampleReport("rec_cold", 0, 4.2)
	delete(r.Metrics, "recommend_hc_rps")
	if _, err := r.contract(); err == nil {
		t.Error("a report lacking a contract metric must not produce a result line")
	}
}

func TestReportRoundTripEndsWithNullClaim(t *testing.T) {
	dir := t.TempDir()
	r := sampleReport("topk_warm", 0, 12.5)
	r.check(false, "deliberately broken")
	out := filepath.Join(dir, "runs.jsonl")
	for i := 0; i < 2; i++ {
		if err := r.save(filepath.Join(dir, "last.json"), out); err != nil {
			t.Fatal(err)
		}
	}
	got, err := readReports(out)
	if err != nil || len(got) != 2 {
		t.Fatalf("read back %d reports, %v", len(got), err)
	}
	if got[0].Correct || got[0].Metrics["topk_hc_ms"].Value != 12.5 || got[0].Attempted != 100 || len(got[0].Violations) != 1 {
		t.Errorf("round trip lost fields: %+v", got[0])
	}
	pretty, err := os.ReadFile(filepath.Join(dir, "last.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(strings.TrimSpace(string(pretty)), "\"claim\": null\n}") {
		t.Errorf("summary must end with \"claim\": null, got …%s", pretty[len(pretty)-40:])
	}
}

func runsOf(workload, metric, unit string, values ...float64) []report {
	var out []report
	for _, v := range values {
		r := newReport(workload, 1, 16, 0)
		r.addPhase("open1", 1, 100, 0)
		r.set(metric, unit, v, 32)
		out = append(out, *r)
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{4.0, 4.1, 4.0, 3.9, 4.0}
	for _, tc := range []struct {
		name          string
		metric, unit  string
		base, cur     []float64
		want          string
		wantExitError bool
	}{
		{"unchanged latency", "recommend_hc_ms", "ms", steady, steady, verdictOK, false},
		{"latency 40% worse", "recommend_hc_ms", "ms", steady, []float64{5.6, 5.7, 5.6, 5.5, 5.6}, verdictRegression, true},
		{"latency 40% better", "recommend_hc_ms", "ms", steady, []float64{2.4, 2.5, 2.4, 2.3, 2.4}, verdictImproved, false},
		{"latency 20% worse is inside the bound", "recommend_hc_ms", "ms", steady, []float64{4.8, 4.9, 4.8, 4.7, 4.8}, verdictOK, false},
		{"throughput down is worse", "topk_hc_rps", "req/s", []float64{100, 101, 100, 99, 100}, []float64{60, 61, 60, 59, 60}, verdictRegression, true},
		{"throughput up is better", "topk_hc_rps", "req/s", []float64{100, 101, 100, 99, 100}, []float64{140, 141, 140, 139, 140}, verdictImproved, false},
		{"spread beyond the bound", "recommend_hc_ms", "ms", []float64{3, 4, 5, 6, 7}, []float64{6, 7, 8, 9, 10}, verdictUnresolved, false},
		{"ungated layer metric", "index.search_us", "us", steady, []float64{9, 9, 9, 9, 9}, verdictUngated, false},
	} {
		rows, rose := compareSets(runsOf("w", tc.metric, tc.unit, tc.base...), runsOf("w", tc.metric, tc.unit, tc.cur...))
		if len(rows) != 1 || len(rose) != 0 {
			t.Fatalf("%s: %d rows, failed share rose on %v", tc.name, len(rows), rose)
		}
		if rows[0].Verdict != tc.want {
			t.Errorf("%s: verdict %q, want %q (row %+v)", tc.name, rows[0].Verdict, tc.want, rows[0])
		}
	}
}

func TestCompareExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rs []report) string {
		path := filepath.Join(dir, name)
		for i := range rs {
			if err := rs[i].save(filepath.Join(dir, "last.json"), path); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("base.jsonl", runsOf("rec_cold", "recommend_hc_ms", "ms", 4.0, 4.1, 4.0, 3.9))
	same := write("same.jsonl", runsOf("rec_cold", "recommend_hc_ms", "ms", 4.0, 4.05, 4.0, 3.95))
	slow := write("slow.jsonl", runsOf("rec_cold", "recommend_hc_ms", "ms", 5.5, 5.6, 5.5, 5.4))
	failing := runsOf("rec_cold", "recommend_hc_ms", "ms", 4.0, 4.1, 4.0, 3.9)
	failing[0].Failed = 3
	shed := write("shed.jsonl", failing)

	var out bytes.Buffer
	if code := runCompare(&out, base, same); code != 0 {
		t.Errorf("same code: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "new/base") || !strings.Contains(out.String(), "rec_cold") {
		t.Errorf("table lacks ratio column or workload row:\n%s", out.String())
	}
	if code := runCompare(&out, base, slow); code != 1 {
		t.Errorf("regression: exit %d, want 1", code)
	}
	out.Reset()
	if code := runCompare(&out, base, shed); code != 1 || !strings.Contains(out.String(), "failed share rose on rec_cold") {
		t.Errorf("higher failed share: exit %d\n%s", code, out.String())
	}
	if code := runCompare(&out, base, filepath.Join(dir, "missing.jsonl")); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
}

func TestOfflineSizesFollowSeconds(t *testing.T) {
	o, err := buildOffline(1)
	if err != nil {
		t.Fatal(err)
	}
	nTrain, nEval := offlineSizes(o, 32)
	if nTrain != 1280 || nEval != 512 {
		t.Errorf("32 s sizes %d train / %d eval, want 1280 / 512", nTrain, nEval)
	}
	if n2, e2 := offlineSizes(o, 16); n2 >= nTrain || e2 >= nEval || e2%evalChunk != 0 {
		t.Errorf("16 s sizes %d / %d not smaller than 32 s sizes", n2, e2)
	}
}

// A host factor is the probes' median over the nominal probe time; no probes
// means no correction.
func TestHostFactorIsMedianOverNominal(t *testing.T) {
	if f := hostFactor(); f != 1 {
		t.Errorf("no probes: factor %v, want 1", f)
	}
	slow := []time.Duration{3 * probeNominal / 2, 10 * probeNominal} // one probe hit a GC assist
	if f := hostFactor([]time.Duration{probeNominal}, slow); f != 1.5 {
		t.Errorf("factor %v, want the median probe over nominal, 1.5", f)
	}
	if d := probe(); d <= 0 {
		t.Errorf("probe took %v", d)
	}
}

func TestHostSamplesBetweenPadsTheInterval(t *testing.T) {
	t0 := time.Unix(1000, 0)
	var h hostSamples
	for i := 0; i < 100; i++ { // one probe every 20 ms, each took i µs
		h = append(h, hostSample{t0.Add(time.Duration(i) * sampleGap), time.Duration(i) * time.Microsecond})
	}
	got := h.between(t0.Add(time.Second), t0.Add(time.Second+10*time.Millisecond))
	// Probes 45..55 ended within samplePad (100 ms) of [1.000 s, 1.010 s].
	if len(got) != 11 || got[0] != 45*time.Microsecond || got[10] != 55*time.Microsecond {
		t.Errorf("between returned %v", got)
	}
}

// A closed-loop cycle that contains a host-speed probe is not a cycle of the
// program's.
func TestCyclesDropProbedOps(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	res := phaseResult{phase: &phase{Duration: time.Second}, samples: []sample{
		{filler: true, status: 200, start: at(0), end: at(4)},
		{filler: true, status: 200, start: at(4), end: at(8), probe: probeNominal},
		{filler: true, status: 200, start: at(10), end: at(14)},
		{filler: true, status: 200, start: at(14), end: at(18)},
	}}
	got := res.cycles()
	if len(got) != 2 || got[0] != at(4) || got[1] != at(4) {
		t.Errorf("cycles %v, want two of 4ms", got)
	}
	if f := res.hostFactor(); f != 1 {
		t.Errorf("phase factor %v, want 1", f)
	}
}
