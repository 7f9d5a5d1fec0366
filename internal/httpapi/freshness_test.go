package httpapi

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"seqfm/internal/ag"
	"seqfm/internal/baselines/fm"
	"seqfm/internal/ckpt"
	"seqfm/internal/feature"
	"seqfm/internal/obs"
	"seqfm/internal/online"
	"seqfm/internal/serve"
	"seqfm/internal/tensor"
	"seqfm/internal/wal"
)

// TestFreshnessEndToEndAcrossReplication is the lineage acceptance pin: one
// event ingested over HTTP lands in exactly one seqfm_freshness_seconds
// observation on the primary and — after log shipping — exactly one on the
// follower, with identical values (the stamps travel in the WAL; no follower
// clock ever enters). The debug endpoint reports the per-generation lineage
// on both roles, and /metrics serves the family with the Prometheus text
// content type and native bucket series.
func TestFreshnessEndToEndAcrossReplication(t *testing.T) {
	ds := testDataset(t)
	m := testModel(t, ds)
	walLog, err := wal.Open(t.TempDir(), wal.Options{FlushInterval: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer walLog.Close()
	eng := serve.NewEngine(m.Clone(), serve.Config{Workers: 1})
	defer eng.Close()
	lP, err := online.NewLearner(m, ds, eng, online.Config{Log: walLog})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Engine: eng, Dataset: ds, Model: m, Learner: lP, WAL: walLog})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Routes()
	srv := httptest.NewServer(h)
	defer srv.Close()

	// One event in, one training sync: the event's ingest stamp must appear
	// in exactly one trained-freshness observation, and the publish in
	// exactly one servable-freshness observation.
	if w := post(t, h, "/v1/feedback", `{"user":1,"object":7}`); w.Code != http.StatusAccepted {
		t.Fatalf("feedback code %d: %s", w.Code, w.Body.String())
	}
	lP.Sync()
	if got := lP.TrainedFreshness().Count(); got != 1 {
		t.Fatalf("primary trained-freshness observations: %d, want exactly 1", got)
	}
	if got := lP.ServableFreshness().Count(); got != 1 {
		t.Fatalf("primary servable-freshness observations: %d, want exactly 1", got)
	}

	// The scrape exposes the family (with native cumulative buckets) under
	// the Prometheus text content type.
	w := get(t, h, "/metrics")
	if ct := w.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("metrics content type %q", ct)
	}
	body := w.Body.String()
	for _, want := range []string{
		`seqfm_freshness_seconds_count{stage="trained"} 1`,
		`seqfm_freshness_seconds_count{stage="servable"} 1`,
		`seqfm_freshness_seconds_bucket{stage="trained",le="+Inf"} 1`,
		"seqfm_trained_through_timestamp_ms",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q", want)
		}
	}

	// The primary's debug endpoint reports the lineage.
	fw := get(t, h, "/v1/debug/freshness")
	if fw.Code != http.StatusOK {
		t.Fatalf("freshness code %d: %s", fw.Code, fw.Body.String())
	}
	fr := decodeBody(t, fw)
	if fr["role"] != "primary" {
		t.Fatalf("role %v", fr["role"])
	}
	lineage, ok := fr["lineage"].([]any)
	if !ok || len(lineage) != 1 {
		t.Fatalf("lineage %v, want one entry", fr["lineage"])
	}
	entry := lineage[0].(map[string]any)
	if entry["freshness_known"] != true {
		t.Fatalf("lineage entry not stamped: %v", entry)
	}

	// Follower: bootstrap from a *stateless* checkpoint and catch up on the
	// primary's log over HTTP. The stateless path replays every WAL record,
	// which is what rebuilds the freshness histograms observation by
	// observation — the property this test pins. (The HTTP snapshot endpoint
	// ships a self-contained state checkpoint whose restore carries lineage
	// and stamps but not histogram observations: the compacted prefix's
	// events may no longer exist.)
	var snap bytes.Buffer
	if err := lP.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	bootGen := eng.Generation()
	mF, fF, err := ckpt.Load(&snap)
	if err != nil {
		t.Fatal(err)
	}
	engF := serve.NewEngine(mF, serve.Config{Workers: 1})
	defer engF.Close()
	lF, err := online.NewLearnerFromSnapshot(mF, fF, ds, engF, online.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rep := online.NewReplica(lF, &online.HTTPLogSource{Base: srv.URL}, bootGen, online.ReplicaConfig{})
	if _, err := rep.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if got := lF.TrainedFreshness().Count(); got != 1 {
		t.Fatalf("follower trained-freshness observations: %d, want exactly 1", got)
	}
	if p, f := lP.TrainedFreshness().Sum(), lF.TrainedFreshness().Sum(); p != f {
		t.Fatalf("freshness diverged across replication: primary %v, follower %v", p, f)
	}
	if p, f := lP.ServableFreshness().Sum(), lF.ServableFreshness().Sum(); p != f {
		t.Fatalf("servable freshness diverged: primary %v, follower %v", p, f)
	}

	sF, err := New(Config{Engine: engF, Dataset: ds, Model: mF, Learner: lF, Replica: rep, Primary: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	hF := sF.Routes()
	frF := decodeBody(t, get(t, hF, "/v1/debug/freshness"))
	if frF["role"] != "follower" {
		t.Fatalf("follower role %v", frF["role"])
	}
	repStats, ok := frF["replica"].(map[string]any)
	if !ok || repStats["lag_seconds_known"] != true {
		t.Fatalf("follower replica freshness block %v", frF["replica"])
	}
	mb := get(t, hF, "/metrics").Body.String()
	if !strings.Contains(mb, `seqfm_freshness_seconds_count{stage="trained"} 1`) {
		t.Fatal("follower scrape missing the replayed freshness observation")
	}
}

// shiftScorer is a deterministic synthetic model: per-candidate scores in a
// narrow band, displaced by shift — swapping a shifted copy in is a pure,
// controlled score-drift injection.
type shiftScorer struct{ shift float64 }

func (s shiftScorer) Score(tp *ag.Tape, inst feature.Instance) *ag.Node {
	return tp.Constant(tensor.Scalar(float64(inst.Target%7)*0.1 + s.shift))
}

// TestDriftAlertFlipsHealthz pins the alerting tentpole end to end: with no
// second generation the drift gauge is NaN and the rule reads unknown (never
// firing — a fresh server is not an incident); a synthetic drift injection
// (swapping in a shifted scorer) makes the rule hold, and once it has held
// past its sustain window /healthz degrades to 503 with the rule named.
func TestDriftAlertFlipsHealthz(t *testing.T) {
	ds := testDataset(t)
	eng := serve.NewEngine(shiftScorer{}, serve.Config{Workers: 1})
	defer eng.Close()
	s, err := New(Config{Engine: eng, Dataset: ds, Rules: []obs.Rule{{
		Name:      "score-drift",
		Metric:    "seqfm_score_drift",
		Labels:    map[string]string{"kind": "tv"},
		Op:        ">",
		Threshold: 0.5,
		SustainMS: 80,
		Severity:  obs.SeverityCritical,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Routes()

	// Unknown drift: rule reports not-known, healthz is green.
	ar := decodeBody(t, get(t, h, "/v1/debug/alerts"))
	if ar["configured"] != true {
		t.Fatalf("alerts not configured: %v", ar)
	}
	if st := ar["rules"].([]any)[0].(map[string]any); st["known"] != false || st["firing"] != false {
		t.Fatalf("rule over NaN gauge must be unknown and silent: %v", st)
	}
	if w := get(t, h, "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("healthz %d before any drift", w.Code)
	}

	// Generation 1 serves; then the injection: a shifted scorer swaps in and
	// generation 2 serves a displaced distribution (TV = 1).
	serveTopK := func() {
		t.Helper()
		for user := 0; user < 4; user++ {
			if w := post(t, h, "/v1/topk", fmt.Sprintf(`{"user":%d,"k":3}`, user)); w.Code != http.StatusOK {
				t.Fatalf("topk code %d: %s", w.Code, w.Body.String())
			}
		}
	}
	serveTopK()
	eng.Swap(shiftScorer{shift: 10})
	serveTopK()

	// First evaluation starts the sustain streak: holding, not yet firing.
	ar = decodeBody(t, get(t, h, "/v1/debug/alerts"))
	st := ar["rules"].([]any)[0].(map[string]any)
	if st["known"] != true || st["holding"] != true {
		t.Fatalf("injected drift not detected: %v", st)
	}
	if st["firing"] == true {
		t.Fatalf("rule fired before its sustain window: %v", st)
	}
	if w := get(t, h, "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("healthz %d inside the sustain window, want 200", w.Code)
	}

	// Past the sustain window the rule fires and readiness degrades.
	time.Sleep(120 * time.Millisecond)
	ar = decodeBody(t, get(t, h, "/v1/debug/alerts"))
	firing := ar["firing"].([]any)
	if len(firing) != 1 || firing[0] != "score-drift" {
		t.Fatalf("firing %v, want [score-drift]", firing)
	}
	hw := get(t, h, "/healthz")
	if hw.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz %d with a firing critical rule, want 503", hw.Code)
	}
	checks := decodeBody(t, hw)["checks"].(map[string]any)
	alerts := checks["alerts"].(map[string]any)
	if alerts["ok"] != false {
		t.Fatalf("alerts check %v", alerts)
	}
}

// TestPerArmRuleMarksSick pins the experiment hook: a firing rule carrying
// an "arm" label flags that arm sick (visible in /v1/experiments, readable
// by the coming bandit reweighting), and warn severity never touches
// readiness.
func TestPerArmRuleMarksSick(t *testing.T) {
	var exp *serve.Experiments
	s := testServer(t, func(cfg *Config) {
		base := fm.New(fm.Config{Space: cfg.Dataset.Space(), Dim: 6, MaxSeqLen: 4, Seed: 3})
		baseEng := serve.NewEngine(base, serve.Config{Workers: 1})
		t.Cleanup(baseEng.Close)
		var err error
		exp, err = serve.NewExperiments([]serve.ExperimentArm{
			{Name: "seqfm", Engine: cfg.Engine},
			{Name: "fm", Engine: baseEng},
		}, serve.ExperimentsConfig{NumObjects: cfg.Dataset.NumObjects, HRSampleEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Experiments = exp
		learner, err := online.NewLearner(cfg.Model, cfg.Dataset, cfg.Engine, online.Config{})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Learner = learner
		cfg.Rules = []obs.Rule{{
			Name:      "fm-arm-saw-traffic",
			Metric:    "seqfm_arm_feedback_total",
			Labels:    map[string]string{"arm": "fm"},
			Op:        ">=",
			Threshold: 1,
			Severity:  obs.SeverityWarn,
		}}
	})
	h := s.Routes()

	// Find a user stickily assigned to the fm arm and feed its event.
	fmIdx := -1
	for i := 0; i < exp.NumArms(); i++ {
		if exp.ArmName(i) == "fm" {
			fmIdx = i
		}
	}
	user := -1
	for u := 0; u < 12; u++ {
		if exp.Assign(u) == fmIdx {
			user = u
			break
		}
	}
	if user < 0 {
		t.Fatal("no user assigned to the fm arm")
	}
	if w := post(t, h, "/v1/feedback", fmt.Sprintf(`{"user":%d,"object":7}`, user)); w.Code != http.StatusAccepted {
		t.Fatalf("feedback code %d: %s", w.Code, w.Body.String())
	}

	// Evaluation (any alerts read) applies the per-arm verdict.
	ar := decodeBody(t, get(t, h, "/v1/debug/alerts"))
	firing := ar["firing"].([]any)
	if len(firing) != 1 {
		t.Fatalf("firing %v, want the arm rule", firing)
	}
	if !exp.ArmSick(fmIdx) {
		t.Fatal("firing per-arm rule did not mark the arm sick")
	}
	if exp.ArmSick(1 - fmIdx) {
		t.Fatal("unrelated arm marked sick")
	}
	er := decodeBody(t, get(t, h, "/v1/experiments"))
	for _, a := range er["arms"].([]any) {
		am := a.(map[string]any)
		if am["name"] == "fm" && am["sick"] != true {
			t.Fatalf("experiments report does not show the sick flag: %v", am)
		}
	}
	// Warn severity: readiness stays green.
	if w := get(t, h, "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("healthz %d with only a warn rule firing, want 200", w.Code)
	}
	// The probe (HRSampleEvery 1) ranked the full candidate set: the arm's
	// calibration accumulator has evidence now.
	if mean, probes, ok := exp.ArmCalibration(fmIdx); !ok || probes != 1 || mean < 0 || mean > 1 {
		t.Fatalf("calibration after one probe: mean=%v probes=%d ok=%v", mean, probes, ok)
	}
}
