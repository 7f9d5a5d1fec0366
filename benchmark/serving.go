package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"sort"
	"time"

	"seqfm/internal/ckpt"
	"seqfm/internal/online"
	"seqfm/internal/serve"
	"seqfm/internal/wal"
)

// runArgs is what the command line gives a workload.
type runArgs struct {
	seed    int64
	seconds float64
	trace   int
	// dir is the run's scratch directory inside the checkout (WAL,
	// checkpoints); removed when the run ends.
	dir string
}

// servingDef fixes one serving workload's shape and the names its numbers
// go by. Rates sit at 30–40 % of what two cores sustain, so the open loop
// queues occasionally, not permanently.
type servingDef struct {
	load
	primary opKind // the request whose latency is the workload's latency
	latency string // its metric prefix, as the issue names it
	rate    string // the closed-loop request's metric prefix
}

var servingDefs = map[string]servingDef{
	"rec_cold":     {load{Rate: 130, Open: 0.6, Closed: 0.4}, opRecommend, "recommend", "recommend"},
	"topk_warm":    {load{Rate: 100, Open: 0.6, Closed: 0.4}, opTopK, "topk", "topk"},
	"mixed_online": {load{Rate: 60, Open: 0.6, Closed: 0.4}, opFeedback, "feedback_ack", "recommend"},
}

func servingPlan(name string, st *stack, seed int64, seconds float64) ([]phase, error) {
	switch name {
	case "rec_cold":
		return recColdPlan(st.live, seed, servingDefs[name].load, seconds), nil
	case "topk_warm":
		return topkWarmPlan(st.live, seed, servingDefs[name].load, seconds), nil
	case "mixed_online":
		return mixedOnlinePlan(st.full, seed, servingDefs[name].load, seconds)
	}
	return nil, fmt.Errorf("no serving plan for %q", name)
}

// latencyMetrics records one request kind's open-loop latency over the
// pooled open stretches. Gated: the host-corrected median, each stretch's
// latencies divided by that stretch's host factor. Beside it, raw and
// ungated: the 5th percentile, the median, p95 and the highest percentile the
// sample supports.
func latencyMetrics(r *report, name string, kind opKind, open []phaseResult) {
	var all, hc []float64
	for _, res := range open {
		f := res.hostFactor()
		for _, l := range durationsMS(res.latencies(kind)) {
			all, hc = append(all, l), append(hc, l/f)
		}
	}
	if len(all) == 0 {
		return
	}
	s := sortedCopy(all)
	r.set(name+"_hc_ms", "ms", percentile(sortedCopy(hc), 50), len(hc))
	r.set(name+"_p05_ms", "ms", percentile(s, fastQ), len(s))
	r.set(name+"_p50_ms", "ms", percentile(s, 50), len(s))
	if supported(len(s), 95) {
		r.set(name+"_p95_ms", "ms", percentile(s, 95), len(s))
	}
	if q, ok := tailPercentile(len(s)); ok && q > 95 {
		r.set(fmt.Sprintf("httpapi.%s_p%g_ms", kind, q), "ms", percentile(s, q), len(s))
	}
}

// rateMetrics records closed-loop throughput over the pooled closed
// stretches, by Little's law: the number of clients divided by a cycle time
// (one request's start to the same client's next start). Gated: over the
// median host-corrected cycle. Raw and ungated: over the 5th-percentile
// cycle, and the whole-run completion rate.
func rateMetrics(r *report, name string, closed []phaseResult) {
	var cycles, hc []float64
	done := 0
	var total time.Duration
	for _, res := range closed {
		f := res.hostFactor()
		for _, c := range durationsMS(res.cycles()) {
			cycles, hc = append(cycles, c), append(hc, c/f)
		}
		done += res.fillerDone()
		total += res.phase.Duration
	}
	if len(cycles) == 0 {
		return
	}
	r.set(name+"_hc_rps", "req/s", float64(senders())*1000/percentile(sortedCopy(hc), 50), len(hc))
	r.set(name+"_rps", "req/s", float64(senders())*1000/percentile(sortedCopy(cycles), fastQ), len(cycles))
	r.set(name+"_run_rps", "req/s", float64(done)/total.Seconds(), done)
}

// checkLag fails the run when the generator itself ran late: its median
// wake-up lateness (over the ops a sender was waiting for with nothing in
// flight) must stay within a tenth of the open-loop median, or the latencies
// measure the harness. enforce is off where the program itself keeps the
// cores busy between requests.
func checkLag(r *report, open []phaseResult, p50ms float64, enforce bool) {
	var lags []time.Duration
	for _, res := range open {
		lags = append(lags, res.idleLags()...)
	}
	if len(lags) == 0 {
		return
	}
	s := sortedCopy(durationsMS(lags))
	r.set("bench.max_lag_ms", "ms", s[len(s)-1], len(s))
	r.set("bench.lag_p50_ms", "ms", percentile(s, 50), len(s))
	r.set("bench.lag_p95_ms", "ms", percentile(s, 95), len(s))
	if !enforce {
		// With a trainer and an index rebuild holding both cores, a woken
		// sender queues for a core like any handler goroutine would: that
		// wait is the program's doing and belongs in the latency.
		r.note("generator lateness is reported, not enforced: the program's background work competes with the senders for the cores")
		return
	}
	r.check(percentile(s, 50) <= 0.1*p50ms, "generator wake-up lateness p50 %.3f ms within 10%% of open-loop p50 %.3f ms", percentile(s, 50), p50ms)
}

// runServing drives rec_cold, topk_warm or mixed_online.
func runServing(name string, a runArgs) (*report, error) {
	r := newReport(name, a.seed, a.seconds, a.trace)
	isOnline := name == "mixed_online"
	build := func() (*stack, error) {
		return buildStack(stackConfig{Seed: a.seed, Online: isOnline, Dir: a.dir})
	}
	nSetups := setups
	if a.trace == 1 {
		nSetups = 1 // set-up time is an end-to-end metric; the traced run spends its budget on layers
	}
	st, setup, err := setupN(nSetups, build, (*stack).close)
	if err != nil {
		return nil, err
	}
	defer func() { st.close() }()
	setup.record(r, nSetups)

	if a.trace == 1 {
		return r, runTraced(r, st, a)
	}
	phases, err := servingPlan(name, st, a.seed, a.seconds)
	if err != nil {
		return nil, err
	}
	r.PlanHash = planHash(phases)

	chk := &checker{}
	onResp := func(o *op, status int, body []byte) { chk.onResponse(st, o, status, body) }
	groups := map[string][]phaseResult{}
	var sent []sentEvent
	statePath := filepath.Join(a.dir, stateCkptName)
	measured := 0
	for i := range phases {
		ph := &phases[i]
		if isOnline && !ph.Discard {
			if measured == segments { // half of the 2·segments measured stretches are done
				st.learner.Sync()
				start := time.Now()
				if _, err := st.learner.CheckpointAndCompact(statePath); err != nil {
					return nil, fmt.Errorf("midpoint checkpoint: %w", err)
				}
				r.set("online.checkpoint_compact_loaded_ms", "ms", ms(time.Since(start)), 1)
			}
			measured++
		}
		wallStart := time.Now()
		res := drive(st.mux, ph, senders(), onResp)
		chk.verifyScores()
		if ph.Discard {
			continue
		}
		sent = append(sent, sentEvents(res, wallStart)...)
		att, failed := res.counts()
		r.addPhase(ph.Name, res.wall.Seconds(), att, failed)
		groups[ph.Group] = append(groups[ph.Group], res)
		if res.fillerExhausted {
			r.note("%s ran out of prepared closed-loop requests; its throughput is understated", ph.Name)
		}
	}

	def := servingDefs[name]
	latencyMetrics(r, def.latency, def.primary, groups[groupOpen])
	if isOnline {
		latencyMetrics(r, "recommend", opRecommend, groups[groupOpen])
	}
	rateMetrics(r, def.rate, groups[groupClosed])
	var factors []float64
	for _, g := range groups {
		for _, res := range g {
			factors = append(factors, res.hostFactor())
		}
	}
	recordHostFactors(r, factors)
	p50 := r.Metrics[def.latency+"_p50_ms"]
	r.check(p50.N > 0, "open loop completed %d %s requests", p50.N, def.primary)
	checkLag(r, groups[groupOpen], p50.Value, !isOnline)

	if isOnline {
		if err := finishMixed(r, st, a, sent, statePath); err != nil {
			return nil, err
		}
	}

	r.check(chk.fiveXX == 0, "zero 5xx over %d responses", chk.responses)
	r.check(chk.ok(), "%d ranked responses sorted, length %d, no seen object, generation == index_generation", chk.checked, recK)
	r.check(chk.verified > 0, "%d sampled scores bit-identical to core.Model.Score (%d skipped: generation replaced)", chk.verified, chk.skipped)
	r.Violations = append(r.Violations, chk.violations...)
	r.check(r.Failed == 0, "no operation failed or was shed (%d of %d)", r.Failed, r.Attempted)
	return r, nil
}

// sentEvent is one feedback request of the send log: when it was due and
// when it was acknowledged, wall clock.
type sentEvent struct {
	dueMS int64
	ok    bool
}

func sentEvents(res phaseResult, wallStart time.Time) []sentEvent {
	var out []sentEvent
	for _, s := range res.samples {
		if s.kind == opFeedback && !s.filler {
			out = append(out, sentEvent{dueMS: wallStart.Add(s.due).UnixMilli(), ok: s.ok()})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].dueMS < out[b].dueMS })
	return out
}

// servable joins the send log with the learner's publish lineage: an event
// is servable at the publish time of the first generation whose
// trained-through stamp is at or past the event's send time. One sample per
// event, not per publish.
func servable(sent []sentEvent, lineage []online.LineageEntry) (ms []float64, uncovered int) {
	for _, ev := range sent {
		if !ev.ok {
			continue
		}
		covered := false
		for _, g := range lineage {
			if g.DataThroughMS >= ev.dueMS {
				ms = append(ms, float64(g.PublishedAtMS-ev.dueMS))
				covered = true
				break
			}
		}
		if !covered {
			uncovered++
		}
	}
	return ms, uncovered
}

// paramsHash fingerprints the learner's shadow weights through its own
// checkpoint stream.
func paramsHash(l *online.Learner) (string, error) {
	var buf bytes.Buffer
	if err := l.Checkpoint(&buf); err != nil {
		return "", err
	}
	m, _, err := ckpt.Load(&buf)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	var b [8]byte
	for _, p := range m.Params() {
		for _, v := range p.Value.Data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// finishMixed closes the mixed_online run: per-event freshness, the
// learner's and log's own counters, then drop the stack and recover it from
// the state checkpoint plus the WAL suffix.
func finishMixed(r *report, st *stack, a runArgs, sent []sentEvent, statePath string) error {
	l := st.learner
	l.Sync() // the tail of the stream trains and publishes now, as the next tick would have
	fresh, uncovered := servable(sent, l.Lineage())
	if len(fresh) > 0 {
		s := sortedCopy(fresh)
		r.set("servable_p50_ms", "ms", percentile(s, 50), len(s))
	}
	r.check(uncovered == 0 && len(fresh) > 0, "every acknowledged event became servable (%d covered, %d not)", len(fresh), uncovered)

	ls := l.Stats()
	r.set("online.step_p50_us", "us", us(l.StepLatency().Quantile(0.5)), int(l.StepLatency().Count()))
	r.set("online.publish_p50_us", "us", us(l.PublishLatency().Quantile(0.5)), int(l.PublishLatency().Count()))
	r.set("online.trained_lag_p50_ms", "ms", ms(l.TrainedFreshness().Quantile(0.5)), int(l.TrainedFreshness().Count()))
	if ls.Steps > warmSteps {
		r.set("online.events_per_step", "count", float64(ls.Ingested)/float64(ls.Steps), int(ls.Steps))
	}
	r.set("online.dropped_total", "count", float64(ls.Dropped), 0)
	r.set("online.backlog_rejects_total", "count", float64(ls.BacklogRejects), 0)
	r.set("wal.fsync_loaded_p50_us", "us", us(st.wal.FsyncLatency().Quantile(0.5)), int(st.wal.Fsyncs()))
	if f := st.wal.Fsyncs(); f > 0 {
		r.set("wal.records_per_fsync_loaded", "count", float64(ls.LogSeq)/float64(f), int(f))
	}
	r.check(ls.Dropped == 0 && ls.BacklogRejects == 0, "learner dropped %d events and rejected %d batches", ls.Dropped, ls.BacklogRejects)

	before, err := paramsHash(l)
	if err != nil {
		return fmt.Errorf("pre-drop checkpoint: %w", err)
	}
	genBefore := st.eng.Generation()

	// Drop: no final checkpoint. Everything after the midpoint cut lives
	// only in the log.
	st.close()
	dropped := time.Now()
	m, f, err := ckpt.LoadFile(statePath)
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	st.model = m
	st.eng = serve.NewEngine(m, engineConfig(st.live, a.seed))
	if st.wal, err = wal.Open(filepath.Join(a.dir, "wal"), wal.Options{Policy: wal.SyncGroup}); err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	if st.learner, err = online.NewLearnerFromSnapshot(m, f, st.live, st.eng, learnerConfig(a.seed, st.wal)); err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	rst, err := st.learner.ReplayLog()
	if err != nil {
		return fmt.Errorf("recovery replay: %w", err)
	}
	if err := st.serve(); err != nil {
		return err
	}
	probe := op{Kind: opRecommend, User: 0, Body: recommendBody(0, nil)}
	status, _ := do(st.mux, &recorder{}, &probe)
	recoverT := time.Since(dropped)
	r.set("recover_s", "s", recoverT.Seconds(), 1)
	r.set("online.recover_replayed_events", "count", float64(rst.Events), 0)
	r.check(status == http.StatusOK, "recovered stack answers /v1/recommend with status %d", status)
	after, err := paramsHash(st.learner)
	if err != nil {
		return fmt.Errorf("post-recovery checkpoint: %w", err)
	}
	r.check(before == after, "recovered learner's parameter hash equals the pre-drop shadow's (%s)", before[:12])
	r.check(st.eng.Generation() == genBefore, "recovered serving generation %d equals pre-drop %d", st.eng.Generation(), genBefore)
	failed := 0
	if status != http.StatusOK {
		failed = 1
	}
	r.addPhase("recover", recoverT.Seconds(), 1, failed)
	return nil
}
