package httpapi

// Telemetry wiring: the serving stack's metric families, the per-request
// trace middleware, and the /metrics + /v1/debug/slow endpoints.
//
// Two registration styles, matching internal/obs:
//
//   - Event-driven instruments record on the request path. The edge
//     middleware owns them (request counters, endpoint latency, the stage
//     histogram vector traces record into), and subsystems that already
//     embed an obs.Histogram (WAL fsync, learner step/publish, engine swap,
//     replica poll, experiment arms) are Attach-ed — the series /metrics
//     exposes are the very instruments those subsystems record into, so
//     exposition adds zero hot-path cost.
//   - Everything a subsystem already counts in its Stats() snapshot is
//     exposed through scrape-time callbacks (CounterFunc/GaugeFunc): no new
//     bookkeeping, no double accounting, and the serving path never pays
//     for a metric nobody is scraping.

import (
	"math"
	"net/http"
	"strconv"
	"time"

	"seqfm/internal/obs"
	"seqfm/internal/serve"
)

// replicaLagThreshold is the readiness bar for a follower: a replica further
// behind its primary than this (and not currently caught up) reports
// degraded on /healthz.
const replicaLagThreshold = 60 * time.Second

// initObs builds the server's metric families and wires every present
// subsystem into the registry. Called once from New, before Routes.
func (s *Server) initObs(reg *obs.Registry, slowSize int, slowThreshold time.Duration) {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s.reg = reg
	s.slow = obs.NewSlowRing(slowSize, slowThreshold)

	// Edge instruments: the trace middleware records into these.
	s.reqVec = reg.NewCounterVec("seqfm_http_requests_total",
		"HTTP requests served, by endpoint and status code.", "endpoint", "code")
	s.latVec = reg.NewHistogramVec("seqfm_http_request_seconds",
		"End-to-end latency of successfully served requests, by endpoint.", "endpoint")
	s.stageVec = reg.NewHistogramVec("seqfm_stage_seconds",
		"Per-stage serving latency: where requests spend their time.", "stage")
	s.waitVec = reg.NewHistogramVec("seqfm_admission_wait_seconds",
		"Time requests spent waiting for an admission slot, by endpoint group.", "group")
	s.slowCount = reg.NewCounter("seqfm_slow_requests_total",
		"Requests slower than the slow-exemplar threshold.")
	start := s.start
	reg.GaugeFunc("seqfm_uptime_seconds", "Seconds since the server was built.",
		func() float64 { return time.Since(start).Seconds() })

	s.registerEngine(reg)
	s.registerLearner(reg)
	s.registerWAL(reg)
	s.registerAdmission(reg)
	s.registerReplica(reg)
	s.registerExperiments(reg)
}

func (s *Server) registerEngine(reg *obs.Registry) {
	eng := s.eng
	reg.GaugeFunc("seqfm_engine_generation", "Currently serving generation id.",
		func() float64 { return float64(eng.Stats().Generation) })
	reg.CounterFunc("seqfm_engine_swaps_total", "Generations published since start.",
		func() int64 { return eng.Stats().Swaps })
	reg.RegisterHistogram("seqfm_engine_swap_seconds",
		"Generation publish latency: snapshot build (plan compile + index rebuild) plus pointer store.",
		eng.SwapLatency())
	reg.CounterFunc("seqfm_engine_instances_total", "Instances scored.",
		func() int64 { return eng.Stats().Instances })
	reg.CounterFunc("seqfm_engine_cache_hits_total", "Memo-cache hits, by cache.",
		func() int64 { return eng.Stats().StaticHits }, obs.Label{Name: "cache", Value: "static"})
	reg.CounterFunc("seqfm_engine_cache_hits_total", "Memo-cache hits, by cache.",
		func() int64 { return eng.Stats().DynHits }, obs.Label{Name: "cache", Value: "dynamic"})
	reg.CounterFunc("seqfm_engine_cache_misses_total", "Memo-cache misses, by cache.",
		func() int64 { return eng.Stats().StaticMisses }, obs.Label{Name: "cache", Value: "static"})
	reg.CounterFunc("seqfm_engine_cache_misses_total", "Memo-cache misses, by cache.",
		func() int64 { return eng.Stats().DynMisses }, obs.Label{Name: "cache", Value: "dynamic"})
	reg.GaugeFunc("seqfm_engine_cache_entries", "Current generation's memo-cache population, by cache.",
		func() float64 { return float64(eng.Stats().StaticEntries) }, obs.Label{Name: "cache", Value: "static"})
	reg.GaugeFunc("seqfm_engine_cache_entries", "Current generation's memo-cache population, by cache.",
		func() float64 { return float64(eng.Stats().DynEntries) }, obs.Label{Name: "cache", Value: "dynamic"})
	reg.GaugeFunc("seqfm_index_size", "Indexed catalog size of the current generation (0 without retrieval).",
		func() float64 { return float64(eng.Stats().IndexSize) })
	reg.GaugeFunc("seqfm_index_build_seconds", "Build time of the current generation's retrieval index.",
		func() float64 { return float64(eng.Stats().IndexBuildNanos) / 1e9 })
	reg.CounterFunc("seqfm_index_retrieved_total", "ANN candidates fetched for re-ranking.",
		func() int64 { return eng.Stats().Retrieved })
	reg.GaugeFunc("seqfm_index_recall", "Observed ANN recall from sampled canary probes (1 when unsampled).",
		func() float64 {
			st := eng.Stats()
			if st.RecallWanted == 0 {
				return 1
			}
			return float64(st.RecallHits) / float64(st.RecallWanted)
		})
	registerDrift(reg, "seqfm_score_drift",
		"Served-score drift of the current generation against its predecessor, by delta kind (NaN until both have served).",
		eng)
}

// registerDrift exposes one engine's inter-generation score-drift deltas as
// a gauge family keyed by delta kind. The gauges read the engine's live
// sketches at scrape time; NaN means no evidence yet (fewer than two
// generations have served scores), which alert rules treat as unknown — a
// freshly booted server never looks drifted.
func registerDrift(reg *obs.Registry, name, help string, eng *serve.Engine, extra ...obs.Label) {
	for _, k := range []struct {
		kind string
		get  func(serve.DriftStats) float64
	}{
		{"p50_shift", func(d serve.DriftStats) float64 { return d.Drift.P50Shift }},
		{"mean_shift", func(d serve.DriftStats) float64 { return d.Drift.MeanShift }},
		{"tv", func(d serve.DriftStats) float64 { return d.Drift.TV }},
	} {
		get := k.get
		labels := append(append([]obs.Label{}, extra...), obs.Label{Name: "kind", Value: k.kind})
		reg.GaugeFunc(name, help, func() float64 {
			d := eng.ScoreDrift()
			if !d.Known {
				return math.NaN()
			}
			return get(d)
		}, labels...)
	}
}

func (s *Server) registerLearner(reg *obs.Registry) {
	l := s.learner
	if l == nil {
		return
	}
	reg.CounterFunc("seqfm_online_ingested_total", "Feedback events accepted by the online learner.",
		func() int64 { return l.Stats().Ingested })
	reg.CounterFunc("seqfm_online_dropped_total", "Untrained events evicted from a full pending queue.",
		func() int64 { return l.Stats().Dropped })
	reg.CounterFunc("seqfm_online_backlog_rejects_total", "Whole batches refused with ErrBacklog (503 admission).",
		func() int64 { return l.Stats().BacklogRejects })
	reg.GaugeFunc("seqfm_online_pending", "Events queued and not yet trained on (train-behind-ingest lag in events).",
		func() float64 { return float64(l.Stats().Pending) })
	reg.GaugeFunc("seqfm_online_room", "Queue slots left before admission starts rejecting.",
		func() float64 { return float64(l.Room()) })
	reg.CounterFunc("seqfm_online_steps_total", "Fine-tune minibatches applied to the shadow model.",
		func() int64 { return l.Stats().Steps })
	reg.GaugeFunc("seqfm_online_train_lag_seconds", "Age of the oldest untrained event.",
		func() float64 { return l.Stats().TrainLagSeconds })
	reg.GaugeFunc("seqfm_online_last_loss", "Mean loss of the most recent fine-tune minibatch.",
		func() float64 { return l.Stats().LastLoss })
	// The trainer's own histograms join the stage family: a scrape shows
	// request stages and trainer stages on one latency surface.
	s.stageVec.Attach(l.StepLatency(), "train_step")
	s.stageVec.Attach(l.PublishLatency(), "publish")
	// Freshness: ingest→trained and ingest→servable deltas, every
	// observation a difference of two primary-clock stamps carried through
	// the WAL — a follower replaying the log records the same values, so
	// the family compares across the replication topology without any
	// cross-host clock assumptions.
	freshVec := reg.NewHistogramVec("seqfm_freshness_seconds",
		"Event freshness: ingest-to-trained and ingest-to-servable lag, from WAL-carried primary-clock stamps.",
		"stage")
	freshVec.Attach(l.TrainedFreshness(), "trained")
	freshVec.Attach(l.ServableFreshness(), "servable")
	reg.GaugeFunc("seqfm_trained_through_timestamp_ms",
		"Ingest stamp (unix ms, primary clock) of the newest event folded into the shadow model; 0 before any stamped step.",
		func() float64 { return float64(l.TrainedThroughTS()) })
}

func (s *Server) registerWAL(reg *obs.Registry) {
	w := s.walLog
	if w == nil {
		return
	}
	reg.RegisterHistogram("seqfm_wal_fsync_seconds",
		"Durability fsync latency (each fsync covers a whole group-commit batch).",
		w.FsyncLatency())
	reg.CounterFunc("seqfm_wal_fsyncs_total", "Fsyncs issued by the log.",
		func() int64 { return w.Fsyncs() })
	reg.CounterFunc("seqfm_wal_appended_bytes_total", "Framed bytes appended since open.",
		func() int64 { return w.AppendedBytes() })
	reg.GaugeFunc("seqfm_wal_segments", "Live segment files.",
		func() float64 { return float64(w.Segments()) })
	reg.GaugeFunc("seqfm_wal_durable_seq", "Last fsynced sequence number.",
		func() float64 { return float64(w.DurableSeq()) })
	reg.GaugeFunc("seqfm_wal_group_commit_records", "Records the most recent durable commit covered at once.",
		func() float64 { return float64(w.LastCommitRecords()) })
}

func (s *Server) registerAdmission(reg *obs.Registry) {
	for _, g := range []struct {
		name string
		l    *serve.Limiter
	}{{"read", s.readLimiter}, {"feedback", s.feedbackLimiter}} {
		if g.l == nil {
			continue
		}
		l, label := g.l, obs.Label{Name: "group", Value: g.name}
		reg.CounterFunc("seqfm_admission_admitted_total", "Requests that acquired an admission slot, by group.",
			func() int64 { return l.Stats().Admitted }, label)
		reg.CounterFunc("seqfm_admission_shed_total", "Requests rejected by admission control, by group and reason.",
			func() int64 { return l.Stats().ShedQueueFull }, label, obs.Label{Name: "reason", Value: "queue_full"})
		reg.CounterFunc("seqfm_admission_shed_total", "Requests rejected by admission control, by group and reason.",
			func() int64 { return l.Stats().ShedTimeout }, label, obs.Label{Name: "reason", Value: "timeout"})
		reg.GaugeFunc("seqfm_admission_queued", "Requests currently waiting for a slot, by group.",
			func() float64 { return float64(l.Stats().Queued) }, label)
		reg.GaugeFunc("seqfm_admission_in_flight", "Requests currently holding a slot, by group.",
			func() float64 { return float64(l.Stats().InFlight) }, label)
	}
}

func (s *Server) registerReplica(reg *obs.Registry) {
	r := s.replica
	if r == nil {
		return
	}
	reg.GaugeFunc("seqfm_replica_lag_records", "Records the follower is behind its primary's durable watermark.",
		func() float64 { return float64(r.Stats().LagRecords) })
	reg.GaugeFunc("seqfm_replica_lag_seconds",
		"Follower staleness: the primary's clock at the last poll minus the newest applied event's primary ingest stamp — both stamps minted on the primary, so host clock skew never enters. NaN until the first stamped record or caught-up poll.",
		func() float64 {
			st := r.Stats()
			if !st.LagSecondsKnown {
				return math.NaN()
			}
			return st.LagSeconds
		})
	reg.GaugeFunc("seqfm_replica_caught_up", "1 when the follower has applied everything durable on the primary.",
		func() float64 {
			if r.Stats().CaughtUp {
				return 1
			}
			return 0
		})
	reg.CounterFunc("seqfm_replica_polls_total", "Log fetches issued by the tail loop.",
		func() int64 { return r.Stats().Polls })
	reg.CounterFunc("seqfm_replica_poll_errors_total", "Failed log fetches.",
		func() int64 { return r.Stats().PollErrors })
	reg.CounterFunc("seqfm_replica_applied_total", "Log records applied locally.",
		func() int64 { return r.Stats().Applied })
	reg.RegisterHistogram("seqfm_replica_poll_seconds",
		"FetchLog round-trip time (long-poll window included when caught up).",
		r.PollLatency())
}

func (s *Server) registerExperiments(reg *obs.Registry) {
	x := s.exp
	if x == nil {
		return
	}
	armVec := reg.NewHistogramVec("seqfm_arm_request_seconds",
		"Per-arm request latency, by endpoint — the histograms behind /v1/experiments.",
		"arm", "endpoint")
	for i := 0; i < x.NumArms(); i++ {
		arm := x.ArmName(i)
		for ep := serve.Endpoint(0); int(ep) < len(serve.EndpointNames); ep++ {
			armVec.Attach(x.ArmLatency(i, ep), arm, ep.String())
		}
		idx, label := i, obs.Label{Name: "arm", Value: arm}
		reg.CounterFunc("seqfm_arm_feedback_total", "Feedback events attributed to the arm.",
			func() int64 { return x.Stats()[idx].Feedback }, label)
		reg.CounterFunc("seqfm_arm_hr_probes_total", "Online HR@K probes run on the arm.",
			func() int64 { return x.Stats()[idx].HRProbes }, label)
		reg.CounterFunc("seqfm_arm_hr_hits_total", "Online HR@K probe hits on the arm.",
			func() int64 { return x.Stats()[idx].HRHits }, label)
		reg.GaugeFunc("seqfm_arm_hr_at_k", "Online HR@K of the arm (0 before the first probe).",
			func() float64 { return x.Stats()[idx].HRAtK }, label)
		reg.CounterFunc("seqfm_arm_cal_probes_total", "Calibration probes (full-candidate rankings) run on the arm.",
			func() int64 { return x.Stats()[idx].CalProbes }, label)
		reg.GaugeFunc("seqfm_arm_calibration",
			"Mean percentile rank of the realized object in the arm's probe rankings (1 = always first; NaN before the first probe).",
			func() float64 {
				mean, _, ok := x.ArmCalibration(idx)
				if !ok {
					return math.NaN()
				}
				return mean
			}, label)
		reg.GaugeFunc("seqfm_arm_sick", "1 when the arm is flagged sick by a firing per-arm alert rule.",
			func() float64 {
				if x.ArmSick(idx) {
					return 1
				}
				return 0
			}, label)
		registerDrift(reg, "seqfm_arm_score_drift",
			"Per-arm served-score drift against the arm's previous generation, by delta kind (NaN until both have served).",
			x.ArmEngine(i), label)
	}
}

// Registry returns the server's metric registry — the one /metrics exposes.
// Callers (the command, tests) may register additional families on it.
func (s *Server) Registry() *obs.Registry { return s.reg }

// MetricsHandler returns the Prometheus text-exposition handler. Routes
// mounts it at /metrics; the command also mirrors it onto the pprof side
// listener's DefaultServeMux so operators scrape either port.
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.reg.WritePrometheus(w)
	})
}

// statusWriter captures the response status code for the edge middleware.
// WriteHeader-less handlers imply 200, like net/http.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument is the edge middleware: it opens a per-request trace (carried
// via the request context so every layer below can record its stage),
// captures the status, and lands the request in the edge families — the
// labeled request counter always, the latency histogram only for successes
// (shed 429s finishing in microseconds would drag p50 down exactly when the
// server is saturated), and the slow-exemplar ring when the total crosses
// its threshold.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	lat := s.latVec.With(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		tr := obs.NewTrace(endpoint, s.stageVec)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r.WithContext(obs.WithTrace(r.Context(), tr)))
		total := time.Since(tr.Start)
		s.reqVec.With(endpoint, strconv.Itoa(sw.code)).Add(1)
		if sw.code < 400 {
			lat.Record(total)
		}
		if total >= s.slow.Threshold() {
			s.slowCount.Inc()
		}
		s.slow.Observe(tr, sw.code, total)
	}
}

// handleSlow serves the slow-request exemplar ring, newest first.
func (s *Server) handleSlow(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{
		"threshold_ms": float64(s.slow.Threshold().Microseconds()) / 1000,
		"requests":     s.slow.Snapshot(),
	})
}
