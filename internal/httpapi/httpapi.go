// Package httpapi is seqfm-serve's HTTP layer, extracted from the command so
// the handler stack is a library: the benchmark (benchmark/) drives the exact
// handlers production serves instead of a reimplementation, fuzz tests can
// attack the JSON decoding surface without booting a process, and the
// command shrinks to flag parsing plus subsystem wiring.
//
// The layer composes three concerns around the serving engines:
//
//   - Routing: the /v1 endpoint set over a serve.Engine (or, with an
//     Experiments tier, over several engines with sticky user→arm routing
//     and /v1/experiments reporting).
//   - Admission control: optional per-class concurrency limits with a
//     bounded wait queue. Overload is explicit — queue-full sheds with 429,
//     wait-timeout with 503, both carrying Retry-After — never an unbounded
//     internal queue.
//   - Backpressure: /v1/feedback ingests through the online learner's
//     admission-checked path, so a full training backlog surfaces as 503 +
//     Retry-After instead of silently evicting untrained events.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"seqfm/internal/core"
	"seqfm/internal/data"
	"seqfm/internal/obs"
	"seqfm/internal/online"
	"seqfm/internal/serve"
	"seqfm/internal/wal"
)

// Config wires a Server. Engine and Dataset are required; everything else is
// an optional subsystem the corresponding endpoints 409 without.
type Config struct {
	// Engine is the primary serving engine (arm 0's when Experiments is set).
	Engine *serve.Engine
	// Dataset supplies id bounds, side-information tables and default
	// candidate sets.
	Dataset *data.Dataset
	// Model is the primary SeqFM model, reported by /v1/model.
	Model *core.Model
	// Learner enables /v1/feedback and the online sections of /v1/model.
	Learner *online.Learner
	// WAL, when the learner is durable, adds the durability section to
	// /v1/model.
	WAL *wal.Log
	// Replica marks the server a read-only follower of Primary.
	Replica *online.Replica
	Primary string
	// Promote, when set on a follower, enables POST /v1/replica/promote: the
	// callback performs the follower→primary transition (cluster.Promote) and
	// returns the new writer identity. After a successful call the server
	// flips role — /v1/feedback starts accepting writes and the replication
	// endpoints start serving.
	Promote func() (PromoteInfo, error)
	// Experiments, when set, routes /v1/score, /v1/topk, /v1/recommend and
	// /v1/feedback attribution through the multi-arm tier and enables
	// GET /v1/experiments.
	Experiments *serve.Experiments
	// ReadAdmission and FeedbackAdmission, when non-nil, bound concurrency
	// on the read endpoints (/v1/score, /v1/topk, /v1/recommend) and on
	// /v1/feedback respectively.
	ReadAdmission     *serve.AdmissionConfig
	FeedbackAdmission *serve.AdmissionConfig
	// Registry, when non-nil, is the telemetry registry /metrics serves;
	// nil builds a private one. The server always records — a registry is
	// how callers add their own families alongside the server's.
	Registry *obs.Registry
	// Rules, when non-empty, are the declarative alert rules the server
	// evaluates over its own registry: GET /v1/debug/alerts reports every
	// rule's state, a critical rule that has held past its sustain window
	// degrades /healthz to 503, and a firing rule carrying an "arm" label
	// marks that experiment arm sick. Rules are evaluated on read (each
	// /healthz or /v1/debug/alerts hit), so the sustain clock advances at
	// the probe cadence — the usual scrape/probe loop drives it.
	Rules []obs.Rule
	// SlowRingSize and SlowThreshold tune the /v1/debug/slow exemplar ring;
	// zero values take obs.DefaultSlowRingSize / obs.DefaultSlowThreshold
	// (a negative threshold keeps every request, which tests use).
	SlowRingSize  int
	SlowThreshold time.Duration
}

// Server holds the handlers' shared state. Build with New.
type Server struct {
	eng     *serve.Engine
	ds      *data.Dataset
	model   *core.Model
	learner *online.Learner
	walLog  *wal.Log
	replica *online.Replica
	primary string
	exp     *serve.Experiments

	// Promotion state: promote is Config.Promote, promoteMu serializes the
	// transition, promoted flips the reported role once it has happened.
	promote   func() (PromoteInfo, error)
	promoteMu sync.Mutex
	promoted  atomic.Bool

	readLimiter     *serve.Limiter
	feedbackLimiter *serve.Limiter

	start time.Time

	// Telemetry (built by initObs): the registry behind /metrics, the edge
	// instruments the trace middleware records into, and the slow-request
	// exemplar ring behind /v1/debug/slow.
	reg       *obs.Registry
	reqVec    *obs.CounterVec   // seqfm_http_requests_total{endpoint,code}
	latVec    *obs.HistogramVec // seqfm_http_request_seconds{endpoint}
	stageVec  *obs.HistogramVec // seqfm_stage_seconds{stage}
	waitVec   *obs.HistogramVec // seqfm_admission_wait_seconds{group}
	slowCount *obs.Counter
	slow      *obs.SlowRing

	// rules is the declarative alert evaluator (nil when no rules are
	// configured); armIndex maps arm names to tier indices so a firing
	// per-arm rule can flag its arm sick.
	rules    *obs.Rules
	armIndex map[string]int
}

// New validates cfg and builds the server.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("httpapi: Engine is required")
	}
	if cfg.Dataset == nil {
		return nil, fmt.Errorf("httpapi: Dataset is required")
	}
	s := &Server{
		eng: cfg.Engine, ds: cfg.Dataset, model: cfg.Model,
		learner: cfg.Learner, walLog: cfg.WAL,
		replica: cfg.Replica, primary: cfg.Primary,
		promote: cfg.Promote,
		exp:     cfg.Experiments,
		start:   time.Now(),
	}
	if cfg.ReadAdmission != nil {
		s.readLimiter = serve.NewLimiter(*cfg.ReadAdmission)
	}
	if cfg.FeedbackAdmission != nil {
		s.feedbackLimiter = serve.NewLimiter(*cfg.FeedbackAdmission)
	}
	s.initObs(cfg.Registry, cfg.SlowRingSize, cfg.SlowThreshold)
	if len(cfg.Rules) > 0 {
		rules, err := obs.NewRules(s.reg, cfg.Rules)
		if err != nil {
			return nil, fmt.Errorf("httpapi: alert rules: %w", err)
		}
		s.rules = rules
	}
	if s.exp != nil {
		s.armIndex = make(map[string]int, s.exp.NumArms())
		for i := 0; i < s.exp.NumArms(); i++ {
			s.armIndex[s.exp.ArmName(i)] = i
		}
	}
	return s, nil
}

// Routes returns the endpoint mux with admission control applied.
func (s *Server) Routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.MetricsHandler().ServeHTTP)
	mux.HandleFunc("GET /v1/model", s.handleModel)
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("GET /v1/debug/slow", s.handleSlow)
	mux.HandleFunc("GET /v1/debug/freshness", s.handleFreshness)
	mux.HandleFunc("GET /v1/debug/alerts", s.handleAlerts)
	mux.HandleFunc("POST /v1/score", s.instrument("score", s.limited(s.readLimiter, "read", s.handleScore)))
	mux.HandleFunc("POST /v1/topk", s.instrument("topk", s.limited(s.readLimiter, "read", s.handleTopK)))
	mux.HandleFunc("POST /v1/recommend", s.instrument("recommend", s.limited(s.readLimiter, "read", s.handleRecommend)))
	mux.HandleFunc("POST /v1/feedback", s.instrument("feedback", s.limited(s.feedbackLimiter, "feedback", s.handleFeedback)))
	mux.HandleFunc("GET /v1/replica/snapshot", s.handleReplicaSnapshot)
	mux.HandleFunc("GET /v1/replica/log", s.handleReplicaLog)
	mux.HandleFunc("POST /v1/replica/promote", s.handlePromote)
	return mux
}

// PromoteInfo is what a successful promotion reports: the new writer's
// fencing epoch, the log position it resumed from, the serving generation at
// takeover, and where the fresh WAL lives.
type PromoteInfo struct {
	Epoch      uint64 `json:"epoch"`
	AppliedSeq uint64 `json:"applied_seq"`
	Generation uint64 `json:"generation"`
	WALDir     string `json:"wal_dir"`
}

// isFollower reports whether the server still serves in the follower role —
// configured as a replica and not (yet) promoted.
func (s *Server) isFollower() bool {
	return s.replica != nil && !s.promoted.Load()
}

// wal resolves the learner's current log: the configured one on a born
// primary, the learner's own after a promotion attached one mid-flight.
func (s *Server) wal() *wal.Log {
	if s.walLog != nil {
		return s.walLog
	}
	if s.learner != nil {
		return s.learner.WAL()
	}
	return nil
}

// limited wraps h behind limiter l: a full queue sheds with 429, a wait
// timeout with 503, both with a Retry-After estimated from the queue state.
// A nil limiter admits everything. The slot wait lands in the group's
// admission-wait histogram and on the request trace as "admission_wait".
func (s *Server) limited(l *serve.Limiter, group string, h http.HandlerFunc) http.HandlerFunc {
	if l == nil {
		return h
	}
	wait := s.waitVec.With(group)
	return func(w http.ResponseWriter, r *http.Request) {
		acquireStart := time.Now()
		release, err := l.Acquire()
		waited := time.Since(acquireStart)
		wait.Record(waited)
		obs.FromContext(r.Context()).Stage("admission_wait", waited)
		if err != nil {
			code := http.StatusServiceUnavailable
			if errors.Is(err, serve.ErrShed) {
				code = http.StatusTooManyRequests
			}
			retryAfter(w, l.RetryAfter())
			httpError(w, code, err)
			return
		}
		defer release()
		h(w, r)
	}
}

// retryAfter sets the Retry-After header (whole seconds, minimum 1).
func retryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int(d.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

// AdmissionStats reports the limiters' counters (zero values when admission
// is off) — /v1/model reports shed counts from here.
func (s *Server) AdmissionStats() (read, feedback serve.AdmissionStats) {
	return s.readLimiter.Stats(), s.feedbackLimiter.Stats()
}

// decodeJSON strictly decodes one JSON value from the request body: unknown
// fields and trailing garbage are errors, so malformed bodies surface as 400s
// instead of being half-accepted.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON body")
	}
	return nil
}

func writeJSON(w http.ResponseWriter, v any) {
	if w.Header().Get("Content-Type") == "" {
		w.Header().Set("Content-Type", "application/json")
	}
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("write response: %v", err)
	}
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
