package seqfm

import (
	"seqfm/internal/httpapi"
	"seqfm/internal/serve"
)

// Experiments is the multi-model experimentation tier (internal/serve): it
// serves several model arms — the SeqFM engine plus any baselines — from one
// process, assigns each user to an arm with a sticky salted hash (restarts
// and re-deploys keep users on their arms), and accumulates independent
// per-arm online metrics: endpoint latency histograms, feedback counts, a
// sampled online HR@K probe, and hot-swap observation lag.
//
//	exp, _ := seqfm.NewExperiments([]seqfm.ExperimentArm{
//		{Name: "seqfm", Engine: eng, Weight: 9},
//		{Name: "fm", Engine: baseline, Weight: 1},
//	}, seqfm.ExperimentsConfig{NumObjects: ds.NumObjects})
//	scores, gen, arm := exp.ScoreBatch(user, instances)
type Experiments = serve.Experiments

// ExperimentArm is one served model variant: a name, an engine and a
// relative traffic weight.
type ExperimentArm = serve.ExperimentArm

// ExperimentsConfig parameterises NewExperiments; the zero value keeps every
// default (HR@10 probes on every 4th feedback event over 100 candidates).
type ExperimentsConfig = serve.ExperimentsConfig

// ArmStats is one arm's metrics snapshot, as reported at /v1/experiments.
type ArmStats = serve.ArmStats

// Endpoint labels the per-arm latency histograms.
type Endpoint = serve.Endpoint

// The experiment tier's endpoint labels.
const (
	EndpointScore     = serve.EndpointScore
	EndpointTopK      = serve.EndpointTopK
	EndpointRecommend = serve.EndpointRecommend
	EndpointFeedback  = serve.EndpointFeedback
)

// NewExperiments builds the tier over the given arms. Arm order is part of
// the assignment contract: the same arms, weights and salt always map each
// user to the same arm.
func NewExperiments(arms []ExperimentArm, cfg ExperimentsConfig) (*Experiments, error) {
	return serve.NewExperiments(arms, cfg)
}

// AdmissionConfig bounds an endpoint group's concurrency: MaxConcurrent
// slots, a MaxQueue-deep wait queue, and a MaxWait queueing deadline.
// Arrivals beyond the queue (or past the deadline) are shed explicitly —
// ErrShed maps to HTTP 429, ErrAdmitTimeout to 503, both with Retry-After —
// so an overloaded server degrades by rejecting crisply instead of
// collapsing under unbounded goroutine pile-up.
type AdmissionConfig = serve.AdmissionConfig

// Limiter enforces an AdmissionConfig; see NewLimiter.
type Limiter = serve.Limiter

// AdmissionStats counts a Limiter's admitted and shed requests.
type AdmissionStats = serve.AdmissionStats

// The admission rejections: ErrShed (queue full — back off) and
// ErrAdmitTimeout (queued too long — the server is saturated).
var (
	ErrShed         = serve.ErrShed
	ErrAdmitTimeout = serve.ErrAdmitTimeout
)

// NewLimiter builds an admission limiter. A nil *Limiter admits everything,
// so wiring admission is optional at every call site.
func NewLimiter(cfg AdmissionConfig) *Limiter { return serve.NewLimiter(cfg) }

// ServerConfig wires the HTTP serving surface (internal/httpapi): the
// engine and dataset are required; a learner enables /v1/feedback, an
// Experiments tier routes reads through arm assignment, and the admission
// configs bound the read and feedback paths independently.
type ServerConfig = httpapi.Config

// Server is the HTTP serving surface behind seqfm-serve, exposed as a
// library so tests and the benchmark drive the exact production handlers
// in-process.
type Server = httpapi.Server

// NewServer builds the serving surface; (*Server).Routes returns the
// http.Handler.
func NewServer(cfg ServerConfig) (*Server, error) { return httpapi.New(cfg) }
