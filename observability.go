package seqfm

// Observability facade over internal/obs: the dependency-free telemetry
// registry behind GET /metrics, the per-request trace the serving stack
// threads through context, and the slow-request exemplar ring behind
// GET /v1/debug/slow. A Server builds and wires all of this on its own —
// these exports are for embedders that want to add families to the same
// registry, scrape it programmatically, or trace their own request paths.

import (
	"context"
	"io"

	"seqfm/internal/obs"
	"seqfm/internal/online"
	"seqfm/internal/serve"
)

// MetricsRegistry is an ordered collection of metric families with
// Prometheus text exposition (format 0.0.4). Counters, gauges and latency
// histograms register either as live instruments (the hot path records into
// them) or as scrape-time callbacks over existing stats snapshots.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty registry. Pass it as
// ServerConfig.Registry to share one exposition surface between the server's
// families and your own.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// Counter and Gauge are the registry's scalar instruments; HistogramVec's
// children, log-bucketed latency histograms, are its third kind.
// The Vec forms are labeled families whose children are resolved once at
// wiring time (With/Attach) so hot-path recording stays allocation-free.
type (
	Counter      = obs.Counter
	Gauge        = obs.Gauge
	CounterVec   = obs.CounterVec
	GaugeVec     = obs.GaugeVec
	HistogramVec = obs.HistogramVec
)

// Trace accumulates one request's stage spans (admission wait, retrieve,
// re-rank, WAL append, durability wait, ...). The serving stack opens one
// per request and carries it via context; every Trace method is nil-receiver
// safe, so layers record unconditionally.
type Trace = obs.Trace

// StageSpan is one completed stage on a Trace.
type StageSpan = obs.StageSpan

// NewTrace opens a trace for one request; sink (may be nil) receives every
// stage duration under its stage label.
func NewTrace(endpoint string, sink *HistogramVec) *Trace { return obs.NewTrace(endpoint, sink) }

// WithTrace returns ctx carrying tr; TraceFromContext returns the carried
// trace or nil (safe to record through either way).
func WithTrace(ctx context.Context, tr *Trace) context.Context { return obs.WithTrace(ctx, tr) }

// TraceFromContext returns the trace carried by ctx, or nil.
func TraceFromContext(ctx context.Context) *Trace { return obs.FromContext(ctx) }

// SlowRing keeps the most recent requests that crossed a latency threshold;
// SlowEntry is one kept exemplar with its stage breakdown.
type (
	SlowRing  = obs.SlowRing
	SlowEntry = obs.SlowEntry
)

// MetricSample is one parsed exposition line; MetricSamples is a parsed
// scrape with label-subset lookup helpers (Value, SumValues).
type (
	MetricSample  = obs.Sample
	MetricSamples = obs.Samples
)

// ParseMetrics reads Prometheus text exposition back into samples, for
// cross-checking the server's own series against client-observed counts and
// percentiles.
func ParseMetrics(r io.Reader) (MetricSamples, error) { return obs.ParsePrometheus(r) }

// ScoreSketch is a streaming quantile sketch of served scores: fixed linear
// buckets, atomics-only recording. The engine keeps one per published model
// generation; ScoreDrift summarises the shift between two generations'
// sketches (median shift, mean shift, total variation distance) — the signal
// behind the seqfm_score_drift gauges and drift alert rules.
type (
	ScoreSketch = obs.ScoreSketch
	ScoreDrift  = obs.ScoreDrift
)

// DriftStats is an engine's current-vs-previous-generation drift report;
// Known is false until both generations have recorded scores.
type DriftStats = serve.DriftStats

// ModelLineage is one published generation's provenance entry: when it was
// published and how fresh its training data was, all derived from
// primary-clock stamps carried through the WAL (identical on a follower).
type ModelLineage = online.LineageEntry

// AlertRule is one declarative alert: fire when `metric{labels} op threshold`
// holds continuously for the sustain window. Pass rules via
// ServerConfig.Rules — firing critical rules degrade /healthz to 503, and
// rules carrying an "arm" label mark that experiment arm sick. AlertRuleState
// is one rule's evaluation result; AlertRules is the eval-on-read evaluator.
type (
	AlertRule      = obs.Rule
	AlertRuleState = obs.RuleState
	AlertRules     = obs.Rules
)

// Alert severities: critical degrades readiness while firing, warn only
// reports.
const (
	AlertSeverityWarn     = obs.SeverityWarn
	AlertSeverityCritical = obs.SeverityCritical
)

// NewAlertRules wires rules against reg, rejecting the set on the first
// malformed rule. Servers do this themselves for ServerConfig.Rules; use it
// directly to evaluate rules over your own registry.
func NewAlertRules(reg *MetricsRegistry, rules []AlertRule) (*AlertRules, error) {
	return obs.NewRules(reg, rules)
}

// LoadAlertRules reads rules from a JSON file (a bare array or an object
// with a "rules" array) — the format behind seqfm-serve's -alert-rules flag.
func LoadAlertRules(path string) ([]AlertRule, error) { return obs.LoadRulesFile(path) }
