package seqfm

import "seqfm/internal/serve"

// Engine is the batched inference engine (internal/serve): a serving-side
// counterpart to the trainers that pools pre-sized autodiff tapes across
// requests, caches the candidate-independent dynamic view per history and
// the static view per (user, candidate, attrs) and fans batches out over a
// worker pool. Every request is a batch — one history against its
// candidates (TopK) or a caller's instance list (ScoreBatch) — and all
// engine paths return scores bit-for-bit identical to per-instance Score.
//
// Typical top-K serving:
//
//	eng := seqfm.NewEngine(model, seqfm.EngineConfig{})
//	items := eng.TopK(seqfm.TopKRequest{
//		Base:       seqfm.Instance{User: u, Hist: hist},
//		Candidates: candidates,
//		K:          10,
//	})
type Engine = serve.Engine

// EngineConfig parameterises NewEngine; the zero value takes every default
// (GOMAXPROCS workers, bounded LRU caches, no retrieval index).
type EngineConfig = serve.Config

// EngineStats is a snapshot of an Engine's traffic and cache counters.
type EngineStats = serve.Stats

// TopKRequest asks an Engine for the K best candidates for one user context.
type TopKRequest = serve.TopKRequest

// Item is one scored candidate returned by (*Engine).TopK.
type Item = serve.Item

// NewEngine builds an inference engine over a model snapshot. SeqFM models
// are compiled into a frozen execution plan per published generation and get
// the fully cached scoring path; baseline models (any Scorer) are scored on
// pooled tapes with parallel fan-out. The weights of the served model must
// stay immutable while a generation serves them — to deploy new weights,
// publish a clone with (*Engine).Swap (zero-downtime, non-blocking; see the
// online subsystem).
func NewEngine(m Scorer, cfg EngineConfig) *Engine { return serve.NewEngine(m, cfg) }
