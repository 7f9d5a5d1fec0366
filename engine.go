package seqfm

import "seqfm/internal/serve"

// Engine is the batched inference engine (internal/serve): a serving-side
// counterpart to the trainers that pools pre-sized autodiff tapes across
// requests, caches the candidate-independent dynamic view per history and
// the static view per (user, candidate, attrs), fans batches out over a
// worker pool, and micro-batches concurrent single-instance requests. All
// engine paths return scores bit-for-bit identical to per-instance Score.
//
// Typical top-K serving:
//
//	eng := seqfm.NewEngine(model, seqfm.EngineConfig{})
//	defer eng.Close()
//	items := eng.TopK(seqfm.TopKRequest{
//		Base:       seqfm.Instance{User: u, Hist: hist},
//		Candidates: candidates,
//		K:          10,
//	})
type Engine = serve.Engine

// EngineConfig parameterises NewEngine; the zero value takes every default
// (GOMAXPROCS workers, bounded LRU caches, 64-instance micro-batches).
type EngineConfig = serve.Config

// CachePolicy selects the engine caches' eviction discipline.
type CachePolicy = serve.CachePolicy

// The cache policies: LRU (default — touch-on-hit keeps hot entries resident
// under skewed top-K traffic) and FIFO (the measured legacy baseline).
const (
	CacheLRU  = serve.CacheLRU
	CacheFIFO = serve.CacheFIFO
)

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
// online subsystem), or call (*Engine).InvalidateCaches after an in-place
// update.
func NewEngine(m Scorer, cfg EngineConfig) *Engine { return serve.NewEngine(m, cfg) }
