package serve

// Full-catalog retrieval: the serving side of the two-stage architecture
// (DESIGN.md §8). TopK answers "rank these J candidates"; Recommend
// answers "recommend from the whole catalog" by retrieving N ≫ K
// candidates from an ANN index over the generation's item embeddings,
// dropping already-seen objects, exact re-ranking the survivors with the
// cached ScoreFast path, and returning the top K.
//
// Generation discipline: the index is part of the generation snapshot.
// newGeneration builds it from the very model the generation serves and
// stamps it with the generation id, so a Swap atomically republishes
// weights and index together — a request can never retrieve against one
// generation's embeddings and re-rank with another's weights, no matter
// how hard publishers race (the hot-swap storm test pins this under
// -race). The rebuild runs on the publisher's goroutine under swapMu:
// readers never block on it, and its cost is amortised over every request
// the generation serves.

import (
	"context"
	"fmt"
	"time"

	"seqfm/internal/feature"
	"seqfm/internal/index"
	"seqfm/internal/obs"
)

// Embedder is the retrieval contract a served model must satisfy for the
// engine to build catalog indexes and derive queries: read-only access to
// the static item-embedding space. *core.Model implements it.
type Embedder interface {
	Scorer
	// EmbedDim is the embedding width d.
	EmbedDim() int
	// ObjectEmbedding copies object o's static embedding row into dst
	// (length EmbedDim).
	ObjectEmbedding(o int, dst []float64)
	// RetrievalQuery writes the candidate-retrieval query for one user
	// context into dst (length EmbedDim).
	RetrievalQuery(user int, hist []int, dst []float64)
}

// DefaultMinRetrieve is the floor on the retrieval depth N when a
// RecommendRequest leaves it unset: retrieving well past K is what buys
// the exact re-rank stage room to disagree with the ANN proxy ordering.
const DefaultMinRetrieve = 100

// MaxExcludeHeadroomFactor caps the retrieval beam headroom at this
// multiple of the requested depth. The beam grows with the exclusion
// count so seen items cannot crowd wanted ones out, but a user whose
// lifetime seen set numbers in the tens of thousands must not turn every
// request into a near-flat scan through an unbounded beam — past the cap,
// pathological users degrade gracefully (possibly fewer than K results)
// instead of degrading the serving path.
const MaxExcludeHeadroomFactor = 4

// IndexConfig enables full-catalog retrieval on an Engine: when
// Config.Index is non-nil and the served model implements Embedder, every
// published generation carries an index over the catalog's item
// embeddings and Recommend becomes available.
type IndexConfig struct {
	// Objects is the catalog to index — data.Dataset.Objects() in the
	// common case. Required.
	Objects []int
	// Backend selects HNSW (default) or the exact flat scan, the
	// verification baseline.
	Backend index.Backend
	// ANN parameterises the HNSW graph (M, efConstruction, efSearch);
	// ignored by the flat backend.
	ANN index.Config
	// RecallSampleEvery, when > 0, makes every Nth Recommend also run the
	// exact flat scan on the same query and record the observed recall in
	// the engine counters — a production canary for graph quality that
	// costs one flat scan per sample, not per request. The flat scanner
	// shares the generation's vector store, so sampling adds no memory.
	RecallSampleEvery int
}

// builtIndex is one generation's retrieval state. gen repeats the owning
// generation's id so consistency is checkable end-to-end: RecommendOn
// reports both ids and the hot-swap tests assert they never diverge.
type builtIndex struct {
	gen        uint64
	retr       index.Retriever
	exact      *index.Flat // non-nil only when recall sampling is on
	buildNanos int64
}

// buildIndex extracts the model's item embeddings into a fresh store and
// builds the configured retriever over it. Returns nil when the engine has
// no index config or the model cannot embed (generic Scorer baselines).
func (e *Engine) buildIndex(m Scorer, gen uint64) *builtIndex {
	cfg := e.cfg.Index
	if cfg == nil || len(cfg.Objects) == 0 {
		return nil
	}
	emb, ok := m.(Embedder)
	if !ok {
		return nil
	}
	start := time.Now()
	store := index.BuildStore(cfg.Objects, emb.EmbedDim(), emb.ObjectEmbedding)
	b := &builtIndex{gen: gen, retr: index.New(cfg.Backend, store, cfg.ANN)}
	if cfg.RecallSampleEvery > 0 && cfg.Backend != index.BackendFlat {
		b.exact = index.NewFlat(store)
	}
	b.buildNanos = time.Since(start).Nanoseconds()
	return b
}

// RecommendRequest asks for the K best objects for one user context,
// retrieved from the whole catalog instead of a caller-supplied candidate
// list.
type RecommendRequest struct {
	// Base carries the user, history and static side features; Target is
	// ignored (every retrieved candidate overrides it, like TopK).
	Base feature.Instance
	// K bounds the returned list; K <= 0 returns every retrieved
	// candidate, ranked.
	K int
	// N is the retrieval depth — how many ANN candidates feed the exact
	// re-rank. 0 derives max(10·K, DefaultMinRetrieve); values beyond the
	// catalog size are clamped to it. Recall@K of the end-to-end pipeline
	// rises with N at linear re-rank cost.
	N int
	// IncludeSeen keeps objects already present in Base.Hist eligible.
	// The zero value excludes them — recommending what the user just
	// interacted with is almost never the product intent.
	IncludeSeen bool
	// Exclude lists additional object ids to suppress.
	Exclude []int
	// ExcludeFunc, when non-nil, suppresses objects by predicate without
	// materialising the set — the right shape for large, long-lived seen
	// indexes (the online learner's never forgets). It combines with
	// Exclude and the history-derived exclusions.
	ExcludeFunc func(object int) bool
	// ExcludeHint estimates how many retrievable objects ExcludeFunc
	// suppresses; it sizes the retrieval beam headroom (which is capped
	// regardless — see MaxExcludeHeadroomFactor). Ignored when
	// ExcludeFunc is nil.
	ExcludeHint int
	// AttrOf maps a candidate object to its TargetAttr one-hot, like
	// TopKRequest.AttrOf. nil keeps Base.TargetAttr.
	AttrOf func(object int) int
}

// RecommendResult is a Recommend outcome plus its provenance.
type RecommendResult struct {
	// Items are the K best candidates after exact re-ranking, sorted by
	// descending score (ties by ascending object id).
	Items []Item
	// Generation is the model generation that scored the request;
	// IndexGeneration is the generation the index was built for. They are
	// equal by construction — the pair is reported so callers racing Swap
	// can verify it.
	Generation      uint64
	IndexGeneration uint64
	// Retrieved is how many candidates the index returned for re-ranking.
	Retrieved int
	// Elapsed is the request's serving time net of recall-canary overhead
	// (a sampled request also runs an exact flat scan; that cost is canary
	// instrumentation, not serving latency, and is excluded here exactly
	// as it is from the engine's cumulative counters). Report this to
	// clients instead of re-measuring around the call.
	Elapsed time.Duration
}

// resolveN returns the effective retrieval depth for a request.
func (req *RecommendRequest) resolveN() int {
	if req.N > 0 {
		return req.N
	}
	n := 10 * req.K
	if n < DefaultMinRetrieve {
		n = DefaultMinRetrieve
	}
	return n
}

// Recommend retrieves candidates from the current generation's catalog
// index, excludes already-seen objects, exact re-ranks with the cached
// scoring path and returns the K best. It errors when the engine was built
// without Config.Index or the served model cannot embed.
func (e *Engine) Recommend(req RecommendRequest) ([]Item, error) {
	res, err := e.RecommendOn(req)
	if err != nil {
		return nil, err
	}
	return res.Items, nil
}

// RecommendOn is Recommend plus provenance: the serving generation, the
// index generation (always equal) and the retrieval depth actually used.
func (e *Engine) RecommendOn(req RecommendRequest) (RecommendResult, error) {
	return e.recommendOn(nil, req)
}

// RecommendOnCtx is RecommendOn with per-stage tracing: when ctx carries an
// obs.Trace, the ANN search lands in the "retrieve" stage and the exact
// ScoreFast re-rank in "rerank" — the two-stage split that tells an operator
// whether a slow recommendation was the index or the model.
func (e *Engine) RecommendOnCtx(ctx context.Context, req RecommendRequest) (RecommendResult, error) {
	return e.recommendOn(obs.FromContext(ctx), req)
}

func (e *Engine) recommendOn(tr *obs.Trace, req RecommendRequest) (RecommendResult, error) {
	started := time.Now()
	g := e.cur.Load()
	if g.idx == nil {
		switch {
		case e.cfg.Index == nil:
			return RecommendResult{}, fmt.Errorf("serve: engine built without IndexConfig; use TopK or enable Config.Index")
		case len(e.cfg.Index.Objects) == 0:
			return RecommendResult{}, fmt.Errorf("serve: IndexConfig.Objects is empty; pass the catalog (data.Dataset.Objects())")
		default:
			return RecommendResult{}, fmt.Errorf("serve: served model does not implement Embedder; Recommend needs a SeqFM generation")
		}
	}
	emb := g.model.(Embedder) // g.idx non-nil implies the assertion held at build

	query := make([]float64, emb.EmbedDim())
	emb.RetrievalQuery(req.Base.User, req.Base.Hist, query)

	var excluded map[int]struct{}
	if !req.IncludeSeen || len(req.Exclude) > 0 {
		excluded = make(map[int]struct{}, len(req.Base.Hist)+len(req.Exclude))
		if !req.IncludeSeen {
			for _, o := range req.Base.Hist {
				if o >= 0 {
					excluded[o] = struct{}{}
				}
			}
		}
		for _, o := range req.Exclude {
			excluded[o] = struct{}{}
		}
	}
	excludeCount := len(excluded)
	var exclude func(int) bool
	switch {
	case req.ExcludeFunc != nil && len(excluded) > 0:
		exclude = func(id int) bool {
			if _, drop := excluded[id]; drop {
				return true
			}
			return req.ExcludeFunc(id)
		}
	case req.ExcludeFunc != nil:
		exclude = req.ExcludeFunc
	case len(excluded) > 0:
		exclude = func(id int) bool { _, drop := excluded[id]; return drop }
	}
	if req.ExcludeFunc != nil && req.ExcludeHint > 0 {
		excludeCount += req.ExcludeHint
	}

	want := req.resolveN()
	// The catalog bounds every useful depth; clamping (besides the
	// backends' own clamp) keeps the request a bounded amount of work no
	// matter what an untrusted wire caller asks for.
	if size := g.idx.retr.Len(); want > size {
		want = size
	}
	// The search runs with headroom for the exclusions: a heavy user's
	// seen objects are by construction the nearest neighbors of their own
	// history-mean query, and the graph search's beam admits excluded
	// nodes (they keep the frontier honest) — without headroom they would
	// crowd the wanted items out and the request could return fewer than
	// K from a catalog full of unseen objects. The surplus exists only
	// for the beam (results are trimmed back to want before the exact
	// re-rank, so re-rank cost stays the caller's N dial) and is capped so
	// a lifetime seen set cannot grow the beam without bound.
	headroom := excludeCount
	if max := MaxExcludeHeadroomFactor * want; headroom > max {
		headroom = max
	}
	n := want + headroom
	if size := g.idx.retr.Len(); n > size {
		n = size
	}
	retrieveStart := time.Now()
	retrieved := g.idx.retr.Search(query, n, exclude)
	if len(retrieved) > want {
		retrieved = retrieved[:want]
	}
	retrieveDur := time.Since(retrieveStart)
	tr.Stage("retrieve", retrieveDur)
	e.retrieveNanos.Add(retrieveDur.Nanoseconds())
	e.retrieved.Add(int64(len(retrieved)))

	// The sample decision is atomic with the counter advance (Add, then
	// gate on the result): gating on a pre-increment Load would let every
	// request arriving during a sample's flat scan match the gate too and
	// run its own O(catalog·d) scan — a thundering herd on exactly the
	// large catalogs where the canary must stay cheap. The sample's cost
	// is kept out of the latency accounting: it is canary overhead, and
	// folding it into avg_recommend_ms would make the instrument meant to
	// detect regressions read as one.
	var sampleNanos int64
	count := e.recommends.Add(1)
	if s := e.cfg.Index.RecallSampleEvery; s > 0 && g.idx.exact != nil && count%int64(s) == 0 {
		// The exact scan runs at want, matching the trimmed approximate
		// result set, so the observed recall compares equal-depth lists.
		sampleStart := time.Now()
		e.sampleRecall(g, query, want, exclude, retrieved)
		sampleNanos = time.Since(sampleStart).Nanoseconds()
	}

	candidates := make([]int, len(retrieved))
	for i, r := range retrieved {
		candidates[i] = r.ID
	}
	// The index returns each object at most once, so the re-rank skips
	// topKOn's dedup pass.
	rerankStart := time.Now()
	items, _ := e.topKOn(g, TopKRequest{Base: req.Base, Candidates: candidates, K: req.K, AttrOf: req.AttrOf}, false)
	tr.Stage("rerank", time.Since(rerankStart))
	elapsed := time.Since(started) - time.Duration(sampleNanos)
	e.recommendNanos.Add(elapsed.Nanoseconds())
	return RecommendResult{
		Items:           items,
		Generation:      g.id,
		IndexGeneration: g.idx.gen,
		Retrieved:       len(retrieved),
		Elapsed:         elapsed,
	}, nil
}

// sampleRecall runs the exact flat scan for one sampled query and records
// how much of its top-n the ANN retrieval recovered.
func (e *Engine) sampleRecall(g *generation, query []float64, n int, exclude func(int) bool, approx []index.Result) {
	exact := g.idx.exact.Search(query, n, exclude)
	if len(exact) == 0 {
		return
	}
	got := make(map[int]struct{}, len(approx))
	for _, r := range approx {
		got[r.ID] = struct{}{}
	}
	hits := 0
	for _, r := range exact {
		if _, ok := got[r.ID]; ok {
			hits++
		}
	}
	e.recallSamples.Add(1)
	e.recallHits.Add(int64(hits))
	e.recallWanted.Add(int64(len(exact)))
}
