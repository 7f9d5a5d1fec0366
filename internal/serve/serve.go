// Package serve is the batched inference engine: the serving-side
// counterpart of internal/train. Every published generation of a SeqFM model
// is compiled into a frozen execution plan (internal/plan) whose pooled
// Execs score without building tapes; the engine shares the
// candidate-independent dynamic view across every candidate scored against
// the same history, and memoises static-view vectors per (user, candidate,
// attrs) so repeated top-K traffic only pays for the cross view — the
// deployment shape of sequence-aware recommenders, where a model scores a few
// hundred candidate objects per request under a latency budget. A view
// enters that memo on its second miss; the first only records its key. A
// stream of users each seen once never repeats a key, so it leaves the memo
// empty instead of filling it with views nobody asks for again.
//
// The engine is model-agnostic: a model with no compilable spec (the
// baseline zoo) is scored with a plain Score per instance on pooled,
// pre-sized tapes, without the caches. Both paths are bit-for-bit identical
// to a per-instance Score on a fresh tape — the caches only memoise values
// the monolithic pass would recompute, never approximate them.
//
// Every request is already a batch — one history against its candidates
// (TopK, Recommend) or a caller's instance list (ScoreBatch) — so no request
// is held back to be batched with others.
//
// Concurrency and hot-swap model: an Engine is safe for concurrent use.
// Batches fan out over train.ParallelEach workers, each with its own Exec or
// tape. The served weights live in an immutable generation snapshot — the
// model reference plus that generation's private memo caches — published
// through one atomic pointer (RCU style). Every request loads the pointer
// once and runs entirely against that snapshot, so Swap is non-blocking and
// zero-downtime: in-flight requests finish on the generation they started
// with while new requests see the new weights, and a stale cache entry can
// never leak across generations because the caches are part of the snapshot.
// The weights inside a published snapshot must be immutable — the online
// trainer (internal/online) fine-tunes a private clone and publishes further
// clones, never the model an engine is serving.
package serve

import (
	"cmp"
	"context"
	"encoding/binary"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"seqfm/internal/ag"
	"seqfm/internal/core"
	"seqfm/internal/feature"
	"seqfm/internal/obs"
	"seqfm/internal/plan"
	"seqfm/internal/tensor"
	"seqfm/internal/train"
)

// The scoring engines Stats.Engine reports. A generation serves compiled —
// through a frozen execution plan built at publish time — exactly when its
// model exposes a compilable spec (core.Model does); the baselines are served
// on the tape. Scores are bit-identical to a fresh-tape Score either way
// (pinned by internal/plan's parity tests and
// TestCompiledGenerationMatchesTape).
const (
	EngineTape     = "tape"
	EngineCompiled = "compiled"
)

// Scorer is the minimal model contract the engine serves: one raw score per
// instance, recorded on a caller-provided tape. Every model in this
// repository (SeqFM and the eleven baselines) satisfies it.
type Scorer interface {
	Score(t *ag.Tape, inst feature.Instance) *ag.Node
}

// Defaults for Config's zero fields.
const (
	DefaultStaticCacheSize = 1 << 16
	DefaultDynCacheSize    = 4096
)

// Config parameterises an Engine. The zero value takes every default.
type Config struct {
	// Workers is the number of scoring goroutines a batch fans out over;
	// 0 means GOMAXPROCS.
	Workers int
	// StaticCacheSize bounds the static-view memo (entries keyed by user,
	// candidate and attrs). 0 means DefaultStaticCacheSize; negative
	// disables the cache. A view is admitted on its second miss: the first
	// records its key in a seen-set of at most StaticCacheSize keys, cleared
	// when full. The set holds no pointers; at the default size it peaks at
	// about 6.3 MB (the heap of a Go 1.24 map of 65,536 such keys).
	StaticCacheSize int
	// DynCacheSize bounds the dynamic-state memo (entries keyed by
	// history). 0 means DefaultDynCacheSize; negative disables the cache.
	// At d=64, n.=20 an entry's core.DynState allocates 768 B (the padded
	// history and the 1×d dynamic-view vector), plus its key — the
	// history's varints — and the cache's bookkeeping.
	DynCacheSize int
	// Index, when non-nil, enables full-catalog retrieval: every published
	// generation builds an ANN index over the served model's item
	// embeddings (rebuilt on each Swap, so index and weights are always
	// the same generation) and Recommend becomes available. See
	// recommend.go.
	Index *IndexConfig
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.StaticCacheSize == 0 {
		c.StaticCacheSize = DefaultStaticCacheSize
	}
	if c.DynCacheSize == 0 {
		c.DynCacheSize = DefaultDynCacheSize
	}
	return c
}

// staticKey identifies a static-view vector: StaticIndices is a pure
// function of exactly these four instance fields.
type staticKey struct {
	user, target, userAttr, targetAttr int
}

func staticKeyOf(inst feature.Instance) staticKey {
	return staticKey{inst.User, inst.Target, inst.UserAttr, inst.TargetAttr}
}

// generation is one immutable serving snapshot: a model reference and the
// memo caches valid for exactly those weights. Requests resolve the current
// generation once and never mix state across generations; superseded
// generations are reclaimed by the garbage collector once their last
// in-flight request returns.
type generation struct {
	id    uint64
	model Scorer
	// plan is the generation's compiled execution plan; nil when the model
	// has no compilable spec. Compiled at publish time, so every request
	// against this generation scores through preallocated plan buffers
	// instead of tape nodes. It is a frozen plan: a generation's weights are
	// immutable by Swap's contract, so its projected-embedding tables live
	// and die with the generation.
	plan *plan.Plan
	// born is the publish wall-clock (UnixNano), read by the experiment
	// tier's swap-lag metric: how long new weights sit published before the
	// first request observes them.
	born    int64
	statics *lruCache[staticKey, *tensor.Matrix]
	dyns    *lruCache[string, *core.DynState]
	// idx is the generation's catalog retrieval index, built from exactly
	// these weights and stamped with this generation's id; nil when
	// Config.Index is unset or the model cannot embed.
	idx *builtIndex
	// scores sketches every score this generation returned from top-K
	// ranking (the served distribution, not the scored-candidate one).
	// Comparing it against the previous generation's frozen sketch is the
	// score-drift monitor: a poisoned fine-tune shifts this distribution
	// before HR@K visibly craters.
	scores *obs.ScoreSketch
}

// Stats is a snapshot of the engine's served-traffic counters.
type Stats struct {
	// Instances is the total number of instances scored.
	Instances int64
	// StaticHits/StaticMisses count static-view cache probes.
	StaticHits, StaticMisses int64
	// DynHits/DynMisses count dynamic-state cache probes (one per distinct
	// history per batch).
	DynHits, DynMisses int64
	// StaticEntries/DynEntries are the current generation's cache
	// populations.
	StaticEntries, DynEntries int
	// Generation identifies the currently serving snapshot; it increments
	// on every Swap.
	Generation uint64
	// Engine is the scoring engine of the current generation: "compiled"
	// when it serves through an execution plan, "tape" otherwise.
	Engine string
	// Swaps counts published generations since the engine was built.
	Swaps int64

	// Retrieval counters; all zero unless Config.Index is set.

	// Recommends counts full-catalog Recommend requests; Retrieved is the
	// total number of ANN candidates they fetched for re-ranking.
	Recommends, Retrieved int64
	// RecommendNanos/RetrieveNanos are cumulative wall-clock totals for
	// whole Recommend calls and their retrieval stage alone — divide by
	// Recommends for averages.
	RecommendNanos, RetrieveNanos int64
	// RecallSamples counts sampled recall probes (IndexConfig.
	// RecallSampleEvery); RecallHits/RecallWanted accumulate the overlap
	// between ANN and exact retrieval over those samples, so observed
	// recall = RecallHits/RecallWanted.
	RecallSamples, RecallHits, RecallWanted int64
	// IndexSize is the current generation's indexed catalog size (0 when
	// the generation has no index), IndexBackend its backend name, and
	// IndexBuildNanos how long that generation's build took.
	IndexSize       int
	IndexBackend    string
	IndexBuildNanos int64
}

// Engine scores instances against an atomically swappable model snapshot
// with pooled plan Execs (or tapes), cached partial forwards and
// data-parallel fan-out. Create one with NewEngine and share it between
// goroutines; Swap publishes new weights without blocking readers.
type Engine struct {
	cfg Config

	cur atomic.Pointer[generation]
	// swapMu serialises publishers so generation ids are stored in
	// allocation order — without it two racing Swaps could install the
	// older model over the newer one. Readers never take it: they only
	// load cur.
	swapMu sync.Mutex
	gens   atomic.Uint64
	swaps  atomic.Int64

	tapes    sync.Pool
	tapeHint atomic.Int64 // max NumNodes seen; pre-sizes fresh tapes

	instances    atomic.Int64
	staticHits   atomic.Int64
	staticMisses atomic.Int64
	dynHits      atomic.Int64
	dynMisses    atomic.Int64

	recommends     atomic.Int64
	retrieved      atomic.Int64
	recommendNanos atomic.Int64
	retrieveNanos  atomic.Int64
	recallSamples  atomic.Int64
	recallHits     atomic.Int64
	recallWanted   atomic.Int64

	// swapHist times each generation publish (snapshot construction
	// including the plan compile and index rebuild, plus the pointer store)
	// — the cost a publisher pays, never a reader. Live histogram; register
	// it, don't copy it.
	swapHist obs.Histogram

	// prevSketches is a small ring of superseded generations' score
	// sketches, frozen at swap time (in-flight requests of the old
	// generation may still add a few trailing records — the monitoring
	// contract tolerates that). ScoreDrift compares the current
	// generation's sketch against the newest predecessor that served
	// anything.
	prevMu       sync.Mutex
	prevSketches []genSketch
}

// genSketch is one retired generation's served-score sketch.
type genSketch struct {
	gen    uint64
	scores *obs.ScoreSketch
}

// sketchRingSize bounds the retired-sketch ring; drift only ever reads the
// newest non-empty predecessor, the rest is debugging headroom.
const sketchRingSize = 8

// NewEngine builds an engine serving m as generation 1. If m compiles into an
// execution plan (SeqFM does), the cached dynamic/static path is used;
// otherwise the engine still provides tape reuse and parallel fan-out.
func NewEngine(m Scorer, cfg Config) *Engine {
	e := &Engine{cfg: cfg.withDefaults()}
	e.cur.Store(e.newGeneration(m))
	return e
}

// newGeneration wraps m in a fresh snapshot with empty caches.
func (e *Engine) newGeneration(m Scorer) *generation {
	g := &generation{id: e.gens.Add(1), model: m, born: time.Now().UnixNano()}
	if pl, err := plan.Frozen(m); err == nil {
		g.plan = pl
	}
	g.statics = newLruCache[staticKey, *tensor.Matrix](e.cfg.StaticCacheSize)
	g.dyns = newLruCache[string, *core.DynState](e.cfg.DynCacheSize)
	g.idx = e.buildIndex(m, g.id)
	g.scores = &obs.ScoreSketch{}
	return g
}

// retireSketch freezes the outgoing generation's score sketch into the drift
// ring. Callers hold swapMu.
func (e *Engine) retireSketch(old *generation) {
	if old == nil || old.scores == nil {
		return
	}
	e.prevMu.Lock()
	e.prevSketches = append(e.prevSketches, genSketch{gen: old.id, scores: old.scores})
	if len(e.prevSketches) > sketchRingSize {
		e.prevSketches = e.prevSketches[len(e.prevSketches)-sketchRingSize:]
	}
	e.prevMu.Unlock()
}

// Swap atomically publishes m as the serving model and returns the new
// generation id. Swap never blocks scoring: requests already in flight
// complete against the snapshot they loaded; requests arriving after the
// swap see m with fresh caches. Concurrent publishers are serialised so the
// highest generation id always wins. m's weights must be immutable from here
// on — publish a clone if training continues (core.Model.Clone).
func (e *Engine) Swap(m Scorer) uint64 { return e.SwapAs(m, 0) }

// SwapAs is Swap under an externally assigned generation id — the
// replication path: a follower replaying its primary's publish markers
// installs each clone under the id the primary published it as, so both
// engines agree on which generation a response came from. id must exceed the
// current generation to take effect (generation ids stay strictly monotonic,
// which is what the RCU snapshot invariants and the cache stamps rely on);
// otherwise — id 0 included — the swap takes the next sequential id. Returns
// the id actually installed.
func (e *Engine) SwapAs(m Scorer, id uint64) uint64 {
	start := time.Now()
	e.swapMu.Lock()
	if cur := e.gens.Load(); id > cur+1 {
		e.gens.Store(id - 1) // newGeneration's Add(1) lands exactly on id
	}
	g := e.newGeneration(m)
	e.retireSketch(e.cur.Load())
	e.cur.Store(g)
	e.swapMu.Unlock()
	e.swapHist.Record(time.Since(start))
	e.swaps.Add(1)
	return g.id
}

// Generation returns the id of the currently serving snapshot.
func (e *Engine) Generation() uint64 { return e.cur.Load().id }

// GenerationInfo returns the current snapshot's id and publish time — the
// provenance pair the experiment tier's swap-lag metric compares request
// observations against.
func (e *Engine) GenerationInfo() (uint64, time.Time) {
	g := e.cur.Load()
	return g.id, time.Unix(0, g.born)
}

// Model returns the currently served model. Treat it as read-only: its
// weights back every in-flight request of the current generation.
func (e *Engine) Model() Scorer { return e.cur.Load().model }

// getTape takes a pooled tape (pre-sized to the largest pass seen so far).
// Tapes carry no weight state, so the pool is shared across generations.
func (e *Engine) getTape() *ag.Tape {
	if t, ok := e.tapes.Get().(*ag.Tape); ok {
		return t
	}
	t := ag.NewTape()
	if hint := e.tapeHint.Load(); hint > 0 {
		t.Grow(int(hint))
	}
	return t
}

// putTape records the pass size and returns the tape to the pool, reset so
// no matrices stay pinned while it idles.
func (e *Engine) putTape(t *ag.Tape) {
	if n := int64(t.NumNodes()); n > e.tapeHint.Load() {
		e.tapeHint.Store(n)
	}
	t.Reset()
	e.tapes.Put(t)
}

// eachWithTape fans f over n jobs across the engine's workers, handing each
// worker goroutine one pooled tape. f must Reset the tape before recording.
func (e *Engine) eachWithTape(n int, f func(t *ag.Tape, i int)) {
	if n == 0 {
		return
	}
	workers := e.cfg.Workers
	if workers > n {
		workers = n
	}
	tapes := make([]*ag.Tape, workers)
	for w := range tapes {
		tapes[w] = e.getTape()
	}
	train.ParallelEach(n, workers, func(w, i int) { f(tapes[w], i) })
	for _, t := range tapes {
		e.putTape(t)
	}
}

// eachWithExec fans f over n jobs across the engine's workers, handing each
// worker goroutine one pooled plan execution state — the compiled engine's
// counterpart of eachWithTape. The pool lives on the generation's plan, so
// exec buffers never outlive the weights they were compiled against.
func (e *Engine) eachWithExec(pl *plan.Plan, n int, f func(ex *plan.Exec, i int)) {
	if n == 0 {
		return
	}
	workers := e.cfg.Workers
	if workers > n {
		workers = n
	}
	execs := make([]*plan.Exec, workers)
	for w := range execs {
		execs[w] = pl.Get()
	}
	train.ParallelEach(n, workers, func(w, i int) { f(execs[w], i) })
	for _, ex := range execs {
		pl.Put(ex)
	}
}

// histKey encodes a history as a collision-free cache key (a concatenation
// of varints decodes to exactly one int sequence).
func histKey(hist []int) string {
	b := make([]byte, 0, 2*len(hist))
	for _, h := range hist {
		b = binary.AppendVarint(b, int64(h))
	}
	return string(b)
}

// histID identifies a history slice by backing-array identity — the cheap
// first-level dedup for the common top-K shape where every instance in the
// batch aliases one Base.Hist. Distinct slices with equal contents still
// collapse at the second level via histKey.
type histID struct {
	ptr *int
	n   int
}

func idOf(hist []int) histID {
	if len(hist) == 0 {
		return histID{}
	}
	return histID{ptr: &hist[0], n: len(hist)}
}

// dynStates resolves one DynState per instance, deduplicating equal
// histories within the batch (first by slice identity, then by content),
// probing the generation's cache, and computing the misses in parallel on
// the generation's plan (g.plan must be non-nil).
func (e *Engine) dynStates(g *generation, insts []feature.Instance) []*core.DynState {
	type slot struct {
		key   string
		hist  []int
		state *core.DynState
	}
	slots := make([]int, len(insts)) // instance → index into distinct
	byID := make(map[histID]int)
	index := make(map[string]int)
	var distinct []*slot
	for i, inst := range insts {
		id := idOf(inst.Hist)
		if si, ok := byID[id]; ok {
			slots[i] = si
			continue
		}
		k := histKey(inst.Hist)
		si, ok := index[k]
		if !ok {
			si = len(distinct)
			index[k] = si
			distinct = append(distinct, &slot{key: k, hist: inst.Hist})
		}
		byID[id] = si
		slots[i] = si
	}
	var missing []*slot
	for _, s := range distinct {
		if st, ok := g.dyns.get(s.key); ok {
			s.state = st
			e.dynHits.Add(1)
		} else {
			missing = append(missing, s)
			e.dynMisses.Add(1)
		}
	}
	e.eachWithExec(g.plan, len(missing), func(ex *plan.Exec, i int) {
		missing[i].state = ex.PrecomputeDynamic(missing[i].hist)
	})
	for _, s := range missing {
		g.dyns.put(s.key, s.state)
	}
	out := make([]*core.DynState, len(insts))
	for i := range insts {
		out[i] = distinct[slots[i]].state
	}
	return out
}

// scoreBatchOn scores every instance against one generation snapshot.
func (e *Engine) scoreBatchOn(g *generation, insts []feature.Instance) []float64 {
	out := make([]float64, len(insts))
	if len(insts) == 0 {
		return out
	}
	e.instances.Add(int64(len(insts)))
	if g.plan == nil {
		e.eachWithTape(len(insts), func(t *ag.Tape, i int) {
			t.Reset()
			out[i] = g.model.Score(t, insts[i]).Value.ScalarValue()
		})
		return out
	}
	dyns := e.dynStates(g, insts)
	// The static-view cache is probed and fed here, around the fan-out and
	// not inside it: the workers take no lock and count nothing, and a batch
	// costs the shared counters two adds. A miss's view is admitted on the
	// key's second miss (lruCache.admit).
	views := make([]*tensor.Matrix, len(insts))
	var misses []int
	for i, inst := range insts {
		var ok bool
		if views[i], ok = g.statics.get(staticKeyOf(inst)); !ok {
			misses = append(misses, i)
		}
	}
	e.staticHits.Add(int64(len(insts) - len(misses)))
	e.staticMisses.Add(int64(len(misses)))
	e.eachWithExec(g.plan, len(insts), func(ex *plan.Exec, i int) {
		out[i], views[i] = ex.ScoreFast(dyns[i], insts[i], views[i])
	})
	for _, i := range misses {
		if views[i] != nil {
			g.statics.admit(staticKeyOf(insts[i]), views[i])
		}
	}
	return out
}

// ScoreBatch scores every instance and returns the raw outputs of Eq. (19),
// in order. The whole batch runs against one generation snapshot (the one
// current when the call started), and results are bit-for-bit identical to
// calling Score on each instance with a fresh tape under that generation's
// weights. Equal histories within the batch share one dynamic-state
// computation; across batches the generation's caches amortise repeated
// users and candidates.
func (e *Engine) ScoreBatch(insts []feature.Instance) []float64 {
	return e.scoreBatchOn(e.cur.Load(), insts)
}

// Item is one scored candidate, as returned by TopK.
type Item struct {
	Object int
	Score  float64
}

// TopKRequest asks for the K highest-scoring candidate objects for one user
// context.
type TopKRequest struct {
	// Base carries the user, history and static side features; its Target
	// (and, when AttrOf is set, TargetAttr) is overridden per candidate.
	Base feature.Instance
	// Candidates are the object ids to rank.
	Candidates []int
	// K bounds the returned list; K <= 0 returns every candidate, ranked.
	K int
	// AttrOf maps a candidate object to its TargetAttr one-hot (e.g. a
	// data.Dataset's ItemAttr table). nil keeps Base.TargetAttr as-is.
	AttrOf func(object int) int
}

// TopK scores every distinct candidate against the request's user context
// and returns the K best, sorted by descending score (ties broken by
// ascending object id, so results are deterministic). Repeated candidate
// ids are scored once and returned once — a duplicate in the request is a
// caller artifact, not a request for duplicate work.
func (e *Engine) TopK(req TopKRequest) []Item {
	items, _ := e.TopKOn(req)
	return items
}

// TopKOn is TopK plus provenance: it reports the generation that served the
// request, so a caller racing Swap (the hot-swap stress tests, the /v1/model
// endpoint's freshness probes) can attribute every score to the exact
// weights that produced it.
func (e *Engine) TopKOn(req TopKRequest) ([]Item, uint64) {
	return e.topKOn(e.cur.Load(), req, true)
}

// TopKOnCtx is TopKOn with per-request tracing: when ctx carries an
// obs.Trace, the whole candidate ranking (dynamic-state resolution through
// sort) lands in the "rank" stage.
func (e *Engine) TopKOnCtx(ctx context.Context, req TopKRequest) ([]Item, uint64) {
	tr := obs.FromContext(ctx)
	start := time.Now()
	items, gen := e.topKOn(e.cur.Load(), req, true)
	tr.Stage("rank", time.Since(start))
	return items, gen
}

// SwapLatency is the live histogram of generation-publish durations (see
// Engine.swapHist). Register it, don't copy it.
func (e *Engine) SwapLatency() *obs.Histogram { return &e.swapHist }

// topKOn ranks one request entirely against generation g; Recommend's
// re-rank stage reuses it so retrieval and ranking see the same snapshot.
// dedup guards against repeated candidate ids in caller-supplied lists;
// internal callers whose candidates are unique by construction (the index
// returns each object at most once) skip the per-request map.
func (e *Engine) topKOn(g *generation, req TopKRequest, dedup bool) ([]Item, uint64) {
	// Deduplicate repeated candidate ids (first occurrence wins): scoring
	// a candidate twice wastes a forward pass and would return duplicate
	// Items for the same object.
	candidates := req.Candidates
	if dedup {
		seen := make(map[int]struct{}, len(candidates))
		for _, c := range candidates {
			seen[c] = struct{}{}
		}
		if distinct := len(seen); distinct < len(candidates) {
			clear(seen)
			uniq := make([]int, 0, distinct)
			for _, c := range req.Candidates {
				if _, dup := seen[c]; dup {
					continue
				}
				seen[c] = struct{}{}
				uniq = append(uniq, c)
			}
			candidates = uniq
		}
	}
	insts := make([]feature.Instance, len(candidates))
	for i, o := range candidates {
		inst := req.Base
		inst.Target = o
		if req.AttrOf != nil {
			inst.TargetAttr = req.AttrOf(o)
		}
		insts[i] = inst
	}
	scores := e.scoreBatchOn(g, insts)
	items := make([]Item, len(scores))
	for i, s := range scores {
		items[i] = Item{Object: candidates[i], Score: s}
	}
	items = bestItems(items, req.K)
	if g.scores != nil {
		// Sketch the *served* scores — the K items a caller actually sees —
		// under this exact generation. A handful of atomic adds per request,
		// inside the telemetry overhead bar.
		for i := range items {
			g.scores.Record(items[i].Score)
		}
	}
	return items, g.id
}

// compareItems is TopK's order: score descending, ties by object ascending.
func compareItems(a, b Item) int {
	if c := cmp.Compare(b.Score, a.Score); c != 0 {
		return c
	}
	return cmp.Compare(a.Object, b.Object)
}

// bestItems returns the first k items of that order, sorted, in items' own
// storage; k <= 0 or k >= len(items) sorts them all. Otherwise items[:k] is
// kept as a heap with the worst survivor at its root, which the rest only
// have to beat — J comparisons and a few sifts instead of a J·log J sort.
func bestItems(items []Item, k int) []Item {
	if k > 0 && k < len(items) {
		h := items[:k]
		for i := k/2 - 1; i >= 0; i-- {
			siftDown(h, i)
		}
		for _, it := range items[k:] {
			if compareItems(it, h[0]) < 0 {
				h[0] = it
				siftDown(h, 0)
			}
		}
		items = h
	}
	slices.SortFunc(items, compareItems)
	return items
}

// siftDown restores bestItems' heap — no child worse than its parent — below h[i].
func siftDown(h []Item, i int) {
	for {
		c := 2*i + 1
		if c+1 < len(h) && compareItems(h[c+1], h[c]) > 0 {
			c++
		}
		if c >= len(h) || compareItems(h[c], h[i]) <= 0 {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// DriftStats is one inter-generation score-drift reading: the current
// generation's served-score sketch compared against the newest retired
// generation that served anything. Known is false while there is nothing to
// compare (fewer than two generations with served traffic) — unknown drift
// must read as no evidence, not as zero drift that a rule could trust.
type DriftStats struct {
	CurrentGen   uint64         `json:"current_gen"`
	PrevGen      uint64         `json:"prev_gen,omitempty"`
	CurrentCount int64          `json:"current_count"`
	PrevCount    int64          `json:"prev_count,omitempty"`
	Drift        obs.ScoreDrift `json:"drift"`
	Known        bool           `json:"known"`
}

// ScoreDrift compares the current generation's served-score distribution
// against its newest predecessor with served traffic. Reads are lock-cheap
// (one small mutex over the retired ring, atomics over the sketches) and
// safe under concurrent serving and swapping.
func (e *Engine) ScoreDrift() DriftStats {
	g := e.cur.Load()
	st := DriftStats{CurrentGen: g.id}
	if g.scores == nil {
		return st
	}
	st.CurrentCount = g.scores.Count()
	e.prevMu.Lock()
	var prev genSketch
	for i := len(e.prevSketches) - 1; i >= 0; i-- {
		if e.prevSketches[i].gen < g.id && e.prevSketches[i].scores.Count() > 0 {
			prev = e.prevSketches[i]
			break
		}
	}
	e.prevMu.Unlock()
	if prev.scores == nil || st.CurrentCount == 0 {
		return st
	}
	st.PrevGen = prev.gen
	st.PrevCount = prev.scores.Count()
	st.Drift = g.scores.DriftFrom(prev.scores)
	st.Known = true
	return st
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	g := e.cur.Load()
	st := Stats{
		Instances:      e.instances.Load(),
		StaticHits:     e.staticHits.Load(),
		StaticMisses:   e.staticMisses.Load(),
		DynHits:        e.dynHits.Load(),
		DynMisses:      e.dynMisses.Load(),
		StaticEntries:  g.statics.len(),
		DynEntries:     g.dyns.len(),
		Generation:     g.id,
		Engine:         EngineTape,
		Swaps:          e.swaps.Load(),
		Recommends:     e.recommends.Load(),
		Retrieved:      e.retrieved.Load(),
		RecommendNanos: e.recommendNanos.Load(),
		RetrieveNanos:  e.retrieveNanos.Load(),
		RecallSamples:  e.recallSamples.Load(),
		RecallHits:     e.recallHits.Load(),
		RecallWanted:   e.recallWanted.Load(),
	}
	if g.plan != nil {
		st.Engine = EngineCompiled
	}
	if g.idx != nil {
		st.IndexSize = g.idx.retr.Len()
		st.IndexBackend = g.idx.retr.Backend().String()
		st.IndexBuildNanos = g.idx.buildNanos
	}
	return st
}

// Close is a no-op kept for API stability: the engine holds no timers,
// goroutines or files between calls, so there is nothing to release.
// Scoring after Close works as before.
func (e *Engine) Close() {}
