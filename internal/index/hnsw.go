package index

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// HNSW is a hierarchical navigable small world graph (Malkov & Yashunin,
// "Efficient and robust approximate nearest neighbor search using
// Hierarchical Navigable Small World graphs", TPAMI 2018): a stack of
// proximity graphs where each node appears in every layer up to a
// geometrically distributed level. A search greedily descends the sparse
// upper layers to a good entry point, then runs a breadth-ef best-first
// search on the dense base layer. Construction inserts nodes one at a
// time, wiring each into its M nearest neighbors per layer with the
// diversity heuristic of the paper's Algorithm 4 (a candidate is linked
// only if it is closer to the new node than to any already-selected
// neighbor, which keeps links spread across directions and the graph
// navigable around clusters).
//
// Construction is sequential and deterministic by default; with
// Config.BuildWorkers > 1 inserts run concurrently under per-node link
// locks (the hnswlib discipline: every read or write of a node's neighbor
// list during the build holds that node's lock, entry-point updates hold a
// global one). Either way the graph is immutable after NewHNSW returns and
// safe for unbounded concurrent Search calls; per-query visited sets are
// pooled and epoch-stamped so searches allocate O(ef), not O(n).
type HNSW struct {
	store *Store
	cfg   Config
	mL    float64 // level normalisation 1/ln(M)

	entry    int32
	maxLevel int
	// links[node][level] holds the node's neighbor rows, level 0 first.
	// len(links[node]) is the node's level+1. Base-layer lists are capped
	// at 2M, upper layers at M.
	links [][][]int32

	// Build-time synchronisation; unused (and uncontended) after NewHNSW
	// returns, when the graph goes read-only.
	epMu      sync.Mutex
	nodeLocks []sync.Mutex

	visited sync.Pool // *visitSet, reused across queries
}

// cand pairs a node with its similarity to the current query; the search
// heaps order it by (sim, id).
type cand struct {
	sim  float64
	node int32
}

// better reports whether a ranks strictly ahead of b: higher similarity,
// ties broken by lower id, so a sequential build's traversal order — and
// therefore the whole graph — is deterministic.
func better(a, b cand) bool {
	if a.sim != b.sim {
		return a.sim > b.sim
	}
	return a.node < b.node
}

// NewHNSW builds the graph over s. Cost is O(n · efConstruction · d)
// similarity evaluations, divided across Config.BuildWorkers.
func NewHNSW(s *Store, cfg Config) *HNSW {
	cfg = cfg.withDefaults()
	h := &HNSW{
		store: s,
		cfg:   cfg,
		mL:    1 / math.Log(float64(cfg.M)),
		entry: -1,
		links: make([][][]int32, s.Len()),
	}
	h.visited.New = func() any { return &visitSet{stamp: make([]uint32, s.Len())} }

	// Levels are pre-drawn from the seed so the layer structure is a pure
	// function of (Seed, n) no matter how many workers build the links.
	rng := rand.New(rand.NewSource(cfg.Seed))
	levels := make([]int, s.Len())
	for i := range levels {
		levels[i] = int(math.Floor(-math.Log(1-rng.Float64()) * h.mL))
	}

	workers := cfg.BuildWorkers
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 || s.Len() < 2 {
		vis := &visitSet{stamp: make([]uint32, s.Len())}
		for i := 0; i < s.Len(); i++ {
			h.insert(int32(i), levels[i], vis, false)
		}
		return h
	}

	h.nodeLocks = make([]sync.Mutex, s.Len())
	// Seed the graph with the first node so every worker finds an entry
	// point, then fan the remaining inserts over the workers.
	h.insert(0, levels[0], nil, false)
	var next atomic.Int64
	next.Store(1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vis := &visitSet{stamp: make([]uint32, h.store.Len())}
			for {
				i := next.Add(1) - 1
				if i >= int64(h.store.Len()) {
					return
				}
				h.insert(int32(i), levels[i], vis, true)
			}
		}()
	}
	wg.Wait()
	h.nodeLocks = nil // the graph is read-only from here on
	return h
}

// Len returns the number of indexed items.
func (h *HNSW) Len() int { return h.store.Len() }

// Dim returns the vector dimensionality.
func (h *HNSW) Dim() int { return h.store.Dim() }

// Backend identifies the implementation.
func (h *HNSW) Backend() Backend { return BackendHNSW }

// neighbors returns node's layer-lc list. During a locked (parallel) build
// it copies the list into buf under the node's lock so the caller can scan
// it without holding locks through similarity evaluations; buf must hold
// 2M entries.
func (h *HNSW) neighbors(node int32, lc int, locked bool, buf []int32) []int32 {
	if !locked {
		return h.links[node][lc]
	}
	h.nodeLocks[node].Lock()
	ls := h.links[node]
	var out []int32
	if lc < len(ls) {
		out = buf[:len(ls[lc])]
		copy(out, ls[lc])
	}
	h.nodeLocks[node].Unlock()
	return out
}

// insert wires node i into the graph at the pre-drawn level (Algorithm 1).
// vis is the worker's reusable visited set; locked selects the
// parallel-build locking discipline.
func (h *HNSW) insert(i int32, level int, vis *visitSet, locked bool) {
	own := make([][]int32, level+1)
	if locked {
		h.nodeLocks[i].Lock()
		h.links[i] = own
		h.nodeLocks[i].Unlock()
	} else {
		h.links[i] = own
	}

	h.epMu.Lock()
	entry, maxLevel := h.entry, h.maxLevel
	if entry < 0 {
		h.entry, h.maxLevel = i, level
		h.epMu.Unlock()
		return
	}
	h.epMu.Unlock()

	q := h.store.vec(int(i))
	var buf []int32
	if locked {
		buf = make([]int32, 2*h.cfg.M+1)
	}
	ep := cand{node: entry, sim: dot(q, h.store.vec(int(entry)))}
	for lc := maxLevel; lc > level; lc-- {
		ep = h.greedyClosest(q, ep, lc, locked, buf)
	}
	top := level
	if maxLevel < top {
		top = maxLevel
	}
	for lc := top; lc >= 0; lc-- {
		found := h.searchLayer(q, ep, h.cfg.EfConstruction, lc, vis, locked, buf, nil, nil)
		neighbors := h.selectNeighbors(q, found, h.cfg.M)
		if locked {
			h.nodeLocks[i].Lock()
			h.links[i][lc] = neighbors
			h.nodeLocks[i].Unlock()
		} else {
			h.links[i][lc] = neighbors
		}
		maxConn := h.cfg.M
		if lc == 0 {
			maxConn = 2 * h.cfg.M
		}
		for _, nb := range neighbors {
			if locked {
				h.nodeLocks[nb].Lock()
			}
			if lc < len(h.links[nb]) { // level may trail i's under races; skip then
				h.links[nb][lc] = append(h.links[nb][lc], i)
				if len(h.links[nb][lc]) > maxConn {
					h.shrink(nb, lc, maxConn)
				}
			}
			if locked {
				h.nodeLocks[nb].Unlock()
			}
		}
		if len(found) > 0 {
			ep = found[0]
		}
	}
	if level > maxLevel {
		h.epMu.Lock()
		if level > h.maxLevel {
			h.maxLevel, h.entry = level, i
		}
		h.epMu.Unlock()
	}
}

// shrink re-selects node nb's layer-lc neighbor list down to maxConn with
// the same diversity heuristic used at insertion, measured from nb's own
// vector. In a parallel build the caller holds nb's lock.
func (h *HNSW) shrink(nb int32, lc, maxConn int) {
	base := h.store.vec(int(nb))
	cands := make([]cand, 0, len(h.links[nb][lc]))
	for _, n := range h.links[nb][lc] {
		cands = append(cands, cand{node: n, sim: dot(base, h.store.vec(int(n)))})
	}
	sortCands(cands)
	h.links[nb][lc] = h.selectNeighbors(base, cands, maxConn)
}

// selectNeighbors is the paper's Algorithm 4 with keepPrunedConnections: a
// candidate joins the neighbor set only if it is closer to the base vector
// than to every neighbor already selected; pruned candidates backfill any
// remaining slots in similarity order. cands must be sorted best-first.
func (h *HNSW) selectNeighbors(base []float64, cands []cand, m int) []int32 {
	if len(cands) <= m {
		out := make([]int32, len(cands))
		for i, c := range cands {
			out[i] = c.node
		}
		return out
	}
	out := make([]int32, 0, m)
	pruned := make([]int32, 0, len(cands))
	for _, c := range cands {
		if len(out) == m {
			break
		}
		cv := h.store.vec(int(c.node))
		diverse := true
		for _, sel := range out {
			if dot(cv, h.store.vec(int(sel))) > c.sim {
				diverse = false
				break
			}
		}
		if diverse {
			out = append(out, c.node)
		} else {
			pruned = append(pruned, c.node)
		}
	}
	for _, p := range pruned {
		if len(out) == m {
			break
		}
		out = append(out, p)
	}
	return out
}

// greedyClosest walks layer lc from ep to the local similarity maximum —
// the ef=1 descent through the upper layers (Algorithm 2 / Algorithm 5's
// zoom-in phase).
func (h *HNSW) greedyClosest(q []float64, ep cand, lc int, locked bool, buf []int32) cand {
	for {
		improved := false
		for _, nb := range h.neighbors(ep.node, lc, locked, buf) {
			c := cand{node: nb, sim: dot(q, h.store.vec(int(nb)))}
			if better(c, ep) {
				ep, improved = c, true
			}
		}
		if !improved {
			return ep
		}
	}
}

// searchLayer is the best-first breadth-ef search of Algorithm 2,
// returning the up-to-ef nearest visited nodes sorted best-first. When
// collect is non-nil, every visited node it admits (exclude returns false)
// is additionally offered to collect — the query path uses this to gather
// filtered results without letting the filter distort the search frontier
// that decides termination.
func (h *HNSW) searchLayer(q []float64, ep cand, ef, lc int, vis *visitSet, locked bool, buf []int32, collect *topN, exclude func(id int) bool) []cand {
	vis.reset()
	vis.mark(ep.node)
	// frontier is a max-heap (best first); nearest a min-heap bounded at ef
	// whose root is the worst retained node — the search's give-up bound.
	frontier := candQueue{cmp: better}
	frontier.push(ep)
	nearest := candQueue{cmp: func(a, b cand) bool { return better(b, a) }}
	nearest.push(ep)
	offer := func(c cand) {
		if collect == nil {
			return
		}
		id := h.store.ID(int(c.node))
		if exclude != nil && exclude(id) {
			return
		}
		collect.offer(Result{ID: id, Score: c.sim})
	}
	offer(ep)
	for frontier.len() > 0 {
		c := frontier.pop()
		if nearest.len() >= ef && better(nearest.peek(), c) {
			break
		}
		for _, nb := range h.neighbors(c.node, lc, locked, buf) {
			if vis.marked(nb) {
				continue
			}
			vis.mark(nb)
			n := cand{node: nb, sim: dot(q, h.store.vec(int(nb)))}
			if nearest.len() < ef || better(n, nearest.peek()) {
				frontier.push(n)
				nearest.push(n)
				if nearest.len() > ef {
					nearest.pop()
				}
				offer(n)
			}
		}
	}
	out := nearest.items
	sortCands(out)
	return out
}

// Search descends to the base layer and runs a breadth-max(EfSearch, n)
// search there, collecting the best n non-excluded items (Algorithm 5).
func (h *HNSW) Search(query []float64, n int, exclude func(id int) bool) []Result {
	if n <= 0 || h.store.Len() == 0 || h.entry < 0 {
		return nil
	}
	// More results than stored vectors cannot exist; clamping also caps
	// the collector allocation and the ef beam at O(Len) no matter what a
	// caller (or a wire request upstream) asks for.
	if n > h.store.Len() {
		n = h.store.Len()
	}
	q := normalizeQuery(query, h.store.dim)
	ep := cand{node: h.entry, sim: dot(q, h.store.vec(int(h.entry)))}
	for lc := h.maxLevel; lc > 0; lc-- {
		ep = h.greedyClosest(q, ep, lc, false, nil)
	}
	ef := h.cfg.EfSearch
	if ef < n {
		ef = n
	}
	vis := h.visited.Get().(*visitSet)
	collect := newTopN(n)
	h.searchLayer(q, ep, ef, 0, vis, false, nil, collect, exclude)
	h.visited.Put(vis)
	return collect.sorted()
}

// visitSet is an epoch-stamped visited marker: reset is O(1) by bumping
// the epoch, with a full clear only on the (practically unreachable)
// uint32 wraparound.
type visitSet struct {
	stamp []uint32
	epoch uint32
}

func (v *visitSet) reset() {
	v.epoch++
	if v.epoch == 0 {
		clear(v.stamp)
		v.epoch = 1
	}
}

func (v *visitSet) mark(n int32)        { v.stamp[n] = v.epoch }
func (v *visitSet) marked(n int32) bool { return v.stamp[n] == v.epoch }

// candQueue is a binary heap of candidates under an arbitrary "nearer the
// root" ordering — max-heap with better, min-heap with its inverse.
type candQueue struct {
	items []cand
	cmp   func(a, b cand) bool
}

func (h *candQueue) len() int   { return len(h.items) }
func (h *candQueue) peek() cand { return h.items[0] }

func (h *candQueue) push(c cand) {
	h.items = append(h.items, c)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.cmp(h.items[i], h.items[p]) {
			break
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		i = p
	}
}

func (h *candQueue) pop() cand {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < last && h.cmp(h.items[l], h.items[best]) {
			best = l
		}
		if r < last && h.cmp(h.items[r], h.items[best]) {
			best = r
		}
		if best == i {
			break
		}
		h.items[i], h.items[best] = h.items[best], h.items[i]
		i = best
	}
	return top
}

// sortCands orders candidates best-first (descending similarity, ties by
// ascending id).
func sortCands(cs []cand) {
	slices.SortFunc(cs, func(a, b cand) int {
		switch {
		case better(a, b):
			return -1
		case better(b, a):
			return 1
		}
		return 0
	})
}
