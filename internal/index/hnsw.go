package index

import (
	"math"
	"math/rand"
	"runtime"
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
// safe for unbounded concurrent Search calls; per-query scratch (an
// epoch-stamped visited set, the search heaps, the distance buffers) is
// pooled, so a warm search allocates only its query copy and its results.
//
// Every similarity is dot's, batched through Store.dots, and every ordering
// is better's, a strict total order over distinct nodes: a sequential build is
// a pure function of (store, Config) on every host, and so is a search of a
// given graph.
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

	scratches sync.Pool // *scratch, reused across queries
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
	h.scratches.New = func() any { return newScratch(s.Len(), cfg.M) }

	// Levels are pre-drawn from the seed so the layer structure is a pure
	// function of (Seed, n) no matter how many workers build the links. The
	// conversion keeps a fusing compiler (arm64) from folding Float64's
	// scaling into the subtraction.
	rng := rand.New(rand.NewSource(cfg.Seed))
	levels := make([]int, s.Len())
	for i := range levels {
		levels[i] = int(math.Floor(-math.Log(1-float64(rng.Float64())) * h.mL))
	}

	workers := cfg.BuildWorkers
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 || s.Len() < 2 {
		sc := newScratch(s.Len(), cfg.M)
		for i := 0; i < s.Len(); i++ {
			h.insert(int32(i), levels[i], sc, false)
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
			sc := newScratch(h.store.Len(), h.cfg.M)
			for {
				i := next.Add(1) - 1
				if i >= int64(h.store.Len()) {
					return
				}
				h.insert(int32(i), levels[i], sc, true)
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
// sc is the worker's scratch; locked selects the parallel-build locking
// discipline.
func (h *HNSW) insert(i int32, level int, sc *scratch, locked bool) {
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
	ep := cand{node: entry, sim: dot(q, h.store.vec(int(entry)))}
	for lc := maxLevel; lc > level; lc-- {
		ep = h.greedyClosest(q, ep, lc, locked, sc)
	}
	top := level
	if maxLevel < top {
		top = maxLevel
	}
	for lc := top; lc >= 0; lc-- {
		maxConn := h.cfg.M
		if lc == 0 {
			maxConn = 2 * h.cfg.M
		}
		found := h.searchLayer(q, ep, h.cfg.EfConstruction, lc, sc, locked, nil, nil)
		// Room for the link that triggers a shrink: the list never moves.
		neighbors := h.selectNeighbors(make([]int32, 0, maxConn+1), found, h.cfg.M, sc)
		if locked {
			// Once published, the list can be shrunk in place by a worker
			// linking to i: walk a copy taken before.
			own := append(sc.buf[:0], neighbors...)
			h.nodeLocks[i].Lock()
			h.links[i][lc] = neighbors
			h.nodeLocks[i].Unlock()
			neighbors = own
		} else {
			h.links[i][lc] = neighbors
		}
		for _, nb := range neighbors {
			if locked {
				h.nodeLocks[nb].Lock()
			}
			if lc < len(h.links[nb]) { // level may trail i's under races; skip then
				h.links[nb][lc] = append(h.links[nb][lc], i)
				if len(h.links[nb][lc]) > maxConn {
					h.shrink(nb, lc, maxConn, sc)
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
// vector, rewriting the list in place. In a parallel build the caller holds
// nb's lock.
func (h *HNSW) shrink(nb int32, lc, maxConn int, sc *scratch) {
	links := h.links[nb][lc]
	sims := sc.sims[:len(links)]
	h.store.dots(sims, h.store.vec(int(nb)), links)
	// Insertion sort, best first: 2M+1 elements at most, and better is a
	// strict total order, so the order is the one any sort gives.
	cands := sc.cands[:0]
	for k, n := range links {
		c := cand{node: n, sim: sims[k]}
		j := len(cands)
		cands = append(cands, c)
		for ; j > 0 && better(c, cands[j-1]); j-- {
			cands[j] = cands[j-1]
		}
		cands[j] = c
	}
	sc.cands = cands
	h.links[nb][lc] = h.selectNeighbors(links[:0], cands, maxConn, sc)
}

// selectNeighbors is the paper's Algorithm 4 with keepPrunedConnections: a
// candidate joins the neighbor set only if it is closer to the base vector
// than to every neighbor already selected; pruned candidates backfill any
// remaining slots in similarity order. cands must be sorted best-first, each
// sim its similarity to the base vector. The set is appended to dst[:0],
// which may be the list cands was read from.
func (h *HNSW) selectNeighbors(dst []int32, cands []cand, m int, sc *scratch) []int32 {
	out := dst[:0]
	if len(cands) <= m {
		for _, c := range cands {
			out = append(out, c.node)
		}
		return out
	}
	pruned := sc.pruned[:0]
	var sims [4]float64
	for _, c := range cands {
		if len(out) == m {
			break
		}
		// Four selected neighbors a pass, stopping at the first pass that
		// holds one nearer to c than the base is.
		cv := h.store.vec(int(c.node))
		diverse := true
		for j := 0; diverse && j < len(out); j += 4 {
			sel := out[j:min(j+4, len(out))]
			h.store.dots(sims[:], cv, sel)
			for _, sim := range sims[:len(sel)] {
				if sim > c.sim {
					diverse = false
					break
				}
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
	sc.pruned = pruned
	return out
}

// greedyClosest walks layer lc from ep to the local similarity maximum —
// the ef=1 descent through the upper layers (Algorithm 2 / Algorithm 5's
// zoom-in phase).
func (h *HNSW) greedyClosest(q []float64, ep cand, lc int, locked bool, sc *scratch) cand {
	for {
		nbs := h.neighbors(ep.node, lc, locked, sc.buf)
		sims := sc.sims[:len(nbs)]
		h.store.dots(sims, q, nbs)
		improved := false
		for k, nb := range nbs {
			if c := (cand{node: nb, sim: sims[k]}); better(c, ep) {
				ep, improved = c, true
			}
		}
		if !improved {
			return ep
		}
	}
}

// searchLayer is the best-first breadth-ef search of Algorithm 2,
// returning the up-to-ef nearest visited nodes sorted best-first, in sc's
// memory. When collect is non-nil, every visited node it admits (exclude
// returns false) is additionally offered to collect, and the beam is not
// returned — the query path uses this to gather filtered results without
// letting the filter distort the search frontier that decides termination.
func (h *HNSW) searchLayer(q []float64, ep cand, ef, lc int, sc *scratch, locked bool, collect *topN, exclude func(id int) bool) []cand {
	sc.reset()
	sc.mark(ep.node)
	front, beam := append(sc.front[:0], ep), append(sc.beam[:0], ep)
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
	for len(front) > 0 {
		c := front.pop()
		if len(beam) >= ef && better(beam[0], c) {
			break
		}
		// Mark the unvisited neighbors, score them in one call, then take
		// them in list order.
		fresh := sc.fresh[:0]
		for _, nb := range h.neighbors(c.node, lc, locked, sc.buf) {
			if !sc.marked(nb) {
				sc.mark(nb)
				fresh = append(fresh, nb)
			}
		}
		sc.fresh = fresh
		sims := sc.sims[:len(fresh)]
		h.store.dots(sims, q, fresh)
		for k, nb := range fresh {
			n := cand{node: nb, sim: sims[k]}
			switch {
			case len(beam) < ef:
				beam.push(n)
			case better(n, beam[0]):
				beam.replaceRoot(n)
			default:
				continue
			}
			front.push(n)
			offer(n)
		}
	}
	sc.front, sc.beam = front, beam
	if collect != nil {
		return nil
	}
	beam.sortBest()
	return beam
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
	sc := h.scratches.Get().(*scratch)
	ep := cand{node: h.entry, sim: dot(q, h.store.vec(int(h.entry)))}
	for lc := h.maxLevel; lc > 0; lc-- {
		ep = h.greedyClosest(q, ep, lc, false, sc)
	}
	ef := h.cfg.EfSearch
	if ef < n {
		ef = n
	}
	collect := newTopN(n)
	h.searchLayer(q, ep, ef, 0, sc, false, collect, exclude)
	h.scratches.Put(sc)
	return collect.sorted()
}

// scratch is one searcher's working memory, reused from search to search: a
// build worker owns one, queries take one from the pool. It holds the
// epoch-stamped visited set (reset is O(1) by bumping the epoch, with a full
// clear only on the practically unreachable uint32 wraparound), the two
// search heaps, and the buffers of one expansion step.
type scratch struct {
	stamp []uint32
	epoch uint32

	front  maxHeap
	beam   minHeap
	fresh  []int32   // the expanded node's unvisited neighbors
	sims   []float64 // similarities of fresh, of a greedy step's or a shrink's list
	buf    []int32   // a neighbor list copied under its node's lock, or before it is published
	cands  []cand    // shrink's candidates, sorted
	pruned []int32   // selectNeighbors' rejects
}

// newScratch sizes a scratch for n nodes and degree m: no neighbor list is
// longer than a base layer's 2m plus the link that triggers a shrink.
func newScratch(n, m int) *scratch {
	width := 2*m + 1
	return &scratch{
		stamp:  make([]uint32, n),
		fresh:  make([]int32, 0, width),
		sims:   make([]float64, width),
		buf:    make([]int32, width),
		cands:  make([]cand, 0, width),
		pruned: make([]int32, 0, width),
	}
}

func (v *scratch) reset() {
	v.epoch++
	if v.epoch == 0 {
		clear(v.stamp)
		v.epoch = 1
	}
}

func (v *scratch) mark(n int32)        { v.stamp[n] = v.epoch }
func (v *scratch) marked(n int32) bool { return v.stamp[n] == v.epoch }

// maxHeap is the search frontier: a binary heap whose root is the best
// candidate under better. better is a strict total order over distinct
// nodes, so the pop sequence does not depend on the heap's layout.
type maxHeap []cand

// The sifts below move a hole rather than swap: the moving candidate is
// written once, where it comes to rest.

func (h *maxHeap) push(c cand) {
	s := append(*h, c)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !better(c, s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = c
	*h = s
}

func (h *maxHeap) pop() cand {
	s := *h
	top, n := s[0], len(s)-1
	c, i := s[n], 0
	for {
		k := 2*i + 1 // the better child
		if k >= n {
			break
		}
		if k+1 < n && better(s[k+1], s[k]) {
			k++
		}
		if !better(s[k], c) {
			break
		}
		s[i] = s[k]
		i = k
	}
	s[i] = c
	*h = s[:n]
	return top
}

// minHeap is the search beam: the best candidates seen, in a binary heap
// whose root is the worst of them — the search's give-up bound.
type minHeap []cand

func (h *minHeap) push(c cand) {
	s := append(*h, c)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !better(s[p], c) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = c
	*h = s
}

// replaceRoot puts c, which must beat the root, in the worst one's place: the
// push-then-pop of a full beam in one sift.
func (h minHeap) replaceRoot(c cand) {
	h[0] = c
	h.down(0, len(h))
}

// down sifts h[i] toward the leaves of the heap h[:n].
func (h minHeap) down(i, n int) {
	c := h[i]
	for {
		k := 2*i + 1 // the worse child
		if k >= n {
			break
		}
		if k+1 < n && better(h[k], h[k+1]) {
			k++
		}
		if !better(c, h[k]) {
			break
		}
		h[i] = h[k]
		i = k
	}
	h[i] = c
}

// sortBest heap-sorts the beam in place, best first: each pass moves the
// worst remaining candidate behind the shrinking heap.
func (h minHeap) sortBest() {
	for n := len(h) - 1; n > 0; n-- {
		h[0], h[n] = h[n], h[0]
		h.down(0, n)
	}
}
