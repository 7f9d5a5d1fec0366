package index

// Flat is the exact-scan retriever: every query visits every stored
// vector. O(n·d) per search — the correctness oracle HNSW recall is
// measured against, and a perfectly good backend for catalogs small enough
// that the scan beats the graph's constant factors.
type Flat struct {
	store *Store
}

// NewFlat builds the exact scanner over s.
func NewFlat(s *Store) *Flat { return &Flat{store: s} }

// Len returns the number of indexed items.
func (f *Flat) Len() int { return f.store.Len() }

// Dim returns the vector dimensionality.
func (f *Flat) Dim() int { return f.store.Dim() }

// Backend identifies the implementation.
func (f *Flat) Backend() Backend { return BackendFlat }

// Search scans the whole store, keeping the best n non-excluded items in a
// bounded heap. Rows are scored a block at a time through Store.dots and
// offered in row order.
func (f *Flat) Search(query []float64, n int, exclude func(id int) bool) []Result {
	if n <= 0 || f.store.Len() == 0 {
		return nil
	}
	// More results than stored vectors cannot exist; clamping also caps
	// the heap allocation at O(Len) no matter what a caller (or a wire
	// request upstream) asks for.
	if n > f.store.Len() {
		n = f.store.Len()
	}
	q := normalizeQuery(query, f.store.dim)
	top := newTopN(n)
	var rows [64]int32
	var sims [64]float64
	k := 0
	flush := func() {
		f.store.dots(sims[:k], q, rows[:k])
		for j, r := range rows[:k] {
			top.offer(Result{ID: f.store.ID(int(r)), Score: sims[j]})
		}
		k = 0
	}
	for i := 0; i < f.store.Len(); i++ {
		if exclude != nil && exclude(f.store.ID(i)) {
			continue
		}
		rows[k] = int32(i)
		if k++; k == len(rows) {
			flush()
		}
	}
	flush()
	return top.sorted()
}

// topN keeps the best max results seen so far in a min-heap on (score,
// id): the root is the worst retained entry, so a new result either
// replaces it in O(log max) or is rejected in O(1). Ties order by
// descending id at the root — the worse of two equal-score entries is the
// higher id — matching sortResults' ascending-id preference.
type topN struct {
	max   int
	items []Result
}

func newTopN(max int) *topN { return &topN{max: max, items: make([]Result, 0, max)} }

// worseEq reports whether a ranks no better than b (a belongs nearer the
// heap root).
func worseEq(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.ID >= b.ID
}

// offer admits r if it beats the current worst retained result.
func (t *topN) offer(r Result) {
	if len(t.items) < t.max {
		t.items = append(t.items, r)
		i := len(t.items) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !worseEq(t.items[i], t.items[p]) {
				break
			}
			t.items[i], t.items[p] = t.items[p], t.items[i]
			i = p
		}
		return
	}
	if worseEq(r, t.items[0]) {
		return
	}
	t.items[0] = r
	t.fixRoot()
}

// fixRoot sifts a replaced root down to its heap position.
func (t *topN) fixRoot() {
	n := len(t.items)
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < n && worseEq(t.items[l], t.items[worst]) {
			worst = l
		}
		if r < n && worseEq(t.items[r], t.items[worst]) {
			worst = r
		}
		if worst == i {
			break
		}
		t.items[i], t.items[worst] = t.items[worst], t.items[i]
		i = worst
	}
}

// sorted returns the retained results best-first, consuming the heap.
func (t *topN) sorted() []Result {
	out := t.items
	t.items = nil
	sortResults(out)
	return out
}
