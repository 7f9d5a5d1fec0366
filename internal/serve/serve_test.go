package serve

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"seqfm/internal/ag"
	"seqfm/internal/core"
	"seqfm/internal/feature"
)

func testModel(t testing.TB) *core.Model {
	t.Helper()
	cfg := core.Config{
		Space:     feature.Space{NumUsers: 12, NumObjects: 30},
		Dim:       8,
		Layers:    1,
		MaxSeqLen: 6,
		KeepProb:  1,
		Seed:      5,
	}
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// refScore is the ground truth: a fresh inference tape per instance.
func refScore(m Scorer, inst feature.Instance) float64 {
	return m.Score(ag.NewTape(), inst).Value.ScalarValue()
}

func testInstances(n int, seed int64) []feature.Instance {
	rng := rand.New(rand.NewSource(seed))
	insts := make([]feature.Instance, n)
	for i := range insts {
		hist := make([]int, rng.Intn(9))
		for j := range hist {
			hist[j] = rng.Intn(30)
		}
		insts[i] = feature.Instance{
			User:       rng.Intn(12),
			Target:     rng.Intn(30),
			Hist:       hist,
			UserAttr:   feature.Pad,
			TargetAttr: feature.Pad,
		}
	}
	return insts
}

func TestScoreBatchMatchesScoreBitForBit(t *testing.T) {
	m := testModel(t)
	e := NewEngine(m, Config{Workers: 3})
	defer e.Close()
	insts := testInstances(64, 1)
	// Run twice: the second pass is served from warm caches and must not
	// drift by a single bit.
	for pass := 0; pass < 2; pass++ {
		got := e.ScoreBatch(insts)
		for i, inst := range insts {
			if want := refScore(m, inst); got[i] != want {
				t.Fatalf("pass %d inst %d: ScoreBatch=%v, Score=%v", pass, i, got[i], want)
			}
		}
	}
	if s := e.Stats(); s.StaticHits == 0 || s.DynHits == 0 {
		t.Errorf("warm pass produced no cache hits: %+v", s)
	}
}

// plainScorer hides core.Model's Spec and cached-scoring methods so the engine
// exercises its generic (cache-less) path — the one every baseline model takes.
type plainScorer struct{ m *core.Model }

func (p plainScorer) Score(t *ag.Tape, inst feature.Instance) *ag.Node {
	return p.m.Score(t, inst)
}

func TestScoreBatchGenericScorerPath(t *testing.T) {
	m := testModel(t)
	e := NewEngine(plainScorer{m}, Config{Workers: 2})
	defer e.Close()
	insts := testInstances(16, 2)
	got := e.ScoreBatch(insts)
	for i, inst := range insts {
		if want := refScore(m, inst); got[i] != want {
			t.Fatalf("inst %d: generic ScoreBatch=%v, Score=%v", i, got[i], want)
		}
	}
	if s := e.Stats(); s.DynMisses != 0 || s.StaticMisses != 0 {
		t.Errorf("generic path touched the fast caches: %+v", s)
	}
}

func TestTopKOrderingAndTruncation(t *testing.T) {
	m := testModel(t)
	e := NewEngine(m, Config{})
	defer e.Close()
	base := feature.Instance{User: 3, Hist: []int{1, 2, 3}, UserAttr: feature.Pad, TargetAttr: feature.Pad}
	candidates := make([]int, 30)
	for i := range candidates {
		candidates[i] = i
	}
	all := e.TopK(TopKRequest{Base: base, Candidates: candidates})
	if len(all) != len(candidates) {
		t.Fatalf("K<=0 returned %d items, want %d", len(all), len(candidates))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Score < all[i].Score {
			t.Fatalf("items out of order at %d: %v then %v", i, all[i-1], all[i])
		}
	}
	top5 := e.TopK(TopKRequest{Base: base, Candidates: candidates, K: 5})
	if len(top5) != 5 {
		t.Fatalf("K=5 returned %d items", len(top5))
	}
	for i, it := range top5 {
		if it != all[i] {
			t.Fatalf("top5[%d]=%v, want %v", i, it, all[i])
		}
	}
	// Every score must match the per-instance reference.
	for _, it := range all {
		inst := base
		inst.Target = it.Object
		if want := refScore(m, inst); it.Score != want {
			t.Fatalf("object %d: TopK score=%v, Score=%v", it.Object, it.Score, want)
		}
	}
}

func TestTopKAttrOf(t *testing.T) {
	cfg := core.Config{
		Space:     feature.Space{NumUsers: 4, NumObjects: 10, NumItemAttrs: 3},
		Dim:       6,
		Layers:    1,
		MaxSeqLen: 4,
		KeepProb:  1,
		Seed:      6,
	}
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	attr := func(o int) int { return o % 3 }
	e := NewEngine(m, Config{})
	defer e.Close()
	base := feature.Instance{User: 1, Hist: []int{4, 5}, UserAttr: feature.Pad}
	items := e.TopK(TopKRequest{Base: base, Candidates: []int{0, 1, 2, 7}, AttrOf: attr})
	for _, it := range items {
		inst := base
		inst.Target = it.Object
		inst.TargetAttr = attr(it.Object)
		if want := refScore(m, inst); it.Score != want {
			t.Fatalf("object %d: score=%v, want %v (AttrOf ignored?)", it.Object, it.Score, want)
		}
	}
}

func TestConcurrentMixedTraffic(t *testing.T) {
	// Race-detector workout: batches, top-K and singles in flight at once,
	// all hitting the shared caches and tape pool.
	m := testModel(t)
	e := NewEngine(m, Config{Workers: 4})
	defer e.Close()
	insts := testInstances(24, 6)
	want := make([]float64, len(insts))
	for i, inst := range insts {
		want[i] = refScore(m, inst)
	}
	candidates := []int{0, 3, 7, 11, 19}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 5; r++ {
				switch (g + r) % 3 {
				case 0:
					got := e.ScoreBatch(insts)
					for i := range insts {
						if got[i] != want[i] {
							t.Errorf("batch inst %d: %v != %v", i, got[i], want[i])
							return
						}
					}
				case 1:
					base := insts[(g+r)%len(insts)]
					e.TopK(TopKRequest{Base: base, Candidates: candidates, K: 3})
				default:
					i := (g * 5) % len(insts)
					if got := e.ScoreBatch(insts[i : i+1])[0]; got != want[i] {
						t.Errorf("single inst %d: %v != %v", i, got, want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestInvalidateCachesAfterWeightUpdate: a weight update reaches serving by
// publishing a retrained clone, and that one publish path both drops the old
// generation's caches and does the bookkeeping every publish owes — the
// swap is timed and the outgoing score sketch is retired for drift.
func TestInvalidateCachesAfterWeightUpdate(t *testing.T) {
	m := testModel(t)
	e := NewEngine(m, Config{})
	defer e.Close()
	insts := testInstances(8, 7)
	rank := TopKRequest{Base: insts[0], Candidates: []int{0, 3, 5, 9}, K: 2}
	e.ScoreBatch(insts)
	e.TopK(rank)
	if s := e.Stats(); s.StaticEntries == 0 || s.DynEntries == 0 {
		t.Fatalf("caches empty after a batch: %+v", s)
	}
	m2 := m.Clone()
	for _, p := range m2.Params() {
		for j := range p.Value.Data {
			p.Value.Data[j] += 0.01 * float64(1+j%5)
		}
	}
	gen := e.Swap(m2)
	if s := e.Stats(); s.StaticEntries != 0 || s.DynEntries != 0 {
		t.Fatalf("weight update left cache entries: %+v", s)
	}
	if n := e.SwapLatency().Count(); n != 1 {
		t.Fatalf("swap histogram holds %d publishes, want 1", n)
	}
	got := e.ScoreBatch(insts)
	for i, inst := range insts {
		if want := refScore(m2, inst); got[i] != want {
			t.Fatalf("inst %d after weight update: %v != %v", i, got[i], want)
		}
	}
	e.TopK(rank)
	if d := e.ScoreDrift(); !d.Known || d.CurrentGen != gen || d.PrevGen != gen-1 {
		t.Fatalf("outgoing generation's sketch not retired: %+v", d)
	}
}

func TestCachesDisabled(t *testing.T) {
	m := testModel(t)
	e := NewEngine(m, Config{StaticCacheSize: -1, DynCacheSize: -1})
	defer e.Close()
	insts := testInstances(8, 8)
	// Three passes: an enabled memo would have admitted every view by the
	// second and served it on the third.
	for pass := 0; pass < 3; pass++ {
		got := e.ScoreBatch(insts)
		for i, inst := range insts {
			if want := refScore(m, inst); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("pass %d inst %d: %v != %v", pass, i, got[i], want)
			}
		}
	}
	if s := e.Stats(); s.StaticEntries != 0 || s.DynEntries != 0 || s.StaticHits != 0 || s.StaticMisses != 3*8 {
		t.Errorf("disabled caches stored entries: %+v", s)
	}
	if e.cur.Load().statics != nil {
		t.Error("a negative StaticCacheSize built a static-view memo")
	}
}

func TestNilCachesAreMissing(t *testing.T) {
	var l *lruCache[int, int]
	for _, c := range []*lruCache[int, int]{l, newLruCache[int, int](-1)} {
		if _, ok := c.get(1); ok {
			t.Error("nil cache returned a hit")
		}
		c.put(1, 1) // must not panic
		c.admit(2, 2)
		c.admit(2, 2)
		if c.len() != 0 {
			t.Error("nil cache has entries")
		}
	}
}

// TestLruCacheAdmitOnSecondMiss pins the doorkeeper: a key enters on its
// second admit, seen never holds more than max keys, and a full seen-set is
// cleared, forgetting the keys that had missed once.
func TestLruCacheAdmitOnSecondMiss(t *testing.T) {
	c := newLruCache[int, int](3)
	c.admit(1, 10)
	if _, ok := c.get(1); ok || c.len() != 0 || len(c.seen) != 1 {
		t.Fatalf("first miss was cached: len=%d seen=%d", c.len(), len(c.seen))
	}
	c.admit(1, 10)
	if v, ok := c.get(1); !ok || v != 10 || len(c.seen) != 0 {
		t.Fatalf("second miss not admitted (hit=%v v=%d) or still in seen (%d)", ok, v, len(c.seen))
	}
	c.admit(1, 11) // cached already: replaces, as put does
	if v, _ := c.get(1); v != 11 || len(c.seen) != 0 {
		t.Fatalf("re-admit of a cached key: v=%d seen=%d", v, len(c.seen))
	}
	for k := 2; k <= 4; k++ {
		c.admit(k, k)
	}
	if len(c.seen) != 3 || c.len() != 1 {
		t.Fatalf("three first misses: seen=%d len=%d, want 3 and 1", len(c.seen), c.len())
	}
	c.admit(5, 5) // seen is full: cleared, then 5 recorded
	if len(c.seen) != 1 {
		t.Fatalf("full seen-set not cleared: %d keys", len(c.seen))
	}
	c.admit(2, 2) // forgotten by the clear: a first miss again
	if _, ok := c.get(2); ok {
		t.Fatal("a key the clear forgot was admitted on one more miss")
	}
	c.admit(5, 5)
	if _, ok := c.get(5); !ok {
		t.Fatal("a key seen since the clear was not admitted")
	}
}

func TestLruCacheTouchOnHitKeepsHotEntries(t *testing.T) {
	c := newLruCache[int, int](2)
	c.put(1, 10)
	c.put(2, 20)
	c.get(1)     // touch: 2 becomes the eviction candidate
	c.put(3, 30) // evicts 2, not 1
	if _, ok := c.get(1); !ok {
		t.Error("hot entry evicted despite touch-on-hit")
	}
	if _, ok := c.get(2); ok {
		t.Error("cold entry survived")
	}
	if v, ok := c.get(3); !ok || v != 30 {
		t.Error("newest entry lost")
	}
	// Re-put promotes and replaces without growing.
	c.put(1, 11)
	if v, _ := c.get(1); v != 11 {
		t.Error("re-put did not replace value")
	}
	if c.len() != 2 {
		t.Errorf("len=%d, want 2", c.len())
	}
}

// perturb nudges the global bias w0 (Params()[0]) so successive generations
// score every instance differently.
func perturb(m *core.Model, step int) {
	m.Params()[0].Value.Data[0] += 0.25 + float64(step)*0.01
}

func TestSwapPublishesNewWeights(t *testing.T) {
	m := testModel(t)
	e := NewEngine(m, Config{})
	defer e.Close()
	if e.Generation() != 1 {
		t.Fatalf("fresh engine at generation %d", e.Generation())
	}
	inst := testInstances(1, 10)[0]
	before := e.ScoreBatch([]feature.Instance{inst})[0]

	m2 := m.Clone()
	perturb(m2, 0)
	gen := e.Swap(m2)
	if gen != 2 || e.Generation() != 2 {
		t.Fatalf("generation after swap: %d/%d", gen, e.Generation())
	}
	after := e.ScoreBatch([]feature.Instance{inst})[0]
	if want := refScore(m2, inst); after != want {
		t.Fatalf("post-swap score %v, want %v", after, want)
	}
	if after == before {
		t.Fatal("swap did not change served weights")
	}
	if got := e.Model(); got != Scorer(m2) {
		t.Fatal("Model() is not the swapped model")
	}
	if s := e.Stats(); s.Swaps != 1 || s.Generation != 2 {
		t.Fatalf("stats after swap: %+v", s)
	}
}

// TestSwapDropsCachesPerGeneration: entries cached under one generation must
// never serve another — the caches live inside the snapshot.
func TestSwapDropsCachesPerGeneration(t *testing.T) {
	m := testModel(t)
	e := NewEngine(m, Config{})
	defer e.Close()
	insts := testInstances(8, 11)
	// Twice: the static-view memo admits a view on its second miss.
	e.ScoreBatch(insts)
	e.ScoreBatch(insts)
	if s := e.Stats(); s.StaticEntries != distinctStaticKeys(insts) || s.DynEntries == 0 {
		t.Fatalf("caches not warm after two batches: %+v", s)
	}
	// Perturb every weight of the clone, not just w0: the new generation's
	// frozen plan must table its own projected embedding rows, and nothing
	// the old generation memoised or tabled may serve it.
	m2 := m.Clone()
	for _, p := range m2.Params() {
		for j := range p.Value.Data {
			p.Value.Data[j] += 0.01 * float64(1+j%5)
		}
	}
	e.Swap(m2)
	if s := e.Stats(); s.StaticEntries != 0 || s.DynEntries != 0 {
		t.Fatalf("swap leaked cache entries into the new generation: %+v", s)
	}
	got := e.ScoreBatch(insts)
	for i, inst := range insts {
		if want := refScore(m2, inst); got[i] != want {
			t.Fatalf("inst %d served stale generation: %v != %v", i, got[i], want)
		}
	}
}

// distinctStaticKeys counts the static-view keys among insts.
func distinctStaticKeys(insts []feature.Instance) int {
	keys := make(map[staticKey]struct{}, len(insts))
	for _, inst := range insts {
		keys[staticKeyOf(inst)] = struct{}{}
	}
	return len(keys)
}

// topKBitExact ranks cands for base and fails unless every served score is
// the fresh-tape one, bit for bit.
func topKBitExact(t *testing.T, e *Engine, m Scorer, base feature.Instance, cands []int) {
	t.Helper()
	items := e.TopK(TopKRequest{Base: base, Candidates: cands})
	if len(items) != len(cands) {
		t.Fatalf("user %d: %d items for %d candidates", base.User, len(items), len(cands))
	}
	for _, it := range items {
		inst := base
		inst.Target = it.Object
		if want := refScore(m, inst); math.Float64bits(it.Score) != math.Float64bits(want) {
			t.Fatalf("user %d object %d: served %v, fresh tape %v", base.User, it.Object, it.Score, want)
		}
	}
}

func allObjects() []int {
	cands := make([]int, 30)
	for i := range cands {
		cands[i] = i
	}
	return cands
}

// TestStaticMemoSkipsOneShotUsers: a stream of users each seen once — the
// cold-start shape — never repeats a static-view key, so the memo stays
// empty and every probe misses.
func TestStaticMemoSkipsOneShotUsers(t *testing.T) {
	m := testModel(t)
	e := NewEngine(m, Config{Workers: 2})
	defer e.Close()
	cands := allObjects()
	for u := 0; u < 12; u++ {
		topKBitExact(t, e, m, feature.Instance{User: u, Hist: []int{u, 2 * u}, UserAttr: feature.Pad, TargetAttr: feature.Pad}, cands)
	}
	if st := e.Stats(); st.StaticEntries != 0 || st.StaticHits != 0 || st.StaticMisses != 12*30 {
		t.Fatalf("one-shot users: %d entries, %d hits, %d misses; want 0, 0, %d", st.StaticEntries, st.StaticHits, st.StaticMisses, 12*30)
	}
}

// TestStaticMemoRepeatedContextsMissTwice: a context asked for again misses
// exactly twice per key, then hits on every later request.
func TestStaticMemoRepeatedContextsMissTwice(t *testing.T) {
	m := testModel(t)
	e := NewEngine(m, Config{Workers: 2})
	defer e.Close()
	cands := allObjects()
	bases := []feature.Instance{
		{User: 2, Hist: []int{4, 9}, UserAttr: feature.Pad, TargetAttr: feature.Pad},
		{User: 5, Hist: []int{1, 1, 7}, UserAttr: feature.Pad, TargetAttr: feature.Pad},
	}
	for pass := 1; pass <= 4; pass++ {
		for _, b := range bases {
			topKBitExact(t, e, m, b, cands)
		}
		misses := min(pass, 2) * len(bases) * len(cands)
		entries := 0
		if pass >= 2 {
			entries = len(bases) * len(cands)
		}
		if st := e.Stats(); st.StaticMisses != int64(misses) || st.StaticHits != int64(pass*len(bases)*len(cands)-misses) || st.StaticEntries != entries {
			t.Fatalf("pass %d: %d misses, %d hits, %d entries; want %d misses, %d entries", pass, st.StaticMisses, st.StaticHits, st.StaticEntries, misses, entries)
		}
	}
}

// TestStaticSeenSetBounded: the seen-set holds at most StaticCacheSize keys
// however many one-shot keys stream through, and is cleared when full.
func TestStaticSeenSetBounded(t *testing.T) {
	m := testModel(t)
	const size = 16
	e := NewEngine(m, Config{Workers: 2, StaticCacheSize: size})
	defer e.Close()
	cands := allObjects()[:7] // 7 keys a request: the seen-set fills mid-batch
	cleared := false
	prev := 0
	for u := 0; u < 12; u++ {
		topKBitExact(t, e, m, feature.Instance{User: u, UserAttr: feature.Pad, TargetAttr: feature.Pad}, cands)
		n := len(e.cur.Load().statics.seen)
		if n > size {
			t.Fatalf("user %d: seen-set holds %d keys, bound %d", u, n, size)
		}
		cleared = cleared || n < prev
		prev = n
	}
	if !cleared {
		t.Fatal("the seen-set never cleared")
	}
	if st := e.Stats(); st.StaticEntries != 0 {
		t.Fatalf("one-shot keys entered the memo: %d entries", st.StaticEntries)
	}
}

// TestSwapDropsStaticSeenSet: the seen-set is part of the generation, so a
// key's first miss under the old weights does not count towards admission
// under the new ones.
func TestSwapDropsStaticSeenSet(t *testing.T) {
	m := testModel(t)
	e := NewEngine(m, Config{Workers: 2})
	defer e.Close()
	base := feature.Instance{User: 4, Hist: []int{3, 8}, UserAttr: feature.Pad, TargetAttr: feature.Pad}
	cands := allObjects()
	topKBitExact(t, e, m, base, cands)
	if n := len(e.cur.Load().statics.seen); n != len(cands) {
		t.Fatalf("seen-set holds %d keys after one request, want %d", n, len(cands))
	}
	m2 := m.Clone()
	perturb(m2, 0)
	e.Swap(m2)
	if n := len(e.cur.Load().statics.seen); n != 0 {
		t.Fatalf("swap kept %d seen keys", n)
	}
	topKBitExact(t, e, m2, base, cands)
	if st := e.Stats(); st.StaticEntries != 0 {
		t.Fatalf("a first miss under the new generation was admitted: %d entries", st.StaticEntries)
	}
	topKBitExact(t, e, m2, base, cands)
	if st := e.Stats(); st.StaticEntries != len(cands) {
		t.Fatalf("second miss under the new generation: %d entries, want %d", st.StaticEntries, len(cands))
	}
	topKBitExact(t, e, m2, base, cands)
}

// TestHotSwapUnderLoadBitIdentical is the serving half of the hot-swap
// stress contract (the online package adds the trainer): goroutines hammer
// TopKOn while another goroutine swaps perturbed clones, and every response
// must be bit-identical to a fresh-tape Score under the generation that
// served it. Run with -race.
func TestHotSwapUnderLoadBitIdentical(t *testing.T) {
	m := testModel(t)
	e := NewEngine(m, Config{Workers: 2})
	defer e.Close()

	var models sync.Map // generation id → *core.Model
	models.Store(e.Generation(), m)

	const swapsTotal = 12
	stop := make(chan struct{})
	var swapperDone sync.WaitGroup
	swapperDone.Add(1)
	go func() {
		defer swapperDone.Done()
		cur := m
		for i := 1; i <= swapsTotal; i++ {
			next := cur.Clone()
			perturb(next, i)
			// Register before publishing so readers can always resolve the
			// generation they observe.
			models.Store(e.Generation()+1, next)
			e.Swap(next)
			cur = next
			select {
			case <-stop:
				return
			case <-time.After(200 * time.Microsecond):
			}
		}
	}()

	base := feature.Instance{User: 2, Hist: []int{3, 1, 4}, UserAttr: feature.Pad, TargetAttr: feature.Pad}
	candidates := []int{0, 5, 9, 14, 21, 28}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 40; r++ {
				items, gen := e.TopKOn(TopKRequest{Base: base, Candidates: candidates})
				mv, ok := models.Load(gen)
				if !ok {
					t.Errorf("response from unregistered generation %d", gen)
					return
				}
				served := mv.(*core.Model)
				for _, it := range items {
					inst := base
					inst.Target = it.Object
					if want := refScore(served, inst); it.Score != want {
						t.Errorf("gen %d object %d: served %v, fresh-tape %v", gen, it.Object, it.Score, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	swapperDone.Wait()
}

func TestHistKeyUnambiguous(t *testing.T) {
	keys := map[string][]int{}
	for _, h := range [][]int{
		{}, {0}, {1}, {0, 0}, {1, 2}, {12}, {1, 2, 3}, {-1}, {128}, {16384},
	} {
		k := histKey(h)
		if prev, ok := keys[k]; ok {
			t.Fatalf("collision: %v and %v share key %q", prev, h, k)
		}
		keys[k] = h
	}
}

// TestSwapAsAlignsGenerationIds pins the replication-side publish contract:
// an externally assigned generation id is installed exactly when it advances
// the counter, ids stay strictly monotonic, and the swapped model serves the
// same bit-exact scores as any other generation.
func TestSwapAsAlignsGenerationIds(t *testing.T) {
	m := testModel(t)
	eng := NewEngine(m, Config{Workers: 1})
	defer eng.Close()
	if g := eng.Generation(); g != 1 {
		t.Fatalf("boot generation %d", g)
	}
	// Jump forward to a primary-assigned id.
	if got := eng.SwapAs(m.Clone(), 17); got != 17 || eng.Generation() != 17 {
		t.Fatalf("SwapAs(17) installed %d (engine at %d)", got, eng.Generation())
	}
	// The immediate successor lands exactly.
	if got := eng.SwapAs(m.Clone(), 18); got != 18 {
		t.Fatalf("SwapAs(18) installed %d", got)
	}
	// A stale or duplicate id falls back to the next sequential one.
	if got := eng.SwapAs(m.Clone(), 5); got != 19 {
		t.Fatalf("SwapAs(5) installed %d, want sequential 19", got)
	}
	if got := eng.Swap(m.Clone()); got != 20 {
		t.Fatalf("Swap after SwapAs installed %d, want 20", got)
	}
	inst := testInstances(1, 99)[0]
	if got, want := eng.ScoreBatch([]feature.Instance{inst})[0], refScore(m, inst); got != want {
		t.Fatalf("served %v != fresh-tape %v after SwapAs chain", got, want)
	}
}
