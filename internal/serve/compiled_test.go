package serve

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"seqfm/internal/ag"
	"seqfm/internal/core"
	"seqfm/internal/feature"
)

// TestCompiledGenerationMatchesTape pins the compiled serving engine against
// the ground truth at the public API: over a SeqFM model every generation
// serves through its plan, and its batch scores and top-K lists are
// bit-identical to a fresh-tape Score (refScore) per instance.
func TestCompiledGenerationMatchesTape(t *testing.T) {
	m := testModel(t)
	comp := NewEngine(m, Config{Workers: 3})
	defer comp.Close()

	if st := comp.Stats(); st.Engine != EngineCompiled {
		t.Fatalf("SeqFM engine serves %q, want compiled", st.Engine)
	}

	insts := testInstances(64, 3)
	// Two passes: the second is served from warm dynamic/static caches.
	for pass := 0; pass < 2; pass++ {
		cs := comp.ScoreBatch(insts)
		for i := range insts {
			if want := refScore(m, insts[i]); cs[i] != want {
				t.Fatalf("pass %d inst %d: compiled %v != fresh-tape ref %v", pass, i, cs[i], want)
			}
		}
	}

	base := feature.Instance{User: 3, Hist: []int{4, 9, 2}, UserAttr: feature.Pad, TargetAttr: feature.Pad}
	req := TopKRequest{Base: base, Candidates: []int{0, 5, 9, 14, 21, 28}, K: 4}
	var want []Item
	for _, o := range req.Candidates {
		inst := base
		inst.Target = o
		want = append(want, Item{Object: o, Score: refScore(m, inst)})
	}
	slices.SortFunc(want, compareItems)
	want = want[:req.K]
	if ck := comp.TopK(req); !slices.Equal(ck, want) {
		t.Fatalf("top-K: compiled %+v, fresh-tape ref %+v", ck, want)
	}
}

// scorerOnly hides the model's Spec and cached-scoring surface: the shape of
// a baseline model.
type scorerOnly struct{ m *core.Model }

func (s scorerOnly) Score(t *ag.Tape, inst feature.Instance) *ag.Node {
	return s.m.Score(t, inst)
}

// TestCompiledEngineFallsBackForPlainScorers pins the fallback: a model with
// no compilable spec serves through the tape, with identical results.
func TestCompiledEngineFallsBackForPlainScorers(t *testing.T) {
	m := testModel(t)
	e := NewEngine(scorerOnly{m}, Config{Workers: 2})
	defer e.Close()
	if st := e.Stats(); st.Engine != EngineTape {
		t.Fatalf("spec-less model reports engine %q, want tape fallback", st.Engine)
	}
	insts := testInstances(16, 5)
	for i, s := range e.ScoreBatch(insts) {
		if want := refScore(m, insts[i]); s != want {
			t.Fatalf("inst %d: fallback score %v != ref %v", i, s, want)
		}
	}
}

// TestCompiledTopKDuringSwapStorm is the satellite -race test: under a
// publisher storm, every TopKOn served by compiled generations must return
// scores bit-identical to a fresh tape pass over exactly the weights of the
// generation it reports — RCU swaps must never mix plan buffers or frozen
// projection tables across generations.
func TestCompiledTopKDuringSwapStorm(t *testing.T) {
	m := testModel(t)
	e := NewEngine(m, Config{Workers: 2})
	defer e.Close()
	if st := e.Stats(); st.Engine != EngineCompiled {
		t.Fatalf("storm engine serves %q, want compiled", st.Engine)
	}

	var mu sync.Mutex
	models := map[uint64]*core.Model{e.Generation(): m}

	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		cur := m
		for {
			select {
			case <-stop:
				return
			case <-time.After(200 * time.Microsecond):
			}
			next := cur.Clone()
			// Every weight moves, so a projected row surviving from an older
			// generation's tables would show up as a wrong score.
			for _, p := range next.Params() {
				for j := range p.Value.Data {
					p.Value.Data[j] += 1e-6
				}
			}
			mu.Lock()
			gen := e.Swap(next)
			models[gen] = next
			mu.Unlock()
			cur = next
		}
	}()

	var readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func(user int) {
			defer readers.Done()
			base := feature.Instance{User: user, Hist: []int{1, 2, 8}, UserAttr: feature.Pad, TargetAttr: feature.Pad}
			req := TopKRequest{Base: base, Candidates: []int{0, 3, 7, 11, 19, 23, 29}, K: 5}
			for i := 0; i < 30; i++ {
				items, gen := e.TopKOn(req)
				mu.Lock()
				gm := models[gen]
				mu.Unlock()
				if gm == nil {
					t.Errorf("served generation %d was never published", gen)
					return
				}
				for _, it := range items {
					inst := base
					inst.Target = it.Object
					if want := refScore(gm, inst); it.Score != want {
						t.Errorf("gen %d object %d: compiled served %v, want %v", gen, it.Object, it.Score, want)
						return
					}
				}
			}
		}(w)
	}
	readers.Wait()
	close(stop)
	swapper.Wait()
}

// TestSingleWorkerAlternatingUsers: with one worker every request of a
// generation may land on the same pooled Exec, whose cross-view memo then
// meets a new user and a new DynState on every request — two users taking
// turns over a shared candidate list, both caches warm after the first round.
// Every score must still be the fresh-tape one, bit for bit.
func TestSingleWorkerAlternatingUsers(t *testing.T) {
	m := testModel(t)
	e := NewEngine(m, Config{Workers: 1})
	defer e.Close()
	bases := []feature.Instance{
		{User: 3, Hist: []int{4, 9, 2}, UserAttr: feature.Pad, TargetAttr: feature.Pad},
		{User: 7, Hist: []int{1, 28, 5, 5, 17, 0, 3}, UserAttr: feature.Pad, TargetAttr: feature.Pad},
		{User: 3, Hist: nil, UserAttr: feature.Pad, TargetAttr: feature.Pad}, // the first user again, cold
	}
	candidates := make([]int, 30)
	for i := range candidates {
		candidates[i] = (i * 7) % 30
	}
	for round := 0; round < 3; round++ {
		for b, base := range bases {
			for _, it := range e.TopK(TopKRequest{Base: base, Candidates: candidates}) {
				inst := base
				inst.Target = it.Object
				if want := refScore(m, inst); it.Score != want {
					t.Fatalf("round %d base %d object %d: served %v, fresh tape %v", round, b, it.Object, it.Score, want)
				}
			}
		}
	}
	// Static-view probes are counted per batch, off the workers: 9 requests of
	// 30 candidates, of which each (user, candidate) pair missed twice — the
	// memo admits a view on its second miss (round 0 for user 3, whose third
	// base repeats the first's keys; round 1 for user 7).
	if st := e.Stats(); st.StaticHits+st.StaticMisses != 9*30 || st.StaticMisses != 2*2*30 {
		t.Fatalf("static cache counted %d hits, %d misses; want 270 probes, 120 misses", st.StaticHits, st.StaticMisses)
	}
}

// TestBestItemsMatchesFullSort holds the bounded-heap selection to the order
// contract — score descending, ties by object ascending — against sorting
// everything and truncating, over tie-heavy scores and every K.
func TestBestItemsMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 2, 7, 40} {
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{Object: i, Score: float64(rng.Intn(5))}
		}
		rng.Shuffle(n, func(i, j int) { items[i], items[j] = items[j], items[i] })
		want := slices.Clone(items)
		slices.SortFunc(want, compareItems)
		for k := -1; k <= n+1; k++ {
			keep := n
			if k > 0 && k < n {
				keep = k
			}
			if got := bestItems(slices.Clone(items), k); !slices.Equal(got, want[:keep]) {
				t.Fatalf("n=%d k=%d: got %v, want %v", n, k, got, want[:keep])
			}
		}
	}
}
