package online

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"

	"seqfm/internal/ag"
	"seqfm/internal/core"
	"seqfm/internal/data"
	"seqfm/internal/feature"
	"seqfm/internal/serve"
	"seqfm/internal/train"
)

// testDataset builds a small ranking dataset with deterministic logs.
func testDataset(t testing.TB) *data.Dataset {
	t.Helper()
	d := &data.Dataset{Name: "online-test", Task: data.Ranking, NumUsers: 10, NumObjects: 24}
	d.Users = make([][]data.Interaction, d.NumUsers)
	for u := 0; u < d.NumUsers; u++ {
		for i := 0; i < 5; i++ {
			d.Users[u] = append(d.Users[u], data.Interaction{
				Object: (u*3 + i*5) % d.NumObjects, Rating: 1, Time: int64(i),
			})
		}
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

func testModel(t testing.TB, ds *data.Dataset, keepProb float64) *core.Model {
	t.Helper()
	cfg := core.Config{Space: ds.Space(), Dim: 6, Layers: 1, MaxSeqLen: 4,
		KeepProb: keepProb, Seed: 11}
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func refScore(m *core.Model, inst feature.Instance) float64 {
	return m.Score(ag.NewTape(), inst).Value.ScalarValue()
}

func TestIngestExtendsHistoryAndQueuesSupervision(t *testing.T) {
	ds := testDataset(t)
	m := testModel(t, ds, 1)
	eng := serve.NewEngine(m.Clone(), serve.Config{Workers: 1})
	defer eng.Close()
	l, err := NewLearner(m, ds, eng, Config{HistoryLen: 6})
	if err != nil {
		t.Fatal(err)
	}

	before := l.History(3)
	if len(before) == 0 {
		t.Fatal("history not seeded from the dataset")
	}
	if err := l.Ingest(3, 17, 1); err != nil {
		t.Fatal(err)
	}
	after := l.History(3)
	if after[len(after)-1] != 17 {
		t.Fatalf("ingested object not appended: %v", after)
	}
	if len(after) > 6 {
		t.Fatalf("history exceeds bound: %d", len(after))
	}
	// The queued instance must carry the pre-ingest history.
	l.mu.Lock()
	inst := l.pending[l.head].inst
	l.mu.Unlock()
	if inst.Target != 17 || inst.User != 3 {
		t.Fatalf("queued instance %+v", inst)
	}
	if len(inst.Hist) != len(before) {
		t.Fatalf("queued history has %d entries, want pre-ingest %d", len(inst.Hist), len(before))
	}
	for i := range before {
		if inst.Hist[i] != before[i] {
			t.Fatalf("queued history mutated: %v vs %v", inst.Hist, before)
		}
	}

	if err := l.Ingest(99, 0, 1); err == nil {
		t.Fatal("out-of-range user accepted")
	}
	if err := l.Ingest(0, 99, 1); err == nil {
		t.Fatal("out-of-range object accepted")
	}
}

// TestRecommendUsesLiveHistoryAndRebuiltIndex wires the learner to an
// index-enabled engine: Recommend must exclude just-ingested objects (live
// history, not the frozen log), and a Sync-published generation must carry
// a freshly built index of the same generation.
func TestRecommendUsesLiveHistoryAndRebuiltIndex(t *testing.T) {
	ds := testDataset(t)
	m := testModel(t, ds, 1)
	eng := serve.NewEngine(m.Clone(), serve.Config{
		Workers: 1,
		Index:   &serve.IndexConfig{Objects: ds.Objects()},
	})
	defer eng.Close()
	l, err := NewLearner(m, ds, eng, Config{BatchSize: 4, Train: train.Config{LR: 1e-3, Workers: 1, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}

	const novel = 23
	if err := l.Ingest(2, novel, 1); err != nil {
		t.Fatal(err)
	}
	items, err := l.Recommend(2, 0, ds.NumObjects) // full depth: every unseen object
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, o := range l.History(2) {
		seen[o] = true
	}
	if !seen[novel] {
		t.Fatal("ingested object missing from live history")
	}
	if want := ds.NumObjects - len(seen); len(items) != want {
		t.Fatalf("got %d items, want %d (catalog minus live-seen)", len(items), want)
	}
	for _, it := range items {
		if seen[it.Object] {
			t.Fatalf("live-seen object %d was recommended", it.Object)
		}
	}

	genBefore := eng.Generation()
	if n, _ := l.Sync(); n == 0 {
		t.Fatal("Sync trained nothing")
	}
	if eng.Generation() == genBefore {
		t.Fatal("Sync did not publish a new generation")
	}
	res, err := eng.RecommendOn(serve.RecommendRequest{
		Base: feature.Instance{User: 2, Hist: l.History(2), UserAttr: feature.Pad, TargetAttr: feature.Pad},
		K:    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation != eng.Generation() || res.IndexGeneration != res.Generation {
		t.Fatalf("published generation %d served model gen %d / index gen %d",
			eng.Generation(), res.Generation, res.IndexGeneration)
	}

	if _, err := l.Recommend(99, 5, 0); err == nil {
		t.Fatal("out-of-range user accepted")
	}
}

// TestRecommendExcludesInteractionsOlderThanHistoryBound pins the
// exclusion contract for long-history users: HistoryLen bounds the
// dynamic view, not the seen set — an object that aged out of the live
// history must still never be recommended back.
func TestRecommendExcludesInteractionsOlderThanHistoryBound(t *testing.T) {
	ds := testDataset(t)
	m := testModel(t, ds, 1)
	eng := serve.NewEngine(m.Clone(), serve.Config{
		Workers: 1,
		Index:   &serve.IndexConfig{Objects: ds.Objects()},
	})
	defer eng.Close()
	l, err := NewLearner(m, ds, eng, Config{HistoryLen: 3, Train: train.Config{LR: 1e-3, Workers: 1, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// User 2's frozen log starts with object 6; HistoryLen 3 keeps only
	// the last 3 interactions, so 6 is not in the live history.
	first := ds.Users[2][0].Object
	live := map[int]bool{}
	for _, o := range l.History(2) {
		live[o] = true
	}
	if live[first] {
		t.Fatalf("precondition: object %d should have aged out of the bounded history", first)
	}
	items, err := l.Recommend(2, 0, ds.NumObjects)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if it.Object == first {
			t.Fatalf("object %d from beyond the history bound was recommended back", first)
		}
	}
	if n := l.SeenCount(2); n != len(ds.Users[2]) {
		t.Fatalf("SeenCount = %d, want the full %d-interaction log", n, len(ds.Users[2]))
	}
	if !l.Seen(2, first) {
		t.Fatalf("Seen(2, %d) = false for a logged interaction", first)
	}

	// Pending (untrained) events must be excluded even after they age out
	// of the 3-entry live history — the seen index records them at ingest,
	// not at training.
	burst := []int{7, 12, 17, 22, 9}
	for _, o := range burst {
		if err := l.Ingest(2, o, 1); err != nil {
			t.Fatal(err)
		}
	}
	items, err = l.Recommend(2, 0, ds.NumObjects)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		for _, o := range burst {
			if it.Object == o {
				t.Fatalf("pending event object %d (aged out of the bounded history, never trained) was recommended back", o)
			}
		}
	}
}

func TestMaxPendingDropsOldest(t *testing.T) {
	ds := testDataset(t)
	m := testModel(t, ds, 1)
	eng := serve.NewEngine(m.Clone(), serve.Config{Workers: 1})
	defer eng.Close()
	l, err := NewLearner(m, ds, eng, Config{MaxPending: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := l.Ingest(i%ds.NumUsers, i%ds.NumObjects, 1); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Pending != 4 || st.Dropped != 6 || st.Ingested != 10 {
		t.Fatalf("stats %+v", st)
	}
	l.mu.Lock()
	oldest := l.pending[l.head].inst.Target
	l.mu.Unlock()
	if oldest != 6%ds.NumObjects {
		t.Fatalf("queue kept the wrong tail: oldest target %d", oldest)
	}
}

func TestSyncTrainsAndPublishes(t *testing.T) {
	ds := testDataset(t)
	m := testModel(t, ds, 1)
	eng := serve.NewEngine(m.Clone(), serve.Config{Workers: 1})
	defer eng.Close()
	l, err := NewLearner(m, ds, eng, Config{
		Train:     train.Config{Seed: 3, Workers: 1, LR: 0.05, Negatives: 2},
		BatchSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen0 := eng.Generation()
	inst := feature.Instance{User: 1, Target: 2, Hist: []int{3, 4}, UserAttr: feature.Pad, TargetAttr: feature.Pad}
	before := eng.ScoreBatch([]feature.Instance{inst})[0]

	for i := 0; i < 20; i++ {
		if err := l.Ingest(i%ds.NumUsers, (i*7)%ds.NumObjects, 1); err != nil {
			t.Fatal(err)
		}
	}
	events, _ := l.Sync()
	if events != 20 {
		t.Fatalf("Sync trained on %d events", events)
	}
	st := l.Stats()
	if st.Steps != 3 { // ceil(20/8)
		t.Fatalf("steps %d, want 3", st.Steps)
	}
	if st.Swaps != 1 || eng.Generation() != gen0+1 {
		t.Fatalf("publish missing: %+v gen=%d", st, eng.Generation())
	}
	after := eng.ScoreBatch([]feature.Instance{inst})[0]
	if after == before {
		t.Fatal("fine-tuning left served weights untouched")
	}
	// The engine serves a clone: further fine-tuning must not leak into the
	// published generation.
	published := eng.Model().(*core.Model)
	snap := refScore(published, inst)
	for i := 0; i < 8; i++ {
		_ = l.Ingest(i%ds.NumUsers, (i*5)%ds.NumObjects, 1)
	}
	l.trainMu.Lock()
	l.stepBatch(l.drain(8))
	l.trainMu.Unlock()
	if got := refScore(published, inst); got != snap {
		t.Fatal("training mutated a published generation's weights")
	}
	// Empty Sync is a no-op (no spurious swap).
	swapsBefore := l.Stats().Swaps
	if n, _ := l.Sync(); n != 0 {
		t.Fatalf("empty Sync trained on %d", n)
	}
	if l.Stats().Swaps != swapsBefore {
		t.Fatal("empty Sync published")
	}
}

// TestHotSwapStressWithTrainer is the acceptance stress test: concurrent
// TopK traffic races the online trainer's ingest→fine-tune→swap loop, and
// every served response must be bit-identical to a fresh-tape Score under
// the generation that served it. Run with -race.
func TestHotSwapStressWithTrainer(t *testing.T) {
	ds := testDataset(t)
	m := testModel(t, ds, 0.9) // dropout on: training tapes must not infect serving
	eng := serve.NewEngine(m.Clone(), serve.Config{Workers: 2})
	defer eng.Close()
	l, err := NewLearner(m, ds, eng, Config{
		Train:     train.Config{Seed: 7, Workers: 2, LR: 0.02, Negatives: 2},
		BatchSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Track every published generation's weights. Engine.Model is the
	// published clone; register it right after each Sync. Generation ids are
	// also observed by readers in between, so record lazily under a lock.
	var genMu sync.Mutex
	genModels := map[uint64]*core.Model{eng.Generation(): eng.Model().(*core.Model)}
	record := func() {
		genMu.Lock()
		genModels[eng.Generation()] = eng.Model().(*core.Model)
		genMu.Unlock()
	}

	stop := make(chan struct{})
	var trainerDone sync.WaitGroup
	trainerDone.Add(1)
	go func() {
		defer trainerDone.Done()
		rng := rand.New(rand.NewSource(1))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			for k := 0; k < 8; k++ {
				_ = l.Ingest(rng.Intn(ds.NumUsers), rng.Intn(ds.NumObjects), 1)
			}
			l.Sync()
			record()
			time.Sleep(100 * time.Microsecond)
		}
	}()

	base := feature.Instance{User: 4, Hist: []int{1, 9, 2}, UserAttr: feature.Pad, TargetAttr: feature.Pad}
	candidates := []int{0, 3, 7, 11, 15, 19, 23}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 30; r++ {
				items, gen := eng.TopKOn(serve.TopKRequest{Base: base, Candidates: candidates})
				genMu.Lock()
				served, ok := genModels[gen]
				genMu.Unlock()
				if !ok {
					// The trainer published between our read and its record;
					// it is still the engine's current model unless another
					// swap landed. Retry the lookup after the record.
					time.Sleep(time.Millisecond)
					genMu.Lock()
					served, ok = genModels[gen]
					genMu.Unlock()
					if !ok {
						continue // superseded before recorded; cannot verify
					}
				}
				for _, it := range items {
					inst := base
					inst.Target = it.Object
					if want := refScore(served, inst); it.Score != want {
						t.Errorf("gen %d object %d: served %v != fresh-tape %v", gen, it.Object, it.Score, want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	trainerDone.Wait()
	if st := l.Stats(); st.Swaps == 0 || st.Steps == 0 {
		t.Fatalf("stress loop never trained/swapped: %+v", st)
	}
}

// TestCheckpointResumeBitIdentical pins the acceptance criterion:
// fine-tuning restored from a ckpt v2 snapshot is bit-identical to the
// original run continuing in-process, for the same event batches at fixed
// {Seed, Workers} — dropout and negative sampling active.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	ds := testDataset(t)
	cfg := Config{
		Train:     train.Config{Seed: 19, Workers: 3, LR: 0.03, Negatives: 2},
		BatchSize: 8,
	}
	type event struct{ user, object int }
	makeEvents := func(seed int64, n int) []event {
		rng := rand.New(rand.NewSource(seed))
		evs := make([]event, n)
		for i := range evs {
			evs[i] = event{rng.Intn(ds.NumUsers), rng.Intn(ds.NumObjects)}
		}
		return evs
	}
	round1, round2 := makeEvents(100, 20), makeEvents(200, 20)
	ingest := func(l *Learner, evs []event) {
		for _, ev := range evs {
			if err := l.Ingest(ev.user, ev.object, 1); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Original run: two sync rounds, checkpoint after the first.
	engA := serve.NewEngine(testModel(t, ds, 0.8).Clone(), serve.Config{Workers: 1})
	defer engA.Close()
	lA, err := NewLearner(testModel(t, ds, 0.8), ds, engA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingest(lA, round1)
	lA.Sync()
	var snap bytes.Buffer
	if err := lA.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	ingest(lA, round2)
	lA.Sync()

	// Restored run: load the checkpoint, Replay the already-trained round
	// one (history store and sampler-seen state are not checkpoint state —
	// they are replayable from the event log), then feed the same
	// second-round events.
	engB := serve.NewEngine(testModel(t, ds, 0.8).Clone(), serve.Config{Workers: 1})
	defer engB.Close()
	lB, err := NewLearnerFromCheckpoint(bytes.NewReader(snap.Bytes()), ds, engB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range round1 {
		if err := lB.Replay(ev.user, ev.object); err != nil {
			t.Fatal(err)
		}
	}
	ingest(lB, round2)
	lB.Sync()

	pa, pb := lA.model.Params(), lB.model.Params()
	for i := range pa {
		for j, v := range pa[i].Value.Data {
			if pb[i].Value.Data[j] != v {
				t.Fatalf("param %s[%d]: resumed %v != continued %v",
					pa[i].Name, j, pb[i].Value.Data[j], v)
			}
		}
	}
	// Both serving engines publish the same generation weights.
	inst := feature.Instance{User: 2, Target: 5, Hist: []int{1, 2, 3}, UserAttr: feature.Pad, TargetAttr: feature.Pad}
	if a, b := engA.ScoreBatch([]feature.Instance{inst})[0], engB.ScoreBatch([]feature.Instance{inst})[0]; a != b {
		t.Fatalf("served scores diverge after resume: %v != %v", a, b)
	}
}

// TestCheckpointResumeRequiresMatchingSpace rejects a checkpoint from a
// different feature space.
func TestCheckpointResumeRequiresMatchingSpace(t *testing.T) {
	ds := testDataset(t)
	m := testModel(t, ds, 1)
	eng := serve.NewEngine(m.Clone(), serve.Config{Workers: 1})
	defer eng.Close()
	l, err := NewLearner(m, ds, eng, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := l.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	other := &data.Dataset{Name: "other", Task: data.Ranking, NumUsers: 3, NumObjects: 5,
		Users: [][]data.Interaction{{{Object: 1}}, {}, {}}}
	if _, err := NewLearnerFromCheckpoint(bytes.NewReader(snap.Bytes()), other, eng, Config{}); err == nil {
		t.Fatal("mismatched space accepted")
	}
}

func TestBackgroundLoopTrainsAndCloseDrains(t *testing.T) {
	ds := testDataset(t)
	m := testModel(t, ds, 1)
	eng := serve.NewEngine(m.Clone(), serve.Config{Workers: 1})
	defer eng.Close()
	l, err := NewLearner(m, ds, eng, Config{
		Train:    train.Config{Seed: 5, Workers: 1, LR: 0.05, Negatives: 1},
		Interval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	l.Start()
	l.Start() // idempotent
	for i := 0; i < 12; i++ {
		if err := l.Ingest(i%ds.NumUsers, (i*11)%ds.NumObjects, 1); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.Stats().Steps == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if l.Stats().Steps == 0 {
		t.Fatal("background trainer never stepped")
	}
	_ = l.Ingest(0, 1, 1)
	l.Close()
	if st := l.Stats(); st.Pending != 0 {
		t.Fatalf("Close left %d pending events", st.Pending)
	}
	// Usable after Close.
	if err := l.Ingest(1, 1, 1); err != nil {
		t.Fatal(err)
	}
	if n, _ := l.Sync(); n != 1 {
		t.Fatalf("post-Close Sync trained on %d", n)
	}
}

func TestHistoryStoreBoundsAndConcurrency(t *testing.T) {
	s := NewHistoryStore(4, 5)
	var wg sync.WaitGroup
	for u := 0; u < 16; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.Append(u, i)
				_ = s.History(u)
			}
		}(u)
	}
	wg.Wait()
	for u := 0; u < 16; u++ {
		h := s.History(u)
		if len(h) != 5 {
			t.Fatalf("user %d history length %d", u, len(h))
		}
		for i, o := range h {
			if o != 45+i {
				t.Fatalf("user %d kept %v, want the newest five", u, h)
			}
		}
	}
	if s.Users() != 16 {
		t.Fatalf("Users()=%d", s.Users())
	}
	if s.Len(3) != 5 {
		t.Fatalf("Len=%d", s.Len(3))
	}
	// The returned copy is immune to later appends.
	h := s.History(2)
	s.Append(2, 999)
	if h[len(h)-1] == 999 {
		t.Fatal("History returned an aliased slice")
	}
}
