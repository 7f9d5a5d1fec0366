package train

import (
	"math"
	"math/rand"
	"testing"

	"seqfm/internal/ag"
	"seqfm/internal/core"
	"seqfm/internal/data"
	"seqfm/internal/feature"
	"seqfm/internal/tensor"
)

// biasModel is a minimal Model: per-object score biases plus a rating mean.
// It is enough to verify every trainer moves parameters the right way.
type biasModel struct {
	bias *ag.Param
	mu   *ag.Param
}

func newBiasModel(numObjects int) *biasModel {
	rng := rand.New(rand.NewSource(1))
	return &biasModel{
		bias: ag.NewParam("bias", numObjects, 1, tensor.Zeros(), rng),
		mu:   ag.NewParam("mu", 1, 1, tensor.Zeros(), rng),
	}
}

func (m *biasModel) Score(t *ag.Tape, inst feature.Instance) *ag.Node {
	return t.Add(t.Var(m.mu), t.GatherSum(m.bias, []int{inst.Target}))
}

func (m *biasModel) Params() []*ag.Param { return []*ag.Param{m.bias, m.mu} }

// popularityDataset: object 0 is consumed by everyone late in their logs, so
// a bias model can learn it is popular.
func popularityDataset() *data.Dataset {
	d := &data.Dataset{Name: "pop", Task: data.Ranking, NumUsers: 8, NumObjects: 10}
	d.Users = make([][]data.Interaction, d.NumUsers)
	for u := 0; u < d.NumUsers; u++ {
		log := []data.Interaction{
			{Object: 1 + u%4, Rating: 1, Time: 0},
			{Object: 5 + u%4, Rating: 1, Time: 1},
			{Object: 0, Rating: 1, Time: 2},
			{Object: 0, Rating: 1, Time: 3},
			{Object: 0, Rating: 1, Time: 4},
		}
		d.Users[u] = log
	}
	return d
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Epochs != 10 || c.BatchSize != 512 || c.LR != 1e-3 || c.Negatives != 5 {
		t.Fatalf("defaults: %+v", c)
	}
	if c.Workers < 1 || c.Seed == 0 {
		t.Fatalf("defaults: %+v", c)
	}
}

func TestEmptyTrainSplitErrors(t *testing.T) {
	d := &data.Dataset{Name: "empty", Task: data.Ranking, NumUsers: 1, NumObjects: 2,
		Users: [][]data.Interaction{{{Object: 0}}}}
	split := data.NewSplit(d) // single interaction → no training positions
	m := newBiasModel(2)
	if _, err := Ranking(m, split, Config{Epochs: 1}); err == nil {
		t.Fatal("expected error for empty training split")
	}
}

func TestRankingLearnsPopularity(t *testing.T) {
	d := popularityDataset()
	split := data.NewSplit(d)
	m := newBiasModel(d.NumObjects)
	hist, err := Ranking(m, split, Config{Epochs: 30, BatchSize: 16, LR: 0.05, Negatives: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if hist.FinalLoss() >= hist.Epochs[0].Loss {
		t.Fatalf("loss %.4f -> %.4f", hist.Epochs[0].Loss, hist.FinalLoss())
	}
	// Object 0 is the most frequent positive: its bias must dominate the
	// never-positive object 9.
	if m.bias.Value.At(0, 0) <= m.bias.Value.At(9, 0) {
		t.Fatalf("popular bias %.3f not above unpopular %.3f",
			m.bias.Value.At(0, 0), m.bias.Value.At(9, 0))
	}
	// Every test user's ground truth is object 0: HR@1 should be high.
	r := EvalRanking(m, split, EvalConfig{J: 8, Ks: []int{1, 5}})
	if r.HR[1] < 0.9 {
		t.Fatalf("HR@1=%.2f after learning popularity", r.HR[1])
	}
	if r.NDCG[5] < r.NDCG[1] {
		t.Fatal("NDCG must be monotone in K")
	}
}

func TestClassificationCalibratesProbability(t *testing.T) {
	d := popularityDataset()
	split := data.NewSplit(d)
	m := newBiasModel(d.NumObjects)
	hist, err := Classification(m, split, Config{Epochs: 30, BatchSize: 16, LR: 0.05, Negatives: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if hist.FinalLoss() >= hist.Epochs[0].Loss {
		t.Fatal("log loss did not decrease")
	}
	r := EvalClassification(m, split, EvalConfig{})
	if r.AUC < 0.8 {
		t.Fatalf("AUC=%.3f on trivially separable data", r.AUC)
	}
}

func ratingDataset() *data.Dataset {
	// Objects 0 and 1 both appear as interior (trainable) targets: the
	// leave-one-out split only trains on positions 1..n−3.
	d := &data.Dataset{Name: "r", Task: data.Regression, NumUsers: 6, NumObjects: 4}
	d.Users = make([][]data.Interaction, d.NumUsers)
	for u := 0; u < d.NumUsers; u++ {
		d.Users[u] = []data.Interaction{
			{Object: 2, Rating: 5, Time: 0},
			{Object: 0, Rating: 5, Time: 1},
			{Object: 1, Rating: 1, Time: 2},
			{Object: 0, Rating: 5, Time: 3},
			{Object: 1, Rating: 1, Time: 4},
			{Object: 3, Rating: 1, Time: 5},
			{Object: 0, Rating: 5, Time: 6},
		}
	}
	return d
}

func TestRegressionFitsPerObjectMeans(t *testing.T) {
	d := ratingDataset()
	split := data.NewSplit(d)
	m := newBiasModel(d.NumObjects)
	_, err := Regression(m, split, Config{Epochs: 200, BatchSize: 16, LR: 0.05, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Object 0 always rated 5, object 1 always rated 1.
	s0 := m.mu.Value.ScalarValue() + m.bias.Value.At(0, 0)
	s1 := m.mu.Value.ScalarValue() + m.bias.Value.At(1, 0)
	if math.Abs(s0-5) > 0.3 || math.Abs(s1-1) > 0.3 {
		t.Fatalf("fitted means: obj0=%.2f (want 5), obj1=%.2f (want 1)", s0, s1)
	}
	r := EvalRegression(m, split, EvalConfig{})
	if r.MAE > 0.5 {
		t.Fatalf("MAE=%.3f", r.MAE)
	}
}

func TestTrainingDeterministicSingleWorker(t *testing.T) {
	d := popularityDataset()
	split := data.NewSplit(d)
	runOnce := func() float64 {
		m := newBiasModel(d.NumObjects)
		hist, err := Ranking(m, split, Config{Epochs: 3, BatchSize: 8, LR: 0.05,
			Negatives: 2, Seed: 9, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return hist.FinalLoss()
	}
	if runOnce() != runOnce() {
		t.Fatal("single-worker training not deterministic for a fixed seed")
	}
}

func TestGradClipKeepsTrainingStable(t *testing.T) {
	d := popularityDataset()
	split := data.NewSplit(d)
	m := newBiasModel(d.NumObjects)
	hist, err := Ranking(m, split, Config{Epochs: 3, BatchSize: 8, LR: 0.5,
		Negatives: 2, Seed: 5, GradClip: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(hist.FinalLoss()) {
		t.Fatal("training diverged despite clipping")
	}
}

func TestEvalUsesValidationWhenAsked(t *testing.T) {
	d := popularityDataset()
	split := data.NewSplit(d)
	m := newBiasModel(d.NumObjects)
	testR := EvalRanking(m, split, EvalConfig{J: 5, Ks: []int{1}, Seed: 1})
	valR := EvalRanking(m, split, EvalConfig{J: 5, Ks: []int{1}, Seed: 1, UseVal: true})
	// Val targets differ from test targets in this dataset (object 0 both,
	// actually) — at minimum the call must not panic and produce bounded
	// metrics.
	for _, r := range []RankingResult{testR, valR} {
		if r.HR[1] < 0 || r.HR[1] > 1 {
			t.Fatalf("HR out of range: %v", r.HR[1])
		}
	}
}

func TestHistoryAccounting(t *testing.T) {
	d := popularityDataset()
	split := data.NewSplit(d)
	m := newBiasModel(d.NumObjects)
	hist, err := Ranking(m, split, Config{Epochs: 4, BatchSize: 8, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.Epochs) != 4 {
		t.Fatalf("epochs recorded: %d", len(hist.Epochs))
	}
	for i, e := range hist.Epochs {
		if e.Epoch != i+1 || e.Duration <= 0 {
			t.Fatalf("epoch stat %+v", e)
		}
	}
	if hist.Total <= 0 {
		t.Fatal("total duration")
	}
	empty := &History{}
	if empty.FinalLoss() != 0 {
		t.Fatal("FinalLoss of empty history")
	}
}

func TestLogfReceivesLines(t *testing.T) {
	d := popularityDataset()
	split := data.NewSplit(d)
	m := newBiasModel(d.NumObjects)
	lines := 0
	_, err := Ranking(m, split, Config{Epochs: 2, BatchSize: 8, Seed: 7,
		Logf: func(string, ...any) { lines++ }})
	if err != nil {
		t.Fatal(err)
	}
	if lines != 2 {
		t.Fatalf("Logf lines: %d", lines)
	}
}

// seqfmModel builds a small deterministic-init SeqFM over ds's space.
// KeepProb=1 disables dropout so cross-engine comparisons are deterministic;
// dropout determinism is exercised separately with keepProb<1.
func seqfmModel(t *testing.T, ds *data.Dataset, keepProb float64) *core.Model {
	t.Helper()
	cfg := core.Config{Space: ds.Space(), Dim: 6, Layers: 1, MaxSeqLen: 4,
		KeepProb: keepProb, Seed: 11}
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// paramValues clones every parameter value for later comparison.
func paramValues(params []*ag.Param) []*tensor.Matrix {
	out := make([]*tensor.Matrix, len(params))
	for i, p := range params {
		out[i] = p.Value.Clone()
	}
	return out
}

// monolithicModel hides *core.Model's SharedScorer methods, forcing the
// training engine onto the one-full-Score-per-candidate fallback — the
// pre-refactor forward shape.
type monolithicModel struct{ m *core.Model }

func (w monolithicModel) Score(t *ag.Tape, inst feature.Instance) *ag.Node {
	return w.m.Score(t, inst)
}
func (w monolithicModel) Params() []*ag.Param { return w.m.Params() }

// TestSharedForwardMatchesMonolithicTraining pins the candidate-sharing
// engine against the per-candidate fallback at the public API: with dropout
// off, one epoch of ranking (and classification) training must produce
// bit-identical epoch losses and near-identical parameters (gradients through
// the shared dynamic subgraph equal the per-copy gradients up to
// reassociation of IEEE addition; see core/forward_test.go).
func TestSharedForwardMatchesMonolithicTraining(t *testing.T) {
	const tol = 1e-9
	d := popularityDataset()
	split := data.NewSplit(d)
	for name, trainFn := range map[string]func(Model, *data.Split, Config) (*History, error){
		"ranking":        Ranking,
		"classification": Classification,
	} {
		t.Run(name, func(t *testing.T) {
			// One batch covers the whole epoch: the epoch loss is then summed
			// entirely from pre-step forward values, which the two engines
			// must agree on exactly. (With several batches per epoch the
			// optimizer steps in between on gradients that differ by
			// reassociation, so later batches' losses drift in the last ulp.)
			cfg := Config{Epochs: 1, BatchSize: 64, LR: 0.01, Negatives: 3, Seed: 5, Workers: 2, Engine: EngineTape}

			shared := seqfmModel(t, d, 1)
			histShared, err := trainFn(shared, split, cfg)
			if err != nil {
				t.Fatal(err)
			}
			mono := seqfmModel(t, d, 1)
			histMono, err := trainFn(monolithicModel{mono}, split, cfg)
			if err != nil {
				t.Fatal(err)
			}

			if histShared.FinalLoss() != histMono.FinalLoss() {
				t.Fatalf("epoch loss: shared %v != monolithic %v (forward values must be bit-identical)",
					histShared.FinalLoss(), histMono.FinalLoss())
			}
			sharedParams, monoParams := shared.Params(), mono.Params()
			for i := range sharedParams {
				for j, v := range sharedParams[i].Value.Data {
					want := monoParams[i].Value.Data[j]
					diff := math.Abs(v - want)
					scale := math.Max(1, math.Max(math.Abs(v), math.Abs(want)))
					if diff/scale > tol {
						t.Fatalf("%s[%d]: shared %v vs monolithic %v after one epoch",
							sharedParams[i].Name, j, v, want)
					}
				}
			}
		})
	}
}

// runSeqFM trains a fresh SeqFM and returns its history and final params.
func runSeqFM(t *testing.T, cfg Config, keepProb float64) (*History, []*tensor.Matrix) {
	t.Helper()
	d := popularityDataset()
	split := data.NewSplit(d)
	m := seqfmModel(t, d, keepProb)
	hist, err := Ranking(m, split, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return hist, paramValues(m.Params())
}

// assertIdenticalRuns pins the Config determinism contract: same
// {Seed, Workers} ⇒ identical History and bit-identical final parameters. It
// holds cfg to it twice: on the tape, and on cfg's own engine (for SeqFM the
// compiled plan when unset).
func assertIdenticalRuns(t *testing.T, cfg Config, keepProb float64) {
	t.Helper()
	for _, engine := range []string{EngineTape, cfg.Engine} {
		cfg.Engine = engine
		h1, p1 := runSeqFM(t, cfg, keepProb)
		h2, p2 := runSeqFM(t, cfg, keepProb)
		if len(h1.Epochs) != len(h2.Epochs) {
			t.Fatal("epoch counts differ")
		}
		for i := range h1.Epochs {
			if h1.Epochs[i].Loss != h2.Epochs[i].Loss {
				t.Fatalf("engine %q epoch %d loss %v != %v for identical {Seed, Workers}",
					engine, i+1, h1.Epochs[i].Loss, h2.Epochs[i].Loss)
			}
		}
		for i := range p1 {
			for j, v := range p1[i].Data {
				if v != p2[i].Data[j] {
					t.Fatalf("engine %q param %d[%d]: %v != %v for identical {Seed, Workers}", engine, i, j, v, p2[i].Data[j])
				}
			}
		}
	}
}

// TestTrainingDeterministicWorkers1 pins Workers=1 reproducibility with
// dropout active: every random stream derives from Seed alone.
func TestTrainingDeterministicWorkers1(t *testing.T) {
	assertIdenticalRuns(t, Config{Epochs: 2, BatchSize: 8, LR: 0.01, Negatives: 2,
		Seed: 13, Workers: 1}, 0.8)
}

// TestTrainingDeterministicWorkers3 pins the stronger contract the sharded
// engine buys: multi-worker runs are also bit-reproducible, because shards
// are merged in worker order rather than mutex-acquisition order.
func TestTrainingDeterministicWorkers3(t *testing.T) {
	assertIdenticalRuns(t, Config{Epochs: 2, BatchSize: 8, LR: 0.01, Negatives: 2,
		Seed: 13, Workers: 3}, 0.8)
}

// TestWorkerCountChangesSamplingStreams documents why the contract is keyed
// on {Seed, Workers} and not Seed alone: a different worker count changes
// which per-worker sampling/dropout streams exist and how instances stride
// across them, so results legitimately differ.
func TestWorkerCountChangesSamplingStreams(t *testing.T) {
	base := Config{Epochs: 2, BatchSize: 8, LR: 0.01, Negatives: 2, Seed: 13}
	w1 := base
	w1.Workers = 1
	w3 := base
	w3.Workers = 3
	h1, _ := runSeqFM(t, w1, 0.8)
	h3, _ := runSeqFM(t, w3, 0.8)
	if h1.FinalLoss() == h3.FinalLoss() {
		t.Skip("worker counts coincided; sampling streams happened to align")
	}
}

// TestParallelEachStrides pins the fan-out contract: index i goes to worker
// i mod workers, exactly once, whatever the worker count — and stride 0 runs
// on the calling goroutine, so a panic in it unwinds into the caller.
func TestParallelEachStrides(t *testing.T) {
	for _, c := range [][2]int{{0, 3}, {1, 1}, {7, 3}, {5, 8}, {9, 0}, {64, 2}} {
		n, workers := c[0], c[1]
		got := make([]int, n)
		ParallelEach(n, workers, func(w, i int) { got[i] += w + 1 })
		for i, g := range got {
			if want := i%max(workers, 1) + 1; g != want {
				t.Fatalf("n=%d workers=%d: index %d ran as worker %d, want %d (once)", n, workers, i, g-1, want-1)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("stride 0 did not run on the calling goroutine")
		}
	}()
	ParallelEach(1, 4, func(w, i int) { panic("stride 0") })
}
