package train

import (
	"math/rand"
	"runtime"
	"sync"

	"seqfm/internal/ag"
	"seqfm/internal/data"
	"seqfm/internal/feature"
	"seqfm/internal/metrics"
	"seqfm/internal/plan"
)

// RankingResult holds HR@K and NDCG@K for the requested cutoffs.
type RankingResult struct {
	HR   map[int]float64
	NDCG map[int]float64
}

// EvalConfig controls evaluation.
type EvalConfig struct {
	// J is the number of sampled unvisited negatives each ground-truth item
	// is ranked against; the paper uses 1000 (§V-C).
	J int
	// Ks are the ranking cutoffs; the paper reports {5, 10, 20}.
	Ks []int
	// Seed drives candidate sampling.
	Seed int64
	// Workers parallelises scoring; 0 means GOMAXPROCS.
	Workers int
	// UseVal evaluates on the validation split instead of test.
	UseVal bool
}

func (c EvalConfig) withDefaults() EvalConfig {
	if c.J == 0 {
		c.J = 100
	}
	if len(c.Ks) == 0 {
		c.Ks = []int{5, 10, 20}
	}
	if c.Seed == 0 {
		c.Seed = 99
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

func (c EvalConfig) instances(split *data.Split) []feature.Instance {
	if c.UseVal {
		return split.Val
	}
	return split.Test
}

// evalScorer is one evaluation worker's scoring state. A model the plan
// compiler accepts (SeqFM) is scored through the worker's own Exec, all
// instances of a call against one shared dynamic phase; anything else (the
// baselines) through a fresh inference tape per instance. The two agree bit
// for bit — that is plan's parity contract — so metrics do not depend on
// which one ran.
type evalScorer struct {
	m      Model
	exec   *plan.Exec // nil: tape
	insts  []feature.Instance
	scores []float64
}

// newEvalScorers builds one scorer per worker.
func newEvalScorers(m Model, workers int) []evalScorer {
	scorers := make([]evalScorer, workers)
	pl, err := plan.For(m)
	for i := range scorers {
		scorers[i].m = m
		if err == nil {
			scorers[i].exec = pl.NewExec()
		}
	}
	return scorers
}

// score runs inference-mode forward passes for first and for every object of
// others substituted as its target — instances that share first's user and
// history. The result is the scorer's scratch, valid until its next call.
func (s *evalScorer) score(ds *data.Dataset, first feature.Instance, others ...int) []float64 {
	s.insts = append(s.insts[:0], first)
	for _, o := range others {
		s.insts = append(s.insts, ds.WithTargetObject(first, o))
	}
	if s.exec != nil {
		return s.exec.Forward(s.insts, false)
	}
	s.scores = s.scores[:0]
	for _, inst := range s.insts {
		s.scores = append(s.scores, s.m.Score(ag.NewTape(), inst).Value.ScalarValue())
	}
	return s.scores
}

// ParallelEach fans f over n indexed jobs across the given number of
// workers: worker w handles indices w, w+workers, w+2·workers, … — the
// strided data-parallel pattern shared by training, evaluation and the
// serving engine (internal/serve). f receives the worker id alongside the
// job index so callers can keep per-worker state (tapes, samplers) without
// locking. Worker 0 is the calling goroutine; the others are started here and
// have all returned when ParallelEach does.
func ParallelEach(n, workers int, f func(w, i int)) {
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				f(w, i)
			}
		}(w)
	}
	for i := 0; i < n; i += workers {
		f(0, i)
	}
	wg.Wait()
}

// EvalRanking implements the leave-one-out ranking protocol of §V-C: each
// held-out positive is ranked against J never-visited negatives and HR@K /
// NDCG@K are averaged over test cases (Eq. 27).
//
// Cost is per user evaluated: each worker owns one data.NegativeSampler,
// which indexes a user's log the first time that user's case comes up, so a
// call over a few users does not pay for indexing the whole dataset.
func EvalRanking(m Model, split *data.Split, cfg EvalConfig) RankingResult {
	cfg = cfg.withDefaults()
	insts := cfg.instances(split)
	ranks := make([]int, len(insts))
	samplers := make([]*data.NegativeSampler, cfg.Workers)
	for i := range samplers {
		samplers[i] = data.NewNegativeSampler(split.Dataset(),
			rand.New(rand.NewSource(cfg.Seed+int64(31*(i+1)))))
	}
	scorers := newEvalScorers(m, cfg.Workers)
	ParallelEach(len(insts), cfg.Workers, func(w, i int) {
		inst := insts[i]
		scores := scorers[w].score(split.Dataset(), inst, samplers[w].SampleN(inst.User, cfg.J)...)
		ranks[i] = metrics.RankOf(scores[0], scores[1:])
	})
	res := RankingResult{HR: map[int]float64{}, NDCG: map[int]float64{}}
	for _, k := range cfg.Ks {
		res.HR[k] = metrics.HRAtK(ranks, k)
		res.NDCG[k] = metrics.NDCGAtK(ranks, k)
	}
	return res
}

// ClassificationResult holds the CTR metrics of Table III.
type ClassificationResult struct {
	AUC  float64
	RMSE float64
}

// EvalClassification implements §V-C's CTR protocol: for each held-out
// positive a random never-clicked link is drawn, both are scored as
// probabilities via the sigmoid of Eq. (23), and AUC plus RMSE-to-label are
// computed over the pooled predictions.
func EvalClassification(m Model, split *data.Split, cfg EvalConfig) ClassificationResult {
	cfg = cfg.withDefaults()
	insts := cfg.instances(split)
	probs := make([]float64, 2*len(insts))
	labels := make([]bool, 2*len(insts))
	truth := make([]float64, 2*len(insts))
	samplers := make([]*data.NegativeSampler, cfg.Workers)
	for i := range samplers {
		samplers[i] = data.NewNegativeSampler(split.Dataset(),
			rand.New(rand.NewSource(cfg.Seed+int64(37*(i+1)))))
	}
	scorers := newEvalScorers(m, cfg.Workers)
	ParallelEach(len(insts), cfg.Workers, func(w, i int) {
		inst := insts[i]
		scores := scorers[w].score(split.Dataset(), inst, samplers[w].Sample(inst.User))
		probs[2*i] = plan.Sigmoid(scores[0])
		labels[2*i] = true
		truth[2*i] = 1
		probs[2*i+1] = plan.Sigmoid(scores[1])
		labels[2*i+1] = false
	})
	return ClassificationResult{
		AUC:  metrics.AUC(probs, labels),
		RMSE: metrics.RMSE(probs, truth),
	}
}

// RegressionResult holds the rating-prediction metrics of Table IV.
type RegressionResult struct {
	MAE  float64
	RRSE float64
}

// EvalRegression scores each held-out rating directly (Eq. 28).
func EvalRegression(m Model, split *data.Split, cfg EvalConfig) RegressionResult {
	cfg = cfg.withDefaults()
	insts := cfg.instances(split)
	pred := make([]float64, len(insts))
	truth := make([]float64, len(insts))
	scorers := newEvalScorers(m, cfg.Workers)
	ParallelEach(len(insts), cfg.Workers, func(w, i int) {
		pred[i] = scorers[w].score(split.Dataset(), insts[i])[0]
		truth[i] = insts[i].Label
	})
	return RegressionResult{
		MAE:  metrics.MAE(pred, truth),
		RRSE: metrics.RRSE(pred, truth),
	}
}
