// Package train drives model optimisation and evaluation for the paper's
// three tasks: BPR-loss ranking (§IV-A), negative-sampled log-loss
// classification (§IV-B) and squared-loss regression (§IV-C), all with the
// mini-batch Adam procedure of §IV-D.
//
// The training engine mirrors the serving engine (internal/serve): each
// data-parallel worker owns one reusable execution state — a compiled
// plan.Exec for SeqFM, an autodiff tape for the baselines (Reset between
// instances, so the node arena is allocated once) — and one private gradient
// shard (ag.GradShard) it flushes into lock-free. Shards are merged into the
// shared parameters once per minibatch, in worker order, and the optimizer
// steps on the merged gradients (optim.StepShards) — there is no per-instance
// mutex anywhere on the training path.
//
// Models whose forward pass decomposes into a candidate-independent dynamic
// subgraph (SharedScorer — SeqFM does) get the candidate-sharing forward: the
// ranking and classification losses score the positive and all sampled
// negatives against one core.ForwardDynamic subgraph, so the tape carries one
// dynamic view per instance instead of 1+N copies and the reverse pass
// backpropagates through it once.
package train

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"seqfm/internal/ag"
	"seqfm/internal/core"
	"seqfm/internal/data"
	"seqfm/internal/feature"
	"seqfm/internal/optim"
	"seqfm/internal/plan"
)

// Training engines. The tape engine records every forward on a reusable
// autodiff tape and reverse-interprets it; the compiled engine lowers the
// model once into a preallocated execution plan (internal/plan) with a
// hand-derived backward pass. Both satisfy the same determinism contract
// within themselves; their gradients agree up to IEEE reassociation (pinned by
// internal/plan's parity tests), so loss curves match closely but not bit for
// bit across engines. Left unset, Config.Engine follows the model: SeqFM
// trains compiled, the baselines on the tape.
const (
	// EngineTape forces the tape: works for every model, including baselines.
	EngineTape = "tape"
	// EngineCompiled requires a model with a compilable spec (core.Model).
	EngineCompiled = "compiled"
)

// Model is the scoring interface every model in this repository implements:
// SeqFM and all eleven baselines. Score records the raw (unsquashed) output
// for one instance on the tape.
type Model interface {
	Score(t *ag.Tape, inst feature.Instance) *ag.Node
	Params() []*ag.Param
}

// SharedScorer is the candidate-sharing training contract implemented by
// *core.Model: the forward pass split into a differentiable
// candidate-independent dynamic subgraph, built once per training instance,
// and a per-candidate remainder attached to it. Losses that score several
// candidates against one history (BPR ranking, negative-sampled log loss)
// use it automatically; models without it fall back to one full Score per
// candidate.
type SharedScorer interface {
	Model
	ForwardDynamic(t *ag.Tape, hist []int) *core.Dyn
	ForwardCandidate(t *ag.Tape, dyn *core.Dyn, inst feature.Instance) *ag.Node
}

// Config controls the optimisation loop. Zero fields take the paper's
// defaults via withDefaults.
//
// Determinism contract: for a fixed {Seed, Workers} pair, training is
// bit-for-bit reproducible — identical History and identical final
// parameters — regardless of goroutine scheduling. Every random stream
// (shuffling, negative sampling, dropout) is derived from Seed and a worker
// index; each worker accumulates gradients into a private shard in its own
// strided instance order; and shards are merged into the shared parameters
// in worker order at the minibatch barrier, so no floating-point sum ever
// depends on scheduling. Changing Workers changes which per-worker sampling
// and dropout streams exist and how instances stride across them, so runs
// with different Workers values differ — each is an equally valid sample of
// the same stochastic procedure, not a bug.
type Config struct {
	// Epochs is the number of passes over the training instances.
	Epochs int
	// BatchSize is the minibatch size; the paper uses 512 (§IV-D).
	BatchSize int
	// LR is Adam's learning rate; the paper uses 1e-4, but at our reduced
	// synthetic scales 1e-3..3e-3 reaches the same convergence in far fewer
	// epochs (see EXPERIMENTS.md).
	LR float64
	// Negatives is the number of sampled negatives per positive for ranking
	// and classification training; the paper draws 5 (§IV-D).
	Negatives int
	// Workers is the number of data-parallel goroutines; 0 means GOMAXPROCS.
	Workers int
	// Seed drives shuffling, negative sampling and dropout.
	Seed int64
	// GradClip caps the global gradient norm per batch; 0 disables.
	GradClip float64
	// Engine pins the training engine. Empty (the default) trains compiled
	// when the model exposes a structural spec (core.Model) and on the tape
	// otherwise; EngineCompiled errors on spec-less models, EngineTape forces
	// the tape for any model.
	Engine string
	// Logf, when non-nil, receives one line per epoch.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Epochs == 0 {
		c.Epochs = 10
	}
	if c.BatchSize == 0 {
		c.BatchSize = 512
	}
	if c.LR == 0 {
		c.LR = 1e-3
	}
	if c.Negatives == 0 {
		c.Negatives = 5
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// EpochStat records one epoch of training.
type EpochStat struct {
	Epoch    int
	Loss     float64
	Duration time.Duration
}

// History is the full training record.
type History struct {
	Epochs []EpochStat
	// Total is the wall-clock training time, the quantity Figure 4 plots.
	Total time.Duration
}

// FinalLoss returns the last epoch's mean loss (NaN-free by construction).
func (h *History) FinalLoss() float64 {
	if len(h.Epochs) == 0 {
		return 0
	}
	return h.Epochs[len(h.Epochs)-1].Loss
}

// lossFn scores one training instance and returns its scalar loss node.
type lossFn func(t *ag.Tape, w *worker, inst feature.Instance) *ag.Node

// worker carries the per-goroutine state of the data-parallel loop: its
// random streams (the dropout rng lives inside the tape, or in the compiled
// Exec), its reusable tape or execution-plan state, its private gradient
// shard, and scratch slices reused across instances so the steady-state loop
// performs no per-instance bookkeeping allocations.
type worker struct {
	sampler *data.NegativeSampler
	ds      *data.Dataset
	tape    *ag.Tape
	exec    *plan.Exec // non-nil on the compiled engine
	shard   *ag.GradShard
	// negatives is Config.Negatives resolved once by run — loss closures
	// must not re-derive defaults per instance.
	negatives int
	insts     []feature.Instance // scratch: positive + sampled negatives
	scores    []*ag.Node         // scratch: their score nodes
	terms     []*ag.Node         // scratch: per-candidate loss terms
	dscores   []float64          // scratch: compiled per-score loss gradients
}

// sampleCandidates fills w.insts with inst plus w.negatives sampled
// corruptions of it, positive first. The returned slice is worker scratch,
// valid until the next call. Sampling draws from the worker's sampler stream
// in the same order on both engines, keeping their batch contents identical.
func (w *worker) sampleCandidates(inst feature.Instance) []feature.Instance {
	w.insts = append(w.insts[:0], inst)
	for k := 0; k < w.negatives; k++ {
		w.insts = append(w.insts, w.ds.WithTargetObject(inst, w.sampler.Sample(inst.User)))
	}
	return w.insts
}

// scoreWithNegatives scores inst plus w.negatives sampled corruptions of it,
// positive first, sharing the candidate-independent dynamic subgraph when m
// supports it. The returned slice is worker scratch, valid until the next
// call.
func (w *worker) scoreWithNegatives(t *ag.Tape, m Model, inst feature.Instance) []*ag.Node {
	w.sampleCandidates(inst)
	w.scores = w.scores[:0]
	if ss, ok := m.(SharedScorer); ok {
		dyn := ss.ForwardDynamic(t, inst.Hist)
		for _, ci := range w.insts {
			w.scores = append(w.scores, ss.ForwardCandidate(t, dyn, ci))
		}
	} else {
		for _, ci := range w.insts {
			w.scores = append(w.scores, m.Score(t, ci))
		}
	}
	return w.scores
}

// stepFn processes one training instance on one worker — forward, backward,
// gradient flush into the worker's shard — and returns its invBatch-scaled
// loss contribution. One implementation per engine: tapeStep interprets the
// autodiff tape, the compiled steps (compiled.go) drive a plan.Exec.
type stepFn func(wk *worker, inst feature.Instance, invBatch float64) float64

// tapeStep is the tape engine's per-instance step: record the loss on the
// worker's reusable tape, reverse-interpret it, flush into the shard.
func tapeStep(loss lossFn, tapeHint *atomic.Int64) stepFn {
	return func(wk *worker, inst feature.Instance, invBatch float64) float64 {
		t := wk.tape
		t.Reset()
		t.Grow(int(tapeHint.Load()))
		l := t.Scale(invBatch, loss(t, wk, inst))
		t.Backward(l)
		t.FlushGradsTo(wk.shard)
		// Raise the hint monotonically: a plain check-then-store could let a
		// smaller pass overwrite a larger one and shrink later Grow calls.
		for n := int64(t.NumNodes()); ; {
			cur := tapeHint.Load()
			if n <= cur || tapeHint.CompareAndSwap(cur, n) {
				break
			}
		}
		return l.Value.ScalarValue()
	}
}

// engineFor resolves engine for m into the per-instance step and, on the
// compiled engine, the plan whose Execs the workers drive (nil on the tape).
// An empty engine is a fact about the model, not a choice: compiled when m
// exposes a compilable spec (core.Model), the tape otherwise (the baselines)
// — the rule serving and evaluation already apply. The one resolver behind
// both the epoch loop (run) and the incremental engine (NewStepper).
func engineFor(m Model, task data.Task, engine string, tapeHint *atomic.Int64) (stepFn, *plan.Plan, error) {
	var pl *plan.Plan
	switch engine {
	case "":
		pl, _ = plan.For(m)
	case EngineCompiled:
		var err error
		if pl, err = plan.For(m); err != nil {
			return nil, nil, err
		}
	case EngineTape:
	default:
		return nil, nil, fmt.Errorf("train: unknown engine %q", engine)
	}
	if pl != nil {
		step, err := compiledStepFor(task)
		return step, pl, err
	}
	loss, err := lossFor(m, task)
	if err != nil {
		return nil, nil, err
	}
	return tapeStep(loss, tapeHint), nil, nil
}

// stepBatch fans one minibatch out over the workers. Each worker runs its
// strided share of the instances through the engine's step and accumulates
// gradients into its private shard; per-worker loss sums are combined in
// worker order so the returned batch-mean loss is a deterministic function of
// the per-worker contributions. The caller merges the shards and steps the
// optimizer (optim.StepShards). Shared by the epoch loop (run) and the
// incremental engine (Stepper.Step).
func stepBatch(workers []*worker, losses []float64, insts []feature.Instance, step stepFn) float64 {
	nWorkers := len(workers)
	invBatch := 1 / float64(len(insts))
	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		losses[w] = 0
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wk := workers[w]
			for s := w; s < len(insts); s += nWorkers {
				losses[w] += step(wk, insts[s], invBatch)
			}
		}(w)
	}
	wg.Wait()
	total := 0.0
	for _, l := range losses {
		total += l
	}
	return total
}

// run is the shared minibatch engine: shuffle, split batches, fan instances
// out to workers (each with a reusable tape or compiled Exec and a private
// gradient shard), merge shards once per batch, step Adam.
func run(m Model, split *data.Split, cfg Config, task data.Task) (*History, error) {
	cfg = cfg.withDefaults()
	if len(split.Train) == 0 {
		return nil, fmt.Errorf("train: empty training split")
	}
	params := m.Params()
	opt := optim.NewAdam(params, cfg.LR)
	shuffleRng := rand.New(rand.NewSource(cfg.Seed))

	// tapeHint tracks the largest pass recorded so far; workers Grow their
	// tape to it before each pass, so late starters pre-size their arena in
	// one step instead of via append growth. (Tape engine only.)
	var tapeHint atomic.Int64
	step, pl, err := engineFor(m, task, cfg.Engine, &tapeHint)
	if err != nil {
		return nil, err
	}

	workers := make([]*worker, cfg.Workers)
	shards := make([]*ag.GradShard, cfg.Workers)
	for i := range workers {
		// Stream seeds must be pairwise distinct across all workers AND
		// across stream kinds: odd offsets feed dropout, even offsets feed
		// sampling, offset 0 is the shuffle — so no two rand sources can
		// coincide for any worker count (the legacy k*(i+1) scheme collided,
		// e.g. dropout of worker 6 with the sampler of worker 0).
		dropoutRng := rand.New(rand.NewSource(cfg.Seed + 2*int64(i) + 1))
		samplerRng := rand.New(rand.NewSource(cfg.Seed + 2*int64(i) + 2))
		workers[i] = &worker{
			sampler:   data.NewNegativeSampler(split.Dataset(), samplerRng),
			ds:        split.Dataset(),
			shard:     ag.NewGradShard(params),
			negatives: cfg.Negatives,
		}
		// The dropout stream feeds whichever engine consumes it, so a
		// compiled run is seeded exactly like the tape run it replaces.
		if pl != nil {
			workers[i].exec = pl.NewExec()
			workers[i].exec.SetRNG(dropoutRng)
		} else {
			workers[i].tape = ag.NewTrainingTape(dropoutRng)
		}
		shards[i] = workers[i].shard
	}

	order := make([]int, len(split.Train))
	for i := range order {
		order[i] = i
	}

	hist := &History{}
	start := time.Now()
	losses := make([]float64, cfg.Workers)
	scratch := make([]feature.Instance, 0, cfg.BatchSize)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		epochStart := time.Now()
		shuffleRng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		epochLoss := 0.0
		for b := 0; b < len(order); b += cfg.BatchSize {
			end := b + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			scratch = scratch[:0]
			for _, ix := range order[b:end] {
				scratch = append(scratch, split.Train[ix])
			}
			epochLoss += stepBatch(workers, losses, scratch, step)
			optim.StepShards(opt, shards, cfg.GradClip)
		}
		nBatches := (len(order) + cfg.BatchSize - 1) / cfg.BatchSize
		stat := EpochStat{
			Epoch:    epoch + 1,
			Loss:     epochLoss / float64(nBatches),
			Duration: time.Since(epochStart),
		}
		hist.Epochs = append(hist.Epochs, stat)
		if cfg.Logf != nil {
			cfg.Logf("epoch %d/%d loss=%.4f (%.2fs)", stat.Epoch, cfg.Epochs, stat.Loss, stat.Duration.Seconds())
		}
	}
	hist.Total = time.Since(start)
	return hist, nil
}

// rankingLoss is the BPR loss of Eq. (21): for each positive instance it
// draws the worker's configured number of corrupted candidates and minimises
// −log σ(ŷ⁺ − ŷ⁻) averaged over the triples. All candidates of one instance
// share the dynamic subgraph when m is a SharedScorer.
func rankingLoss(m Model) lossFn {
	return func(t *ag.Tape, w *worker, inst feature.Instance) *ag.Node {
		scores := w.scoreWithNegatives(t, m, inst)
		pos := scores[0]
		terms := w.terms[:0]
		for _, neg := range scores[1:] {
			// −log σ(pos−neg) = softplus(neg−pos)
			terms = append(terms, t.Softplus(t.Sub(neg, pos)))
		}
		w.terms = terms
		return t.MeanScalars(terms)
	}
}

// classificationLoss is the log loss of Eq. (24) over the observed positive
// and uniformly sampled unobserved negatives. BCE-with-logits keeps the loss
// finite for confident mistakes.
func classificationLoss(m Model) lossFn {
	return func(t *ag.Tape, w *worker, inst feature.Instance) *ag.Node {
		scores := w.scoreWithNegatives(t, m, inst)
		terms := w.terms[:0]
		// BCE(x, y=1) = softplus(−x)
		terms = append(terms, t.Softplus(t.Neg(scores[0])))
		for _, neg := range scores[1:] {
			// BCE(x, y=0) = softplus(x)
			terms = append(terms, t.Softplus(neg))
		}
		w.terms = terms
		return t.MeanScalars(terms)
	}
}

// regressionLoss is the squared error loss of Eq. (26) against the instance
// labels (ratings).
func regressionLoss(m Model) lossFn {
	return func(t *ag.Tape, w *worker, inst feature.Instance) *ag.Node {
		diff := t.AddConst(m.Score(t, inst), -inst.Label)
		return t.Square(diff)
	}
}

// lossFor maps a dataset task to its loss.
func lossFor(m Model, task data.Task) (lossFn, error) {
	switch task {
	case data.Ranking:
		return rankingLoss(m), nil
	case data.Classification:
		return classificationLoss(m), nil
	case data.Regression:
		return regressionLoss(m), nil
	default:
		return nil, fmt.Errorf("train: unknown task %v", task)
	}
}

// Ranking trains m with the BPR loss of Eq. (21).
func Ranking(m Model, split *data.Split, cfg Config) (*History, error) {
	return run(m, split, cfg, data.Ranking)
}

// Classification trains m with the log loss of Eq. (24) over the observed
// positives and cfg.Negatives uniformly sampled unobserved negatives per
// positive.
func Classification(m Model, split *data.Split, cfg Config) (*History, error) {
	return run(m, split, cfg, data.Classification)
}

// Regression trains m with the squared error loss of Eq. (26) against the
// instance labels (ratings).
func Regression(m Model, split *data.Split, cfg Config) (*History, error) {
	return run(m, split, cfg, data.Regression)
}
