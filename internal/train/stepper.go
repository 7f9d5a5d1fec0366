package train

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"seqfm/internal/ag"
	"seqfm/internal/data"
	"seqfm/internal/feature"
	"seqfm/internal/optim"
)

// Stepper is the incremental face of the sharded training engine: the same
// per-worker tapes, private gradient shards and worker-order merge as the
// epoch loop (run), but driven one caller-supplied minibatch at a time. It is
// the engine behind online fine-tuning (internal/online), where batches are
// drained from a live event stream rather than shuffled from a fixed split.
//
// Restart-exact determinism: unlike the epoch loop's persistent per-worker
// random streams, a Stepper rederives every worker's dropout and
// negative-sampling stream from {Config.Seed, step counter, worker index}
// before each minibatch. A Stepper's entire stochastic state is therefore its
// step counter: restoring a ckpt-v2 snapshot (params + Adam state) and
// SetSteps to the saved counter continues training bit-identically to the run
// that wrote the snapshot, for the same subsequent batches at fixed
// {Seed, Workers}.
//
// A Stepper is not safe for concurrent use; serialise Step, Export and
// checkpoint calls.
type Stepper struct {
	m        Model
	cfg      Config
	do       stepFn
	opt      optim.Optimizer
	workers  []*worker
	shards   []*ag.GradShard
	losses   []float64
	tapeHint atomic.Int64
	step     int64
}

// NewStepper builds an incremental trainer for m with the task-appropriate
// loss (BPR for ranking, BCE for classification, squared error for
// regression). ds supplies the negative-sampling index and side-information
// tables; it must cover the same feature space as the instances later passed
// to Step. opt, when nil, defaults to a fresh Adam at cfg.LR; pass an
// optimizer restored from a checkpoint to warm-start fine-tuning.
func NewStepper(m Model, ds *data.Dataset, task data.Task, opt optim.Optimizer, cfg Config) (*Stepper, error) {
	if ds == nil {
		return nil, fmt.Errorf("train: NewStepper requires a dataset")
	}
	cfg = cfg.withDefaults()
	params := m.Params()
	if opt == nil {
		opt = optim.NewAdam(params, cfg.LR)
	}
	s := &Stepper{m: m, cfg: cfg, opt: opt}

	do, pl, err := engineFor(m, task, cfg.Engine, &s.tapeHint)
	if err != nil {
		return nil, err
	}
	s.do = do

	s.workers = make([]*worker, cfg.Workers)
	s.shards = make([]*ag.GradShard, cfg.Workers)
	s.losses = make([]float64, cfg.Workers)
	for i := range s.workers {
		// The dropout and sampler streams are placeholders: Step rederives
		// both from the step counter before every minibatch, so worker state
		// never accumulates stochastic history that a checkpoint could not
		// capture.
		s.workers[i] = &worker{
			ds:        ds,
			shard:     ag.NewGradShard(params),
			negatives: cfg.Negatives,
		}
		if pl != nil {
			s.workers[i].exec = pl.NewExec()
		} else {
			s.workers[i].tape = ag.NewTrainingTape(nil)
		}
		if task != data.Regression {
			s.workers[i].sampler = data.NewNegativeSampler(ds, rand.New(rand.NewSource(0)))
		}
		s.shards[i] = s.workers[i].shard
	}
	return s, nil
}

// mix64 is the splitmix64 finalizer, used to decorrelate stream seeds.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// streamSeed derives the seed of one worker's random stream for one step.
// Mixing each component through splitmix64 keeps every {seed, step, worker,
// kind} stream pairwise decorrelated without any stateful bookkeeping.
func streamSeed(seed, step int64, worker, kind int) int64 {
	h := mix64(uint64(seed) + 0x9e3779b97f4a7c15)
	h = mix64(h + uint64(step))
	h = mix64(h + uint64(worker)*2 + uint64(kind))
	return int64(h)
}

// Step runs one minibatch over the caller-supplied instances: reseed the
// per-worker streams from the step counter, fan the batch out (each worker
// accumulating into its private shard), merge the shards in worker order and
// apply one optimizer step. It returns the batch's mean loss. An empty batch
// is a no-op and does not advance the step counter.
func (s *Stepper) Step(batch []feature.Instance) float64 {
	if len(batch) == 0 {
		return 0
	}
	s.step++
	for i, wk := range s.workers {
		dropoutRng := rand.New(rand.NewSource(streamSeed(s.cfg.Seed, s.step, i, 1)))
		if wk.exec != nil {
			wk.exec.SetRNG(dropoutRng)
		} else {
			wk.tape.SetRNG(dropoutRng)
		}
		if wk.sampler != nil {
			wk.sampler.Reseed(rand.New(rand.NewSource(streamSeed(s.cfg.Seed, s.step, i, 0))))
		}
	}
	loss := stepBatch(s.workers, s.losses, batch, s.do)
	optim.StepShards(s.opt, s.shards, s.cfg.GradClip)
	return loss
}

// MarkSeen records a new (user, object) interaction in every worker's
// negative-sampling index, so subsequent Steps stop drawing the object as
// one of the user's negatives. The online learner calls it for each event
// just before training on it; the seen index is therefore a deterministic
// function of the trained event sequence, which keeps checkpoint-restored
// runs (which replay that sequence) bit-identical. Not safe concurrently
// with Step.
func (s *Stepper) MarkSeen(user, object int) {
	for _, wk := range s.workers {
		if wk.sampler != nil {
			wk.sampler.MarkSeen(user, object)
		}
	}
}

// SamplerSeenDelta returns, per user and sorted, the objects MarkSeen added
// to the negative-sampling index beyond the dataset (one representative
// worker's data.NegativeSampler.SeenDelta — MarkSeen fans out to every
// worker, so all record the same additions); nil for regression tasks, which
// sample no negatives. The self-contained checkpoint persists it: it is the
// sampler state a compacted log can no longer rebuild. Not safe
// concurrently with Step or MarkSeen.
func (s *Stepper) SamplerSeenDelta() map[int][]int {
	if len(s.workers) == 0 || s.workers[0].sampler == nil {
		return nil
	}
	return s.workers[0].sampler.SeenDelta()
}

// Steps returns how many minibatches the stepper has applied. Persist it next
// to the optimizer state: restoring both resumes the random streams exactly.
func (s *Stepper) Steps() int64 { return s.step }

// SetSteps overwrites the step counter, aligning the derived random streams
// with a restored checkpoint.
func (s *Stepper) SetSteps(n int64) { s.step = n }

// Optimizer returns the optimizer the stepper steps — export its state
// (optim.Adam.Export) when checkpointing so fine-tuning warm-starts.
func (s *Stepper) Optimizer() optim.Optimizer { return s.opt }

// Model returns the model being fine-tuned.
func (s *Stepper) Model() Model { return s.m }
