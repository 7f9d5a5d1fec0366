// Package seqfm is a from-scratch Go implementation of "Sequence-Aware
// Factorization Machines for Temporal Predictive Analytics" (Chen, Yin,
// Nguyen, Peng, Li, Zhou — ICDE 2020).
//
// SeqFM splits sparse categorical features into a static view (user,
// candidate object, side information) and a dynamic view (the user's
// chronological interaction history), models the feature interactions of
// each view — and the cross interactions between them — with masked
// self-attention heads, pools each view, refines the pooled vectors with a
// shared residual feed-forward network and projects the aggregate to a
// scalar prediction. The same model serves ranking (BPR loss),
// classification (log loss) and regression (squared loss).
//
// This package is the public facade over the internal substrates (tensor
// math, reverse-mode autodiff, layers, optimizers, datasets, trainers). A
// typical ranking workflow:
//
//	ds, _ := seqfm.GeneratePOI(seqfm.GowallaConfig(0.01, 1))
//	split := seqfm.NewSplit(ds)
//	model, _ := seqfm.New(seqfm.DefaultConfig(ds.Space()))
//	seqfm.TrainRanking(model, split, seqfm.TrainConfig{Epochs: 10})
//	result := seqfm.EvalRanking(model, split, seqfm.EvalConfig{J: 100})
//	fmt.Println(result.HR[10])
//
// For serving, NewEngine wraps a trained model in a batched inference
// engine (compiled execution plans, cached partial forwards, top-K
// scoring); the cmd/seqfm-serve binary exposes it over HTTP.
//
// See the examples directory for runnable programs covering the paper's
// three application scenarios, and DESIGN.md/EXPERIMENTS.md for the
// reproduction methodology.
package seqfm

import (
	"seqfm/internal/core"
	"seqfm/internal/data"
	"seqfm/internal/feature"
	"seqfm/internal/train"
)

// Model is the SeqFM model (internal/core.Model).
type Model = core.Model

// Config parameterises SeqFM; see DefaultConfig for the paper's defaults.
type Config = core.Config

// Ablation switches off SeqFM components (Table V variants).
type Ablation = core.Ablation

// AttentionWeights holds the three views' attention distributions for one
// instance, as returned by (*Model).Inspect — an interpretability hook.
// (*Model).Save and (*Model).Load checkpoint weights to any io.Writer/Reader.
type AttentionWeights = core.AttentionWeights

// New builds a SeqFM model.
func New(cfg Config) (*Model, error) { return core.New(cfg) }

// DefaultConfig returns the paper's unified hyperparameter set
// {d=64, l=1, n.=20, ρ=0.6} for the given feature space.
func DefaultConfig(space Space) Config { return core.DefaultConfig(space) }

// Space describes the sparse one-hot feature space (static + dynamic).
type Space = feature.Space

// Instance is one prediction case: (user, target, chronological history).
type Instance = feature.Instance

// Dataset is a chronologically ordered interaction log.
type Dataset = data.Dataset

// Interaction is one timestamped user-object event.
type Interaction = data.Interaction

// Split is the leave-one-out train/validation/test split of §V-C.
type Split = data.Split

// Stats summarises a dataset the way the paper's Table I does.
type Stats = data.Stats

// Task identifies ranking, classification or regression.
type Task = data.Task

// The three temporal predictive analytics tasks.
const (
	Ranking        = data.Ranking
	Classification = data.Classification
	Regression     = data.Regression
)

// NewSplit materialises the leave-one-out split for a dataset.
func NewSplit(d *Dataset) *Split { return data.NewSplit(d) }

// ComputeStats derives Table I statistics from a dataset.
func ComputeStats(d *Dataset) Stats { return data.ComputeStats(d) }

// FilterInactive applies the paper's preprocessing: drop users with fewer
// than minUser interactions and objects with fewer than minObject.
func FilterInactive(d *Dataset, minUser, minObject int) *Dataset {
	return data.FilterInactive(d, minUser, minObject)
}

// Synthetic dataset generators standing in for the paper's six datasets.
// See DESIGN.md §1 for the substitution rationale.
type (
	// POIConfig drives the check-in generator (Gowalla/Foursquare stand-in).
	POIConfig = data.POIConfig
	// CTRConfig drives the click-log generator (Trivago/Taobao stand-in).
	CTRConfig = data.CTRConfig
	// RatingConfig drives the rating generator (Beauty/Toys stand-in).
	RatingConfig = data.RatingConfig
)

// GeneratePOI builds a synthetic check-in dataset.
func GeneratePOI(cfg POIConfig) (*Dataset, error) { return data.GeneratePOI(cfg) }

// GenerateCTR builds a synthetic click-log dataset.
func GenerateCTR(cfg CTRConfig) (*Dataset, error) { return data.GenerateCTR(cfg) }

// GenerateRating builds a synthetic rating dataset.
func GenerateRating(cfg RatingConfig) (*Dataset, error) { return data.GenerateRating(cfg) }

// Preset generator configurations; scale=1 matches the paper's Table I.
var (
	GowallaConfig    = data.GowallaConfig
	FoursquareConfig = data.FoursquareConfig
	TrivagoConfig    = data.TrivagoConfig
	TaobaoConfig     = data.TaobaoConfig
	BeautyConfig     = data.BeautyConfig
	ToysConfig       = data.ToysConfig
)

// Scorer is the model interface shared by SeqFM and every baseline: a raw
// score for one instance recorded on an autodiff tape.
type Scorer = train.Model

// SharedScorer is the candidate-sharing training contract implemented by
// *Model: the forward pass decomposed into a differentiable
// candidate-independent dynamic subgraph (ForwardDynamic, built once per
// instance) and a per-candidate remainder (ForwardCandidate). The ranking
// and classification trainers detect it automatically and score the
// positive plus all sampled negatives against one shared subgraph; the
// serving engine snapshots the same decomposition. See DESIGN.md §4–5.
type SharedScorer = train.SharedScorer

// Dyn is the on-tape candidate-independent subgraph returned by
// (*Model).ForwardDynamic and consumed by (*Model).ForwardCandidate.
type Dyn = core.Dyn

// TrainConfig controls optimisation (epochs, batch size, Adam LR, negative
// samples, worker parallelism). Training is bit-for-bit reproducible for a
// fixed {Seed, Workers} pair; see train.Config's determinism contract.
type TrainConfig = train.Config

// TrainHistory records per-epoch losses and total wall-clock time.
type TrainHistory = train.History

// EvalConfig controls evaluation (J candidates, cutoffs, parallelism).
type EvalConfig = train.EvalConfig

// Task-specific evaluation results.
type (
	// RankingResult holds HR@K and NDCG@K.
	RankingResult = train.RankingResult
	// ClassificationResult holds AUC and RMSE.
	ClassificationResult = train.ClassificationResult
	// RegressionResult holds MAE and RRSE.
	RegressionResult = train.RegressionResult
)

// TrainRanking optimises a model with the BPR loss of Eq. (21).
func TrainRanking(m Scorer, split *Split, cfg TrainConfig) (*TrainHistory, error) {
	return train.Ranking(m, split, cfg)
}

// TrainClassification optimises a model with the log loss of Eq. (24).
func TrainClassification(m Scorer, split *Split, cfg TrainConfig) (*TrainHistory, error) {
	return train.Classification(m, split, cfg)
}

// TrainRegression optimises a model with the squared loss of Eq. (26).
func TrainRegression(m Scorer, split *Split, cfg TrainConfig) (*TrainHistory, error) {
	return train.Regression(m, split, cfg)
}

// EvalRanking runs the leave-one-out ranking protocol (HR@K, NDCG@K).
func EvalRanking(m Scorer, split *Split, cfg EvalConfig) RankingResult {
	return train.EvalRanking(m, split, cfg)
}

// EvalClassification runs the CTR protocol (AUC, RMSE).
func EvalClassification(m Scorer, split *Split, cfg EvalConfig) ClassificationResult {
	return train.EvalClassification(m, split, cfg)
}

// EvalRegression scores held-out ratings (MAE, RRSE).
func EvalRegression(m Scorer, split *Split, cfg EvalConfig) RegressionResult {
	return train.EvalRegression(m, split, cfg)
}

// Score runs one inference-mode forward pass and returns the raw scalar
// output of Eq. (19) for inst. Models exposing a structural spec (SeqFM
// itself) are scored through a cached compiled plan with pooled scratch
// buffers — bit-identical to the tape but allocation-free after the first
// call; baselines fall back to a pooled inference tape.
func Score(m Scorer, inst Instance) float64 {
	if pl := compiledFor(m); pl != nil {
		e := pl.Get()
		s := e.Score(inst)
		pl.Put(e)
		return s
	}
	t := newInferenceTape()
	defer releaseInferenceTape(t)
	return m.Score(t, inst).Value.ScalarValue()
}
