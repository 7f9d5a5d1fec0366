package train

import (
	"math"
	"slices"
	"testing"

	"seqfm/internal/data"
)

// TestCompiledEngineMatchesTapeOneEpoch pins the cross-engine training
// contract at the public API: with one batch per epoch (no optimizer step
// between forward values) the compiled engine reports a bit-identical epoch
// loss to the tape engine — including with dropout active, since the compiled
// forward draws its masks in the tape's order from the same worker stream —
// and produces near-identical parameters (gradients agree up to IEEE
// reassociation).
func TestCompiledEngineMatchesTapeOneEpoch(t *testing.T) {
	const tol = 1e-9
	d := popularityDataset()
	split := data.NewSplit(d)
	for name, trainFn := range map[string]func(Model, *data.Split, Config) (*History, error){
		"ranking":        Ranking,
		"classification": Classification,
	} {
		for _, keepProb := range []float64{1, 0.8} {
			cfg := Config{Epochs: 1, BatchSize: 64, LR: 0.01, Negatives: 3, Seed: 5, Workers: 2}

			tapeM := seqfmModel(t, d, keepProb)
			cfg.Engine = EngineTape
			histTape, err := trainFn(tapeM, split, cfg)
			if err != nil {
				t.Fatal(err)
			}
			compM := seqfmModel(t, d, keepProb)
			cfg.Engine = EngineCompiled
			histComp, err := trainFn(compM, split, cfg)
			if err != nil {
				t.Fatal(err)
			}

			if histComp.FinalLoss() != histTape.FinalLoss() {
				t.Fatalf("%s keep=%v: epoch loss compiled %v != tape %v (must be bit-identical)",
					name, keepProb, histComp.FinalLoss(), histTape.FinalLoss())
			}
			tp, cp := tapeM.Params(), compM.Params()
			for i := range tp {
				for j, want := range tp[i].Value.Data {
					got := cp[i].Value.Data[j]
					diff := math.Abs(got - want)
					scale := math.Max(1, math.Max(math.Abs(got), math.Abs(want)))
					if diff/scale > tol {
						t.Fatalf("%s keep=%v: %s[%d]: compiled %v vs tape %v after one epoch",
							name, keepProb, tp[i].Name, j, got, want)
					}
				}
			}
		}
	}
}

// TestCompiledEngineRegressionMatchesTape covers the third task the same way.
func TestCompiledEngineRegressionMatchesTape(t *testing.T) {
	const tol = 1e-9
	d := ratingDataset()
	split := data.NewSplit(d)
	cfg := Config{Epochs: 1, BatchSize: 64, LR: 0.01, Seed: 5, Workers: 2}

	tapeM := seqfmModel(t, d, 1)
	cfg.Engine = EngineTape
	histTape, err := Regression(tapeM, split, cfg)
	if err != nil {
		t.Fatal(err)
	}
	compM := seqfmModel(t, d, 1)
	cfg.Engine = EngineCompiled
	histComp, err := Regression(compM, split, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if histComp.FinalLoss() != histTape.FinalLoss() {
		t.Fatalf("epoch loss compiled %v != tape %v", histComp.FinalLoss(), histTape.FinalLoss())
	}
	tp, cp := tapeM.Params(), compM.Params()
	for i := range tp {
		for j, want := range tp[i].Value.Data {
			got := cp[i].Value.Data[j]
			diff := math.Abs(got - want)
			scale := math.Max(1, math.Max(math.Abs(got), math.Abs(want)))
			if diff/scale > tol {
				t.Fatalf("%s[%d]: compiled %v vs tape %v", tp[i].Name, j, got, want)
			}
		}
	}
}

// TestCompiledEngineDeterministic extends the {Seed, Workers} determinism
// contract to the compiled engine, with dropout active.
func TestCompiledEngineDeterministic(t *testing.T) {
	for _, workers := range []int{1, 3} {
		cfg := Config{Epochs: 2, BatchSize: 8, LR: 0.01, Negatives: 2,
			Seed: 13, Workers: workers, Engine: EngineCompiled}
		assertIdenticalRuns(t, cfg, 0.8)
	}
}

// TestCompiledEngineLearns sanity-checks end-to-end optimisation: multiple
// epochs of compiled ranking training on learnable data decrease the loss.
func TestCompiledEngineLearns(t *testing.T) {
	d := popularityDataset()
	split := data.NewSplit(d)
	m := seqfmModel(t, d, 1)
	hist, err := Ranking(m, split, Config{Epochs: 5, BatchSize: 16, LR: 0.02,
		Negatives: 2, Seed: 3, Engine: EngineCompiled})
	if err != nil {
		t.Fatal(err)
	}
	if hist.FinalLoss() >= hist.Epochs[0].Loss {
		t.Fatalf("compiled loss %.4f -> %.4f did not decrease",
			hist.Epochs[0].Loss, hist.FinalLoss())
	}
}

// TestCompiledEngineRejectsUncompilableModels pins the fallback boundary:
// models without a structural spec error out rather than silently degrading.
func TestCompiledEngineRejectsUncompilableModels(t *testing.T) {
	d := popularityDataset()
	split := data.NewSplit(d)
	m := newBiasModel(d.NumObjects)
	cfg := Config{Epochs: 1, Engine: EngineCompiled}
	if _, err := Ranking(m, split, cfg); err == nil {
		t.Fatal("compiled engine accepted a spec-less model")
	}
	if _, err := NewStepper(m, d, data.Ranking, nil, cfg); err == nil {
		t.Fatal("compiled stepper accepted a spec-less model")
	}
}

// TestDefaultEngineFollowsModel pins the resolution of an empty
// Config.Engine: a model with a compilable spec (core.Model) trains exactly
// as under EngineCompiled, and a spec-less one (monolithicModel) exactly as
// under EngineTape — same losses and same parameter bits, through both the
// epoch loop (Ranking) and the incremental engine (NewStepper).
func TestDefaultEngineFollowsModel(t *testing.T) {
	d := popularityDataset()
	split := data.NewSplit(d)
	cfg := Config{Epochs: 2, BatchSize: 16, LR: 0.01, Negatives: 3, Seed: 5, Workers: 2}

	// trace trains a fresh SeqFM, wrapped or not, on engine and returns every
	// loss it reported and the bits of its final parameters.
	trace := func(engine string, wrap, stepper bool) ([]float64, []uint64) {
		m := seqfmModel(t, d, 0.8)
		var model Model = m
		if wrap {
			model = monolithicModel{m}
		}
		c := cfg
		c.Engine = engine
		var losses []float64
		if stepper {
			s, err := NewStepper(model, d, data.Ranking, nil, c)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				losses = append(losses, s.Step(split.Train[4*i:4*i+8]))
			}
		} else {
			hist, err := Ranking(model, split, c)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range hist.Epochs {
				losses = append(losses, e.Loss)
			}
		}
		var bits []uint64
		for _, p := range m.Params() {
			for _, v := range p.Value.Data {
				bits = append(bits, math.Float64bits(v))
			}
		}
		return losses, bits
	}

	for _, tc := range []struct {
		name   string
		wrap   bool
		engine string
	}{
		{"core.Model resolves compiled", false, EngineCompiled},
		{"spec-less model resolves tape", true, EngineTape},
	} {
		for _, stepper := range []bool{false, true} {
			gotL, gotB := trace("", tc.wrap, stepper)
			wantL, wantB := trace(tc.engine, tc.wrap, stepper)
			if !slices.Equal(gotL, wantL) {
				t.Fatalf("%s (stepper %v): default-engine losses %v, want %v", tc.name, stepper, gotL, wantL)
			}
			if !slices.Equal(gotB, wantB) {
				t.Fatalf("%s (stepper %v): default-engine parameters differ from %s's", tc.name, stepper, tc.engine)
			}
		}
	}
}

func TestUnknownEngineErrors(t *testing.T) {
	d := popularityDataset()
	split := data.NewSplit(d)
	m := seqfmModel(t, d, 1)
	if _, err := Ranking(m, split, Config{Epochs: 1, Engine: "jit"}); err == nil {
		t.Fatal("unknown engine accepted by run")
	}
	if _, err := NewStepper(m, d, data.Ranking, nil, Config{Engine: "jit"}); err == nil {
		t.Fatal("unknown engine accepted by NewStepper")
	}
}

// TestCompiledStepperMatchesTape pins the incremental engine: the first Step
// (identical pre-step parameters, stream seeds derived identically from the
// step counter) reports a bit-identical batch loss on both engines, and
// repeated compiled steppers are bit-reproducible.
func TestCompiledStepperMatchesTape(t *testing.T) {
	d := popularityDataset()
	split := data.NewSplit(d)
	batch := split.Train[:12]
	cfg := Config{LR: 0.01, Negatives: 2, Seed: 7, Workers: 2}

	mkStepper := func(engine string, keepProb float64) (*Stepper, Model) {
		m := seqfmModel(t, d, keepProb)
		c := cfg
		c.Engine = engine
		s, err := NewStepper(m, d, data.Ranking, nil, c)
		if err != nil {
			t.Fatal(err)
		}
		return s, m
	}

	for _, keepProb := range []float64{1, 0.8} {
		st, _ := mkStepper(EngineTape, keepProb)
		sc, _ := mkStepper(EngineCompiled, keepProb)
		lt := st.Step(batch)
		lc := sc.Step(batch)
		if lt != lc {
			t.Fatalf("keep=%v: first-step loss compiled %v != tape %v", keepProb, lc, lt)
		}
	}

	// Reproducibility across fresh compiled steppers over several steps.
	run := func() []float64 {
		s, _ := mkStepper(EngineCompiled, 0.8)
		var out []float64
		for i := 0; i < 3; i++ {
			out = append(out, s.Step(batch))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d: compiled stepper loss %v != %v across identical runs", i, a[i], b[i])
		}
	}
}

// TestEvalCompiledMatchesTape pins the evaluation protocols' scoring switch: a
// SeqFM model is scored through one plan.Exec per worker (a user's candidates
// sharing one dynamic phase), anything else through a tape per instance, and
// the metrics are equal to the last bit — the compiled forward is
// bit-identical to the tape's, and the sampler streams do not depend on the
// scorer. monolithicModel hides the model's Spec, forcing the tape.
func TestEvalCompiledMatchesTape(t *testing.T) {
	cfg := EvalConfig{J: 20, Seed: 7, Workers: 2}

	d := popularityDataset()
	split := data.NewSplit(d)
	m := seqfmModel(t, d, 1)
	if _, err := Ranking(m, split, Config{Epochs: 1, BatchSize: 64, LR: 0.01, Negatives: 2, Seed: 5, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	rc, rt := EvalRanking(m, split, cfg), EvalRanking(monolithicModel{m}, split, cfg)
	for _, k := range []int{5, 10, 20} {
		if rc.HR[k] != rt.HR[k] || rc.NDCG[k] != rt.NDCG[k] {
			t.Fatalf("ranking @%d: compiled HR %v NDCG %v, tape HR %v NDCG %v", k, rc.HR[k], rc.NDCG[k], rt.HR[k], rt.NDCG[k])
		}
	}
	if cc, ct := EvalClassification(m, split, cfg), EvalClassification(monolithicModel{m}, split, cfg); cc != ct {
		t.Fatalf("classification: compiled %+v, tape %+v", cc, ct)
	}

	rd := ratingDataset()
	rm := seqfmModel(t, rd, 1)
	rsplit := data.NewSplit(rd)
	if gc, gt := EvalRegression(rm, rsplit, cfg), EvalRegression(monolithicModel{rm}, rsplit, cfg); gc != gt {
		t.Fatalf("regression: compiled %+v, tape %+v", gc, gt)
	}
}
