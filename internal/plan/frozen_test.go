package plan_test

import (
	"fmt"
	"testing"

	"seqfm/internal/ag"
	"seqfm/internal/core"
	"seqfm/internal/feature"
	"seqfm/internal/plan"
)

// inferenceMatrix is the cross product the inference paths must hold parity
// over: every component ablation × MaskPadding × n° ∈ {2,3,4} (no side
// features, user attributes, user and item attributes) × FFN depth.
func inferenceMatrix() map[string]core.Config {
	cfgs := map[string]core.Config{}
	for abName, ab := range map[string]core.Ablation{
		"full":       {},
		"noStatic":   {NoStaticView: true},
		"noDynamic":  {NoDynamicView: true},
		"noCross":    {NoCrossView: true},
		"noResidual": {NoResidual: true},
		"noLN":       {NoLayerNorm: true},
	} {
		for _, maskPad := range []bool{false, true} {
			for _, attrs := range [][2]int{{0, 0}, {3, 0}, {3, 4}} {
				for _, layers := range []int{1, 2} {
					c := testConfig()
					c.Ablation = ab
					c.MaskPadding = maskPad
					c.Space.NumUserAttrs, c.Space.NumItemAttrs = attrs[0], attrs[1]
					c.Layers = layers
					name := fmt.Sprintf("%s/maskPad=%v/attrs=%v/L=%d", abName, maskPad, attrs, layers)
					cfgs[name] = c
				}
			}
		}
	}
	return cfgs
}

// matrixInstance is testInstance with whatever side features sp declares.
func matrixInstance(sp feature.Space, hist []int) feature.Instance {
	inst := testInstance()
	inst.Hist = hist
	if sp.NumUserAttrs > 0 {
		inst.UserAttr = 2
	}
	if sp.NumItemAttrs > 0 {
		inst.TargetAttr = 1
	}
	return inst
}

// TestInferenceMatchesTapeBitForBit pins every inference entry point of both
// plan kinds — Score, the shared-candidate Forward, PrecomputeDynamic and
// ScoreFast with the static view computed and injected — to the tape, bit for
// bit, over inferenceMatrix and histories shorter than, equal to and longer
// than n. (including none at all), and pins DynState interchange in both
// directions: a plan-built snapshot scored by the tape engine, a tape-built
// one scored by the plan. Each case runs twice on one Exec, so a frozen plan
// is checked both while it fills its tables and when it reads them back.
func TestInferenceMatchesTapeBitForBit(t *testing.T) {
	kinds := map[string]func(any) (*plan.Plan, error){"live": plan.For, "frozen": plan.Frozen}
	for name, cfg := range inferenceMatrix() {
		m, err := core.New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for kind, compile := range kinds {
			p, err := compile(m)
			if err != nil {
				t.Fatalf("%s %s: %v", name, kind, err)
			}
			e := p.NewExec()
			tape := ag.NewTape()
			for _, hist := range histVariants() {
				base := matrixInstance(cfg.Space, hist)
				insts := []feature.Instance{base}
				for k := 1; k <= 3; k++ {
					neg := base
					neg.Target = (base.Target + k) % cfg.Space.NumObjects
					insts = append(insts, neg)
				}
				want := make([]float64, len(insts))
				for i, inst := range insts {
					want[i] = scoreRef(m, inst)
				}
				for pass := 0; pass < 2; pass++ {
					at := fmt.Sprintf("%s %s hist %v pass %d", name, kind, hist, pass)
					if got := e.Score(base); got != want[0] {
						t.Errorf("%s: Score=%v, tape=%v", at, got, want[0])
					}
					for i, got := range e.Forward(insts, false) {
						if got != want[i] {
							t.Errorf("%s: Forward[%d]=%v, tape=%v", at, i, got, want[i])
						}
					}
					pdyn := e.PrecomputeDynamic(hist)
					tape.Reset()
					tdyn := m.PrecomputeDynamic(tape, hist)
					for i, inst := range insts {
						got, hS := e.ScoreFast(pdyn, inst, nil)
						if got != want[i] {
							t.Errorf("%s: ScoreFast[%d]=%v, tape=%v", at, i, got, want[i])
						}
						if got, _ := e.ScoreFast(pdyn, inst, hS); got != want[i] {
							t.Errorf("%s: ScoreFast[%d] injected hS=%v, tape=%v", at, i, got, want[i])
						}
						if got, _ := e.ScoreFast(tdyn, inst, nil); got != want[i] {
							t.Errorf("%s: plan over tape DynState [%d]=%v, tape=%v", at, i, got, want[i])
						}
						tape.Reset()
						if got, _ := m.ScoreFast(tape, pdyn, inst, hS); got != want[i] {
							t.Errorf("%s: tape over plan DynState [%d]=%v, tape=%v", at, i, got, want[i])
						}
					}
				}
			}
		}
	}
}

// TestFrozenPlanRejectsTraining: a frozen plan caches projections of weights
// an optimizer would move, so a training forward is a bug, not a slow path.
func TestFrozenPlanRejectsTraining(t *testing.T) {
	m, err := core.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Frozen(m)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("training Forward on a frozen plan did not panic")
		}
	}()
	p.NewExec().Forward(candidateSet(1), true)
}
