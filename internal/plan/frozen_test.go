package plan_test

import (
	"fmt"
	"math"
	"runtime"
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
// directions: each plan kind scores the other's snapshot, and the other kind
// scores its snapshot with its static-view vector injected. Each case runs
// twice on one Exec, so a frozen plan is checked both while it fills its
// tables and when it reads them back; the frozen kind runs first so that its
// own first pass is the one that fills them.
func TestInferenceMatchesTapeBitForBit(t *testing.T) {
	kinds := [2]struct {
		name    string
		compile func(any) (*plan.Plan, error)
	}{{"frozen", plan.Frozen}, {"live", plan.For}}
	for name, cfg := range inferenceMatrix() {
		m, err := core.New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var execs [2]*plan.Exec
		for k, kind := range kinds {
			p, err := kind.compile(m)
			if err != nil {
				t.Fatalf("%s %s: %v", name, kind.name, err)
			}
			execs[k] = p.NewExec()
		}
		for k, kind := range kinds {
			e, other, otherKind := execs[k], execs[1-k], kinds[1-k].name
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
					at := fmt.Sprintf("%s %s hist %v pass %d", name, kind.name, hist, pass)
					if got := e.Score(base); got != want[0] {
						t.Errorf("%s: Score=%v, tape=%v", at, got, want[0])
					}
					for i, got := range e.Forward(insts, false) {
						if got != want[i] {
							t.Errorf("%s: Forward[%d]=%v, tape=%v", at, i, got, want[i])
						}
					}
					pdyn := e.PrecomputeDynamic(hist)
					odyn := other.PrecomputeDynamic(hist)
					for i, inst := range insts {
						got, hS := e.ScoreFast(pdyn, inst, nil)
						if got != want[i] {
							t.Errorf("%s: ScoreFast[%d]=%v, tape=%v", at, i, got, want[i])
						}
						if got, _ := e.ScoreFast(pdyn, inst, hS); got != want[i] {
							t.Errorf("%s: ScoreFast[%d] injected hS=%v, tape=%v", at, i, got, want[i])
						}
						if got, _ := e.ScoreFast(odyn, inst, nil); got != want[i] {
							t.Errorf("%s: over %s DynState [%d]=%v, tape=%v", at, otherKind, i, got, want[i])
						}
						if got, _ := other.ScoreFast(pdyn, inst, hS); got != want[i] {
							t.Errorf("%s: %s over this DynState, injected hS [%d]=%v, tape=%v", at, otherKind, i, got, want[i])
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

// TestCrossMemoMatchesFreshScore drives one Exec through every way its
// cross-view memo (Exec.crossRows) can go stale and holds each score, bit for
// bit, to a fresh Exec's Score and to the tape: candidate streams under one
// DynState where the user or an attribute changes mid-stream, the same statics
// under a second DynState and back, snapshots dropped and reallocated between
// calls, PrecomputeDynamic / Score / Forward cutting in under one DynState
// and between two scored alternately (whose cross row-blocks the Exec must
// then re-derive), and histories of every pad count from all-padded to
// overfull — over inferenceMatrix, so every ablation, n° ∈ {2,3,4} and
// MaskPadding both ways, on live and frozen plans.
func TestCrossMemoMatchesFreshScore(t *testing.T) {
	kinds := map[string]func(any) (*plan.Plan, error){"live": plan.For, "frozen": plan.Frozen}
	hists := [][]int{nil, {8}, {3, 8}, {1, 7, 3}, {1, 2, 3, 4}, {0, 1, 2, 3, 4, 5, 6}}
	for name, cfg := range inferenceMatrix() {
		m, err := core.New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sp := cfg.Space
		// statics: users and targets, and every attribute combination the
		// space declares, ordered so consecutive entries share some static
		// positions and differ in others.
		var statics []feature.Instance
		for k := 0; k < 12; k++ {
			inst := matrixInstance(sp, nil)
			inst.User = []int{2, 2, 2, 4, 4, 2}[k%6]
			inst.Target = []int{5, 6, 5, 5, 7, 7}[k%6]
			if sp.NumUserAttrs > 0 {
				inst.UserAttr = (k / 3) % sp.NumUserAttrs
			}
			if sp.NumItemAttrs > 0 {
				inst.TargetAttr = (k / 2) % sp.NumItemAttrs
			}
			statics = append(statics, inst)
		}
		for kind, compile := range kinds {
			p, err := compile(m)
			if err != nil {
				t.Fatalf("%s %s: %v", name, kind, err)
			}
			e, aux := p.NewExec(), p.NewExec()
			check := func(what string, got float64, inst feature.Instance) {
				t.Helper()
				if want := p.NewExec().Score(inst); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s %s %s: %v, fresh Exec %v", name, kind, what, got, want)
				}
				if want := scoreRef(m, inst); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s %s %s: %v, tape %v", name, kind, what, got, want)
				}
			}
			fast := func(what string, st *core.DynState, inst feature.Instance, hist []int) {
				t.Helper()
				got, _ := e.ScoreFast(st, inst, nil)
				inst.Hist = hist
				check(what, got, inst)
			}
			dyns := make([]*core.DynState, len(hists))
			for i, h := range hists {
				dyns[i] = aux.PrecomputeDynamic(h)
			}
			// One DynState per pad count; users, targets and attributes change
			// under it in every pattern statics holds.
			for i, h := range hists {
				for k, inst := range statics {
					fast(fmt.Sprintf("hist %v stream[%d]", h, k), dyns[i], inst, h)
				}
			}
			// The same statics under alternating DynStates.
			for k := 0; k < 8; k++ {
				i := []int{3, 4, 3, 3, 0, 4, 5, 3}[k]
				fast(fmt.Sprintf("alternating[%d]", k), dyns[i], statics[k/4], hists[i])
			}
			// Snapshots dropped and reallocated: a recycled address must not
			// revive the memo of the DynState that lived there before.
			for k := 0; k < 6; k++ {
				h := hists[1+k%5]
				fast(fmt.Sprintf("reallocated[%d]", k), aux.PrecomputeDynamic(h), statics[0], h)
				runtime.GC()
			}
			// beginDynamic cuts in between two calls under one DynState.
			inst := statics[0]
			fast("before PrecomputeDynamic", dyns[3], inst, hists[3])
			e.PrecomputeDynamic(hists[4])
			fast("after PrecomputeDynamic", dyns[3], inst, hists[3])
			inst.Hist = hists[5]
			check("Score between", e.Score(inst), inst)
			fast("after Score", dyns[3], inst, hists[3])
			batch := append([]feature.Instance(nil), statics...)
			for i := range batch {
				batch[i].Hist = hists[2]
			}
			for i, got := range e.Forward(batch, false) {
				check(fmt.Sprintf("Forward[%d]", i), got, batch[i])
			}
			fast("after Forward", dyns[3], inst, hists[3])
			// Two snapshots scored alternately, a third history's dynamic
			// phase cutting in between: a DynState carries no cross
			// row-blocks, so the one scored after a cut-in or after the
			// other snapshot must re-derive them from its DynIdx.
			third := hists[5]
			for k := 0; k < 6; k++ {
				i := []int{1, 3}[k%2]
				fast(fmt.Sprintf("pair[%d] before cut-in", k), dyns[i], statics[k], hists[i])
				cut := statics[k]
				cut.Hist = third
				switch k % 3 {
				case 0:
					e.PrecomputeDynamic(third)
				case 1:
					check(fmt.Sprintf("pair[%d] Score cut-in", k), e.Score(cut), cut)
				case 2:
					check(fmt.Sprintf("pair[%d] Forward cut-in", k), e.Forward([]feature.Instance{cut}, false)[0], cut)
				}
				fast(fmt.Sprintf("pair[%d] after cut-in", k), dyns[i], statics[k+1], hists[i])
			}
			// The Exec that produced a snapshot scores it from its own buffers.
			fast("own snapshot", e.PrecomputeDynamic(third), statics[2], third)
		}
	}
}

// TestCrossMemoOnLivePlan: a live plan's memo holds projections of weights an
// optimizer may step, so it must not outlive a beginDynamic, and a training
// forward must neither read it nor leave anything in it. Weights are stepped
// between inference Forwards, and training Forward+Backward is interleaved
// with inference on one Exec; scores are held to the tape and gradients to a
// fresh Exec's, bit for bit.
func TestCrossMemoOnLivePlan(t *testing.T) {
	for _, attrs := range [][2]int{{0, 0}, {3, 4}} {
		cfg := testConfig()
		cfg.Space.NumUserAttrs, cfg.Space.NumItemAttrs = attrs[0], attrs[1]
		m, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p := compileFor(t, m)
		e := p.NewExec()
		base := matrixInstance(cfg.Space, []int{1, 7, 3})
		insts := []feature.Instance{base}
		for k := 1; k <= 4; k++ {
			neg := base
			neg.Target = (base.Target + k) % cfg.Space.NumObjects
			insts = append(insts, neg)
		}
		inference := func(what string) {
			t.Helper()
			for i, got := range e.Forward(insts, false) {
				if want := scoreRef(m, insts[i]); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("attrs %v %s: Forward[%d]=%v, tape %v", attrs, what, i, got, want)
				}
			}
		}
		inference("initial weights")
		for step := 0; step < 3; step++ {
			for _, prm := range m.Params() {
				for j := range prm.Value.Data {
					prm.Value.Data[j] += 0.01 * float64(1+(j+step)%3)
				}
			}
			inference(fmt.Sprintf("after step %d", step))
		}

		ds := make([]float64, len(insts))
		for i := range ds {
			ds[i] = 0.1 * float64(i+1)
		}
		want := ag.NewGradShard(m.Params())
		fresh := p.NewExec()
		wantScores := append([]float64(nil), fresh.Forward(insts, true)...)
		fresh.Backward(ds, want)
		got := ag.NewGradShard(m.Params())
		trained := append([]float64(nil), e.Forward(insts, true)...) // e's memo is full
		e.Backward(ds, got)
		for i := range trained {
			if math.Float64bits(trained[i]) != math.Float64bits(wantScores[i]) {
				t.Fatalf("attrs %v: training score %d = %v after inference, fresh Exec %v", attrs, i, trained[i], wantScores[i])
			}
		}
		for _, prm := range m.Params() {
			g, w := got.Grad(prm), want.Grad(prm)
			for j := range g.Data {
				if math.Float64bits(g.Data[j]) != math.Float64bits(w.Data[j]) {
					t.Fatalf("attrs %v: %s grad[%d] = %v after inference, fresh Exec %v", attrs, prm.Name, j, g.Data[j], w.Data[j])
				}
			}
		}
		inference("after training")
		st := p.NewExec().PrecomputeDynamic(base.Hist)
		for i, inst := range insts {
			if got, _ := e.ScoreFast(st, inst, nil); math.Float64bits(got) != math.Float64bits(scoreRef(m, inst)) {
				t.Fatalf("attrs %v: ScoreFast[%d] after training = %v, tape %v", attrs, i, got, scoreRef(m, inst))
			}
		}
	}
}

// TestExpOfZeroIsOne pins what softmaxScaled's skip relies on: the row
// maximum's own term, exp(x − max) with x − max = ±0, is exactly 1.
func TestExpOfZeroIsOne(t *testing.T) {
	for _, z := range []float64{0, math.Copysign(0, -1)} {
		if got := math.Exp(z); got != 1 {
			t.Fatalf("math.Exp(%v) = %v, want exactly 1", z, got)
		}
	}
}
