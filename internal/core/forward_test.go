package core

import (
	"math"
	"testing"

	"seqfm/internal/ag"
	"seqfm/internal/feature"
	"seqfm/internal/tensor"
)

// scoreMonolithicRef replicates the pre-decomposition Score exactly — fused
// cross-view projection over the concatenated feature matrix E* (Eq. 12),
// fresh subgraphs per call, one fresh tape — so it pins the row-split
// exactness claim independently of the two-phase code path (m.Score is now
// defined as that path, so comparing against m.Score alone would be
// circular).
func scoreMonolithicRef(m *Model, inst feature.Instance) float64 {
	t := ag.NewTape()
	sp := m.cfg.Space
	staticIdx := sp.StaticIndices(inst)
	dynIdx := sp.PadHist(inst.Hist, m.cfg.MaxSeqLen)
	padCount := 0
	for _, ix := range dynIdx {
		if ix < 0 {
			padCount++
		}
	}
	linear := t.Add(t.Var(m.w0),
		t.Add(t.GatherSum(m.wStatic, staticIdx), t.GatherSum(m.wDynamic, dynIdx)))
	eS := m.embS.Gather(t, staticIdx)
	eD := m.embD.Gather(t, dynIdx)
	causal, cross := m.causalMask, m.crossMask
	if m.cfg.MaskPadding {
		causal, cross = m.causalPad[padCount], m.crossPad[padCount]
	}
	var views []*ag.Node
	if !m.cfg.Ablation.NoStaticView {
		h := m.attnS.Forward(t, eS, nil)
		views = append(views, m.ffn.Forward(t, t.MeanRows(h)))
	}
	if !m.cfg.Ablation.NoDynamicView {
		h := m.attnD.Forward(t, eD, causal)
		views = append(views, m.ffn.Forward(t, t.MeanRows(h)))
	}
	if !m.cfg.Ablation.NoCrossView {
		eX := t.ConcatRows(eS, eD)
		h := m.attnX.Forward(t, eX, cross)
		views = append(views, m.ffn.Forward(t, t.MeanRows(h)))
	}
	hagg := views[0]
	if len(views) > 1 {
		hagg = t.ConcatCols(views...)
	}
	return t.Add(linear, t.Dot(t.Var(m.proj), hagg)).Value.ScalarValue()
}

// candidateSet returns one positive and n corrupted candidates sharing the
// positive's history — the shape of a BPR/log-loss training instance.
func candidateSet(n int) []feature.Instance {
	base := testInstance()
	insts := []feature.Instance{base}
	for k := 0; k < n; k++ {
		neg := base
		neg.Target = (base.Target + 1 + k) % testSpace().NumObjects
		insts = append(insts, neg)
	}
	return insts
}

// scoreRef scores inst through Score on one fresh inference tape.
func scoreRef(m *Model, inst feature.Instance) float64 {
	t := ag.NewTape()
	return m.Score(t, inst).Value.ScalarValue()
}

// parityConfigs enumerates the model variants whose two-phase forward must
// match the monolithic reference bit for bit: the full model, every
// single-component ablation, and the padding-mask extension.
func parityConfigs() map[string]Config {
	cfgs := map[string]Config{"default": testConfig()}
	for name, ab := range map[string]Ablation{
		"noStatic":   {NoStaticView: true},
		"noDynamic":  {NoDynamicView: true},
		"noCross":    {NoCrossView: true},
		"noResidual": {NoResidual: true},
		"noLN":       {NoLayerNorm: true},
	} {
		c := testConfig()
		c.Ablation = ab
		cfgs[name] = c
	}
	mp := testConfig()
	mp.MaskPadding = true
	cfgs["maskPadding"] = mp
	return cfgs
}

// TestForwardCandidateMatchesScoreBitForBit pins the tentpole's forward
// parity: every candidate scored against one shared on-tape Dyn equals the
// monolithic per-candidate Score exactly, for the full model, every ablation
// and the padding-mask extension.
func TestForwardCandidateMatchesScoreBitForBit(t *testing.T) {
	insts := candidateSet(4)
	for name, cfg := range parityConfigs() {
		m, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tape := ag.NewTape()
		dyn := m.ForwardDynamic(tape, insts[0].Hist)
		for i, inst := range insts {
			want := scoreMonolithicRef(m, inst)
			got := m.ForwardCandidate(tape, dyn, inst).Value.ScalarValue()
			if got != want {
				t.Errorf("%s: candidate %d: ForwardCandidate=%v, monolithic=%v (not bit-identical)",
					name, i, got, want)
			}
			if viaScore := scoreRef(m, inst); viaScore != want {
				t.Errorf("%s: candidate %d: Score=%v, monolithic=%v (not bit-identical)",
					name, i, viaScore, want)
			}
		}
	}
}

// gradSnapshot clones every parameter's accumulated gradient.
func gradSnapshot(params []*ag.Param) []*tensor.Matrix {
	out := make([]*tensor.Matrix, len(params))
	for i, p := range params {
		out[i] = p.Grad.Clone()
	}
	return out
}

// lossBuilders enumerates the three training tasks' per-instance losses over
// a candidate set (positive first), parameterised by a score function so the
// same loss can be built from the monolithic and the two-phase forward.
func lossBuilders() map[string]func(t *ag.Tape, scores []*ag.Node) *ag.Node {
	return map[string]func(t *ag.Tape, scores []*ag.Node) *ag.Node{
		// BPR ranking loss of Eq. (21): mean softplus(neg − pos).
		"ranking": func(t *ag.Tape, scores []*ag.Node) *ag.Node {
			terms := make([]*ag.Node, 0, len(scores)-1)
			for _, neg := range scores[1:] {
				terms = append(terms, t.Softplus(t.Sub(neg, scores[0])))
			}
			return t.MeanScalars(terms)
		},
		// Log loss of Eq. (24): BCE-with-logits over positive and negatives.
		"classification": func(t *ag.Tape, scores []*ag.Node) *ag.Node {
			terms := []*ag.Node{t.Softplus(t.Neg(scores[0]))}
			for _, neg := range scores[1:] {
				terms = append(terms, t.Softplus(neg))
			}
			return t.MeanScalars(terms)
		},
		// Squared loss of Eq. (26) on the positive alone (regression draws no
		// negatives; the candidate set degenerates to one instance).
		"regression": func(t *ag.Tape, scores []*ag.Node) *ag.Node {
			return t.Square(t.AddConst(scores[0], -3.5))
		},
	}
}

// TestTwoPhaseLossAndGradsMatchMonolithic pins training parity on all three
// tasks: the loss built over one shared Dyn is bit-for-bit equal to the loss
// built from 1+N independent Score calls, and the backpropagated gradients
// agree — exactly in the single-candidate (regression) case, and to within
// reassociation of IEEE addition when several candidates share the dynamic
// subgraph (the shared backward computes f'(Σ upstream) where the per-copy
// backward computes Σ f'(upstream); the float terms are identical, only
// their summation order differs).
func TestTwoPhaseLossAndGradsMatchMonolithic(t *testing.T) {
	const tol = 1e-12
	m, err := New(testConfig()) // KeepProb 1: deterministic forward
	if err != nil {
		t.Fatal(err)
	}
	params := m.Params()
	for name, build := range lossBuilders() {
		t.Run(name, func(t *testing.T) {
			insts := candidateSet(3)
			if name == "regression" {
				insts = insts[:1]
			}

			// Monolithic reference: 1+N independent Score calls, i.e. 1+N
			// copies of the dynamic subgraph on one tape.
			ag.ZeroGrads(params)
			mono := ag.NewTape()
			monoScores := make([]*ag.Node, len(insts))
			for i, inst := range insts {
				monoScores[i] = m.Score(mono, inst)
			}
			monoLoss := build(mono, monoScores)
			mono.Backward(monoLoss)
			mono.FlushGrads(nil)
			wantLoss := monoLoss.Value.ScalarValue()
			wantGrads := gradSnapshot(params)

			// Two-phase: one shared Dyn, 1+N candidate attachments.
			ag.ZeroGrads(params)
			shared := ag.NewTape()
			dyn := m.ForwardDynamic(shared, insts[0].Hist)
			sharedScores := make([]*ag.Node, len(insts))
			for i, inst := range insts {
				sharedScores[i] = m.ForwardCandidate(shared, dyn, inst)
			}
			sharedLoss := build(shared, sharedScores)
			shared.Backward(sharedLoss)
			shared.FlushGrads(nil)

			if got := sharedLoss.Value.ScalarValue(); got != wantLoss {
				t.Fatalf("loss: two-phase %v != monolithic %v (not bit-identical)", got, wantLoss)
			}
			exact := len(insts) == 1
			for i, p := range params {
				for j, g := range p.Grad.Data {
					want := wantGrads[i].Data[j]
					if exact {
						if g != want {
							t.Fatalf("%s[%d]: two-phase grad %v != monolithic %v (single candidate must be bit-identical)",
								p.Name, j, g, want)
						}
						continue
					}
					diff := math.Abs(g - want)
					scale := math.Max(1, math.Max(math.Abs(g), math.Abs(want)))
					if diff/scale > tol {
						t.Fatalf("%s[%d]: two-phase grad %v vs monolithic %v (rel diff %.3g)",
							p.Name, j, g, want, diff/scale)
					}
				}
			}
		})
	}
}

// TestTwoPhaseGradCheck verifies the analytic gradients of a BPR loss built
// through ForwardDynamic+ForwardCandidate against central finite differences,
// over every model parameter — the ag/grad_check_test.go discipline applied
// to the shared-subgraph forward.
func TestTwoPhaseGradCheck(t *testing.T) {
	const (
		eps = 1e-6
		tol = 1e-4
	)
	cfg := testConfig()
	cfg.Dim = 4
	cfg.Layers = 1
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	params := m.Params()
	insts := candidateSet(2)

	loss := func(tp *ag.Tape) *ag.Node {
		dyn := m.ForwardDynamic(tp, insts[0].Hist)
		scores := make([]*ag.Node, len(insts))
		for i, inst := range insts {
			scores[i] = m.ForwardCandidate(tp, dyn, inst)
		}
		terms := make([]*ag.Node, 0, len(scores)-1)
		for _, neg := range scores[1:] {
			terms = append(terms, tp.Softplus(tp.Sub(neg, scores[0])))
		}
		return tp.MeanScalars(terms)
	}

	ag.ZeroGrads(params)
	tp := ag.NewTape()
	tp.Backward(loss(tp))
	tp.FlushGrads(nil)

	for _, p := range params {
		for i := range p.Value.Data {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + eps
			up := loss(ag.NewTape()).Value.ScalarValue()
			p.Value.Data[i] = orig - eps
			down := loss(ag.NewTape()).Value.ScalarValue()
			p.Value.Data[i] = orig

			numeric := (up - down) / (2 * eps)
			analytic := p.Grad.Data[i]
			diff := math.Abs(numeric - analytic)
			scale := math.Max(1, math.Max(math.Abs(numeric), math.Abs(analytic)))
			if diff/scale > tol {
				t.Errorf("%s[%d]: analytic %.8f vs numeric %.8f", p.Name, i, analytic, numeric)
			}
		}
	}
}

// TestTwoPhaseReusedTapeAfterReset pins the training engine's tape-reuse
// contract end to end: Reset, re-record, Backward on a reused tape must
// reproduce the fresh-tape loss and gradients bit for bit.
func TestTwoPhaseReusedTapeAfterReset(t *testing.T) {
	m, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	params := m.Params()
	insts := candidateSet(2)
	runOn := func(tape *ag.Tape) (float64, []*tensor.Matrix) {
		ag.ZeroGrads(params)
		dyn := m.ForwardDynamic(tape, insts[0].Hist)
		pos := m.ForwardCandidate(tape, dyn, insts[0])
		terms := make([]*ag.Node, 0, len(insts)-1)
		for _, inst := range insts[1:] {
			terms = append(terms, tape.Softplus(tape.Sub(m.ForwardCandidate(tape, dyn, inst), pos)))
		}
		l := tape.MeanScalars(terms)
		tape.Backward(l)
		tape.FlushGrads(nil)
		return l.Value.ScalarValue(), gradSnapshot(params)
	}

	fresh := ag.NewTape()
	wantLoss, wantGrads := runOn(fresh)

	reused := ag.NewTape()
	for pass := 0; pass < 3; pass++ {
		reused.Reset()
		gotLoss, gotGrads := runOn(reused)
		if gotLoss != wantLoss {
			t.Fatalf("pass %d: reused-tape loss %v != fresh %v", pass, gotLoss, wantLoss)
		}
		for i, p := range params {
			for j, g := range gotGrads[i].Data {
				if g != wantGrads[i].Data[j] {
					t.Fatalf("pass %d: %s[%d]: reused-tape grad %v != fresh %v",
						pass, p.Name, j, g, wantGrads[i].Data[j])
				}
			}
		}
	}
}
