package core

import (
	"math"

	"seqfm/internal/ag"
	"seqfm/internal/feature"
)

// This file is the heart of SeqFM's forward pass: a two-phase, fully
// differentiable decomposition shared by training, one-off scoring and the
// serving engine.
//
// The view structure of §III makes the split exact: the dynamic view (Eq. 9),
// the dynamic half of the linear term (Eq. 4), the dynamic embedding rows of
// Eq. (5), and the dynamic row-blocks of the cross view's Q/K/V projections
// (Eq. 12) depend only on the user's history — never on the candidate — while
// the static view (Eq. 8) and the remainder of the cross view (Eq. 12–13)
// also see the candidate. ForwardDynamic records the candidate-independent
// subgraph once; ForwardCandidate attaches one candidate's static rows to it.
// Score is, by definition, the composition of the two, so there is exactly
// one forward-pass implementation in the repository.
//
// Training exploits the split directly: the BPR/log-loss closures score the
// positive and all N sampled negatives against one shared Dyn, so the tape
// holds one dynamic subgraph instead of 1+N copies and the reverse pass
// backpropagates through it once, with the upstream gradients of all
// candidates already summed into the shared nodes. Serving exploits it
// through the compiled plan (internal/plan), which snapshots the dynamic
// phase's values as a DynState (infer.go) and scores candidates against it.
//
// Exactness: the matmul kernel computes each output row from its own input
// row alone, so E*·W row-splits into [E°·W ; G·W] bit-exactly and every
// candidate's score equals the monolithic single-candidate forward bit for
// bit. Gradients through the shared subgraph are the same mathematical
// quantities as through 1+N copies; numerically they agree to reassociation
// of IEEE addition (the shared backward computes f'(Σ upstream) where the
// copied backward computes Σ f'(upstream)), and are bitwise identical in the
// single-candidate case. forward_test.go pins both properties, plus finite
// differences.

// Dyn is the on-tape candidate-independent subgraph of one SeqFM forward
// pass: everything derived from the user's dynamic history. It is valid only
// for the tape that recorded it and only until that tape is Reset; training
// shares one Dyn across the 1+N candidates of one instance. For the reusable
// value snapshot the compiled plan serves from, see DynState.
type Dyn struct {
	// DynIdx is the padded history (Space.PadHist), PadCount its number of
	// leading padding positions.
	DynIdx   []int
	PadCount int

	linD *ag.Node // 1×1 dynamic half of the linear term, Σ_j w·_j (Eq. 4)
	eD   *ag.Node // n.×d dynamic embedding rows G· (Eq. 5)
	hD   *ag.Node // 1×d dynamic-view output (Eq. 9→15); nil under "Remove DV"
	// qD/kD/vD are the dynamic row-blocks of the cross view's query/key/value
	// projections G·W — shared by every candidate's cross view; nil under
	// "Remove CV".
	qD, kD, vD *ag.Node
}

// ForwardDynamic records the candidate-independent part of the forward pass
// for hist on t and returns it for ForwardCandidate to attach candidates to.
// It works on both training tapes (dropout inside the dynamic view's FFN is
// drawn once and shared by every candidate scored against the returned Dyn)
// and inference tapes.
func (m *Model) ForwardDynamic(t *ag.Tape, hist []int) *Dyn {
	sp := m.cfg.Space
	dynIdx := sp.PadHist(hist, m.cfg.MaxSeqLen)
	padCount := 0
	for _, ix := range dynIdx {
		if ix < 0 {
			padCount++
		}
	}
	dyn := &Dyn{DynIdx: dynIdx, PadCount: padCount}
	dyn.linD = t.GatherSum(m.wDynamic, dynIdx)
	dyn.eD = m.embD.Gather(t, dynIdx)
	if !m.cfg.Ablation.NoDynamicView {
		causal := m.causalMask
		if m.cfg.MaskPadding {
			causal = m.causalPad[padCount]
		}
		h := m.attnD.Forward(t, dyn.eD, causal) // Eq. (9)
		dyn.hD = m.ffn.Forward(t, t.MeanRows(h))
	}
	if !m.cfg.Ablation.NoCrossView {
		dyn.qD = t.MatMul(dyn.eD, t.Var(m.attnX.WQ))
		dyn.kD = t.MatMul(dyn.eD, t.Var(m.attnX.WK))
		dyn.vD = t.MatMul(dyn.eD, t.Var(m.attnX.WV))
	}
	return dyn
}

// ForwardCandidate attaches one candidate's static rows to the shared
// dynamic subgraph dyn and records the remainder of the forward pass,
// returning the raw score node of Eq. (19). dyn must have been recorded on t
// (after its last Reset) from the same history inst carries; only the static
// fields of inst are read.
func (m *Model) ForwardCandidate(t *ag.Tape, dyn *Dyn, inst feature.Instance) *ag.Node {
	sp := m.cfg.Space
	staticIdx := sp.StaticIndices(inst)

	// Linear component: w0 + (Σ w°_i + Σ w·_j), associated exactly as the
	// original monolithic Score (Eq. 4).
	linear := t.Add(t.Var(m.w0),
		t.Add(t.GatherSum(m.wStatic, staticIdx), dyn.linD))

	// The static embedding rows feed the static view and the cross view.
	var eS *ag.Node
	if !m.cfg.Ablation.NoStaticView || !m.cfg.Ablation.NoCrossView {
		eS = m.embS.Gather(t, staticIdx)
	}

	views := make([]*ag.Node, 0, 3)
	if !m.cfg.Ablation.NoStaticView {
		h := m.attnS.Forward(t, eS, nil) // Eq. (8)
		views = append(views, m.ffn.Forward(t, t.MeanRows(h)))
	}
	if !m.cfg.Ablation.NoDynamicView {
		views = append(views, dyn.hD)
	}
	if !m.cfg.Ablation.NoCrossView {
		cross := m.crossMask
		if m.cfg.MaskPadding {
			cross = m.crossPad[dyn.PadCount]
		}
		// Cross-view attention (Eq. 12–13): only the n° static rows are
		// projected here; the n. dynamic rows of Q/K/V come from the shared
		// subgraph. The reassembled matrices equal a full E*·W projection bit
		// for bit because the matmul kernel is row-independent.
		q := t.ConcatRows(t.MatMul(eS, t.Var(m.attnX.WQ)), dyn.qD)
		k := t.ConcatRows(t.MatMul(eS, t.Var(m.attnX.WK)), dyn.kD)
		v := t.ConcatRows(t.MatMul(eS, t.Var(m.attnX.WV)), dyn.vD)
		scores := t.Scale(1/math.Sqrt(float64(m.cfg.Dim)), t.MatMulT(q, k))
		h := t.MatMul(t.SoftmaxRows(scores, cross), v)
		views = append(views, m.ffn.Forward(t, t.MeanRows(h)))
	}

	// View-wise aggregation (Eq. 17) and output layer (Eq. 18).
	hagg := views[0]
	if len(views) > 1 {
		hagg = t.ConcatCols(views...)
	}
	f := t.Dot(t.Var(m.proj), hagg)
	return t.Add(linear, f)
}

// Score records the raw SeqFM output ŷ of Eq. (19) for one instance on the
// given tape: the two-phase forward applied to a single candidate.
// Task-specific squashing (the sigmoid of Eq. 23) is the caller's
// responsibility, keeping the model flexible across ranking, classification
// and regression exactly as §IV prescribes. Loss closures scoring several
// candidates against one history should call ForwardDynamic once and
// ForwardCandidate per candidate instead.
func (m *Model) Score(t *ag.Tape, inst feature.Instance) *ag.Node {
	return m.ForwardCandidate(t, m.ForwardDynamic(t, inst.Hist), inst)
}
