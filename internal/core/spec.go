package core

import (
	"seqfm/internal/ag"
	"seqfm/internal/tensor"
)

// This file exports the model's internal structure to internal/plan, the
// compiled execution engine. A ModelSpec is a read-only structural view: it
// aliases the live parameter matrices (no copies), so a compiled plan always
// scores the weights the model currently holds, and it carries exactly the
// ablation/mask state the tape-driven forward (forward.go) consults — the
// compiler lowers the same graph the tape interprets, nothing more.

// AttnSpec is the projection triple of one self-attention head.
type AttnSpec struct {
	WQ, WK, WV *ag.Param
}

// FFNLayerSpec is one layer of the shared residual FFN: the fully connected
// weights plus the layer norm parameters (LNS/LNB are present even when layer
// norm is ablated, matching nn.ResidualFFN's storage, but must not be read
// then — they are excluded from Params() and have no gradient shard slots).
type FFNLayerSpec struct {
	W, B     *ag.Param
	LNS, LNB *ag.Param
	Eps      float64
}

// ModelSpec is the flattened structural description of a SeqFM model that
// internal/plan compiles into a preallocated execution plan. All matrices are
// aliased, not copied.
type ModelSpec struct {
	Cfg     Config
	NStatic int // n°: static one-hot rows per instance

	W0       *ag.Param
	WStatic  *ag.Param
	WDynamic *ag.Param
	EmbS     *ag.Param // m°×d static embedding table
	EmbD     *ag.Param // m.×d dynamic embedding table

	AttnS, AttnD, AttnX AttnSpec

	FFN          []FFNLayerSpec
	FFNDropout   float64 // drop rate (1−ρ)
	UseResidual  bool
	UseLayerNorm bool

	Proj *ag.Param // 1×(views·d)

	CausalMask *tensor.Matrix
	CrossMask  *tensor.Matrix
	// Per-pad-count masks, non-nil only when Cfg.MaskPadding; index = #pads.
	CausalPad []*tensor.Matrix
	CrossPad  []*tensor.Matrix
}

// Spec returns the model's structural view for plan compilation.
func (m *Model) Spec() ModelSpec {
	s := ModelSpec{
		Cfg:          m.cfg,
		NStatic:      m.nStatic,
		W0:           m.w0,
		WStatic:      m.wStatic,
		WDynamic:     m.wDynamic,
		EmbS:         m.embS.Table,
		EmbD:         m.embD.Table,
		AttnS:        AttnSpec{m.attnS.WQ, m.attnS.WK, m.attnS.WV},
		AttnD:        AttnSpec{m.attnD.WQ, m.attnD.WK, m.attnD.WV},
		AttnX:        AttnSpec{m.attnX.WQ, m.attnX.WK, m.attnX.WV},
		FFNDropout:   m.ffn.Dropout,
		UseResidual:  m.ffn.UseResidual,
		UseLayerNorm: m.ffn.UseLayerNorm,
		Proj:         m.proj,
		CausalMask:   m.causalMask,
		CrossMask:    m.crossMask,
		CausalPad:    m.causalPad,
		CrossPad:     m.crossPad,
	}
	for k, fc := range m.ffn.Layers {
		ln := m.ffn.Norms[k]
		s.FFN = append(s.FFN, FFNLayerSpec{W: fc.W, B: fc.B, LNS: ln.S, LNB: ln.B, Eps: ln.Eps})
	}
	return s
}
