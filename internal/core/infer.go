package core

import "seqfm/internal/tensor"

// DynState caches the candidate-independent part of a SeqFM forward pass for
// one user history, so a top-K scorer pays for the dynamic view once per user
// history instead of once per candidate. internal/plan's
// Exec.PrecomputeDynamic fills it and Exec.ScoreFast consumes it; Score is the
// reference both agree with bit for bit.
//
// A DynState holds only what the candidate phase cannot cheaply re-derive:
// the padded history, the dynamic half of the linear term and the
// dynamic-view output. The cross view's dynamic row-blocks G·W (see Dyn) are
// not kept: they are a function of DynIdx and the weights alone, so the
// scorer re-derives them from DynIdx — a frozen plan copies them out of its
// projection table, a live plan multiplies them out.
//
// A DynState holds plain values (no tape nodes), so it outlives the pass that
// produced it — but it snapshots the weights: any parameter update
// invalidates it.
type DynState struct {
	DynIdx   []int          // padded history (Space.PadHist)
	PadCount int            // leading padding positions (0 for histories of length ≥ n.)
	LinD     float64        // Σ_j w·_j over the padded history (dynamic half of Eq. 4)
	HD       *tensor.Matrix // 1×d dynamic-view output vector; nil under "Remove DV"
}
