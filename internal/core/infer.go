package core

import "seqfm/internal/tensor"

// DynState caches the candidate-independent part of a SeqFM forward pass for
// one user history: the value snapshot of a Dyn (see forward.go), so a top-K
// scorer pays for the dynamic view once per user history instead of once per
// candidate. internal/plan's Exec.PrecomputeDynamic fills it and
// Exec.ScoreFast consumes it; Score is the reference both agree with bit for
// bit.
//
// A DynState holds plain value matrices (no tape nodes), so it outlives the
// pass that produced it — but it snapshots the weights: any parameter update
// invalidates it.
type DynState struct {
	DynIdx   []int          // padded history (Space.PadHist)
	PadCount int            // leading padding positions (0 for histories of length ≥ n.)
	LinD     float64        // Σ_j w·_j over the padded history (dynamic half of Eq. 4)
	HD       *tensor.Matrix // 1×d dynamic-view output vector; nil under "Remove DV"
	// QD/KD/VD are the dynamic row-blocks of the cross view's Q/K/V
	// projections; nil under "Remove CV". The raw embedding rows G· are not
	// snapshotted: the candidate phase consumes only these derived blocks.
	QD, KD, VD *tensor.Matrix
}
