package ag

import (
	"fmt"
	"math"

	"seqfm/internal/tensor"
)

// SoftmaxRows records the row-wise softmax of a with an optional additive
// mask (entries 0 or −Inf), implementing the masked attention normalisation
// of Eq. (9) and (11). mask may be nil and is treated as a constant.
//
// For a fully masked row the forward pass yields zeros and the backward pass
// contributes no gradient, so rows of pure padding are inert.
func (t *Tape) SoftmaxRows(a *Node, mask *tensor.Matrix) *Node {
	v := tensor.SoftmaxRows(a.Value, mask)
	if !a.needsGrad {
		return t.node(v, false, nil)
	}
	var out *Node
	out = t.node(v, true, func() {
		// dx_j = y_j·(dy_j − Σ_k dy_k·y_k), row-wise.
		g := a.ensureGrad()
		for i := 0; i < v.Rows; i++ {
			y := v.Row(i)
			dy := out.grad.Row(i)
			dotRow := tensor.DotVec(dy, y)
			dst := g.Row(i)
			for j, yj := range y {
				dst[j] += yj * (dy[j] - dotRow)
			}
		}
	})
	return out
}

// LayerNorm records the row-wise layer normalisation of Eq. (16):
// y_i = s ⊙ (x_i − μ_i)/√(σ²_i + eps) + b, with learnable 1×d scale s and
// shift b applied to every row independently.
func (t *Tape) LayerNorm(a, s, b *Node, eps float64) *Node {
	d := a.Cols()
	if s.Rows() != 1 || s.Cols() != d || b.Rows() != 1 || b.Cols() != d {
		panic(fmt.Sprintf("ag: LayerNorm: x %dx%d, s %dx%d, b %dx%d",
			a.Rows(), d, s.Rows(), s.Cols(), b.Rows(), b.Cols()))
	}
	if eps <= 0 {
		eps = 1e-8
	}
	rows := a.Rows()
	v := tensor.New(rows, d)
	// Cache per-row statistics for the backward pass.
	mu := make([]float64, rows)
	invStd := make([]float64, rows)
	for i := 0; i < rows; i++ {
		x := a.Value.Row(i)
		m := 0.0
		for _, xv := range x {
			m += xv
		}
		m /= float64(d)
		variance := 0.0
		for _, xv := range x {
			dv := xv - m
			variance += dv * dv
		}
		variance /= float64(d)
		mu[i] = m
		invStd[i] = 1 / math.Sqrt(variance+eps)
		y := v.Row(i)
		for j, xv := range x {
			y[j] = s.Value.Data[j]*(xv-m)*invStd[i] + b.Value.Data[j]
		}
	}
	if !anyNeedsGrad(a, s, b) {
		return t.node(v, false, nil)
	}
	var out *Node
	out = t.node(v, true, func() {
		for i := 0; i < rows; i++ {
			x := a.Value.Row(i)
			dy := out.grad.Row(i)
			is := invStd[i]
			m := mu[i]
			// xhat_j = (x_j − μ)·invStd
			if s.needsGrad || b.needsGrad {
				var sg, bg []float64
				if s.needsGrad {
					sg = s.ensureGrad().Data
				}
				if b.needsGrad {
					bg = b.ensureGrad().Data
				}
				for j, dyv := range dy {
					if sg != nil {
						sg[j] += dyv * (x[j] - m) * is
					}
					if bg != nil {
						bg[j] += dyv
					}
				}
			}
			if a.needsGrad {
				// dxhat_j = dy_j · s_j
				// dx = invStd·(dxhat − mean(dxhat) − xhat·mean(dxhat⊙xhat))
				sumDx := 0.0
				sumDxXhat := 0.0
				for j, dyv := range dy {
					dxh := dyv * s.Value.Data[j]
					xh := (x[j] - m) * is
					sumDx += dxh
					sumDxXhat += dxh * xh
				}
				n := float64(d)
				dst := a.ensureGrad().Row(i)
				for j, dyv := range dy {
					dxh := dyv * s.Value.Data[j]
					xh := (x[j] - m) * is
					dst[j] += is * (dxh - sumDx/n - xh*sumDxXhat/n)
				}
			}
		}
	})
	return out
}

// Dropout records inverted dropout with drop probability rate. In training
// mode each element is zeroed with probability rate and survivors are scaled
// by 1/(1−rate); in inference mode the input node is returned unchanged,
// which matches the paper's "all neurons are used when testing" model
// averaging (§III-F).
//
// Note on the paper's ρ: §IV-D searches ρ ∈ {0.5,…,0.9} where ρ is the KEEP
// probability ("too many blocked neurons ⇒ underfitting" at small ρ), so the
// drop rate passed here should be 1−ρ.
func (t *Tape) Dropout(a *Node, rate float64) *Node {
	if !t.training || rate <= 0 {
		return a
	}
	if rate >= 1 {
		panic(fmt.Sprintf("ag: Dropout rate %v >= 1", rate))
	}
	if t.rng == nil {
		panic("ag: training tape without rng; use NewTrainingTape")
	}
	keep := 1 - rate
	inv := 1 / keep
	mask := tensor.New(a.Rows(), a.Cols())
	v := tensor.New(a.Rows(), a.Cols())
	for i, x := range a.Value.Data {
		if t.rng.Float64() < keep {
			mask.Data[i] = inv
			v.Data[i] = x * inv
		}
	}
	if !a.needsGrad {
		return t.node(v, false, nil)
	}
	var out *Node
	out = t.node(v, true, func() {
		a.accumulate(tensor.Hadamard(out.grad, mask))
	})
	return out
}

// Gather records an n×d node whose i-th row is table.Value.Row(idx[i]).
// A negative index produces a zero padding row that receives no gradient —
// the paper's zero-vector padding for short dynamic sequences (§III).
// Gradients scatter-add into table.Grad at FlushGrads time, so a gather from
// a large embedding table never materialises a dense table-sized gradient.
func (t *Tape) Gather(table *Param, idx []int) *Node {
	d := table.Value.Cols
	v := tensor.New(len(idx), d)
	for i, ix := range idx {
		if ix < 0 {
			continue // padding row stays zero
		}
		if ix >= table.Value.Rows {
			panic(fmt.Sprintf("ag: Gather index %d out of range for %s", ix, table))
		}
		copy(v.Row(i), table.Value.Row(ix))
	}
	n := t.node(v, true, nil)
	// Copy idx: callers may reuse their slice.
	owned := make([]int, len(idx))
	copy(owned, idx)
	t.flushes = append(t.flushes, func(sink GradSink) {
		if n.grad == nil {
			return
		}
		grad := sink(table)
		for i, ix := range owned {
			if ix < 0 {
				continue
			}
			dst := grad.Row(ix)
			src := n.grad.Row(i)
			for j, gv := range src {
				dst[j] += gv
			}
		}
	})
	return n
}

// GatherSum records the 1×d sum of table rows at idx (negative indices are
// skipped). It is the additive embedding lookup Σ v_i used by linear FM
// terms and set-category pooling, cheaper than Gather followed by SumRows.
func (t *Tape) GatherSum(table *Param, idx []int) *Node {
	d := table.Value.Cols
	v := tensor.New(1, d)
	for _, ix := range idx {
		if ix < 0 {
			continue
		}
		if ix >= table.Value.Rows {
			panic(fmt.Sprintf("ag: GatherSum index %d out of range for %s", ix, table))
		}
		row := table.Value.Row(ix)
		for j, rv := range row {
			v.Data[j] += rv
		}
	}
	n := t.node(v, true, nil)
	owned := make([]int, len(idx))
	copy(owned, idx)
	t.flushes = append(t.flushes, func(sink GradSink) {
		if n.grad == nil {
			return
		}
		grad := sink(table)
		for _, ix := range owned {
			if ix < 0 {
				continue
			}
			dst := grad.Row(ix)
			for j, gv := range n.grad.Data {
				dst[j] += gv
			}
		}
	})
	return n
}
