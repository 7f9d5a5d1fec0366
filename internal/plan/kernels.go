package plan

import (
	"fmt"
	"math"

	"seqfm/internal/tensor"
)

// What is left here is specific to the compiled plan; every matmul is one of
// internal/tensor's kernels, which the tape runs too. The package doc states
// the contract: for every value that can reach a score or a gradient, the
// IEEE operations of the tape path in the same order — independent elements
// may be computed side by side and a row's terms added in fewer passes, but
// no sum reassociated (no change to which partial sums an element's
// additions combine). Two skips are relied on. An additively −Inf-masked
// score is exp(−Inf) = +0 in the softmax — it cannot win the row maximum,
// adds +0 to the row sum and is dropped by the a·v product's zero-coefficient
// skip — and the masked MatMulTInto writes it as 0, not stale data, so
// −Inf + score is never NaN; the inference cross view (Exec.crossRows) never
// forms those entries at all. And softmaxScaled does not call exp on ±0,
// which is exactly 1. The parity tests compare bits, not tolerances.

// softmaxScaled overwrites the live scores w of one attention row with
// softmax(scale·w), as ScaleInPlace → SoftmaxRowsInto compute them, and
// reports whether any score is above −Inf (if none, or w is empty, the dense
// row is all +0 and w is left scaled). Every row has an entry whose
// x − max is ±0; the test is on that difference, so a +Inf maximum still
// yields exp(NaN).
func softmaxScaled(w []float64, scale float64) bool {
	max := math.Inf(-1)
	for j, x := range w {
		x *= scale
		w[j] = x
		if x > max {
			max = x
		}
	}
	if math.IsInf(max, -1) {
		return false
	}
	sum := 0.0
	for j, x := range w {
		e := 1.0
		if x -= max; x != 0 {
			e = math.Exp(x)
		}
		w[j] = e
		sum += e
	}
	inv := 1.0 / sum
	for j := range w {
		w[j] *= inv
	}
	return true
}

// meanRowsInto replicates tensor.MeanRows into dst (1×cols): column sums
// accumulated in row order, then scaled by 1/rows.
func meanRowsInto(dst, m *tensor.Matrix) {
	if dst.Rows != 1 || dst.Cols != m.Cols {
		panic(fmt.Sprintf("plan: meanRowsInto: dst %dx%d of %dx%d", dst.Rows, dst.Cols, m.Rows, m.Cols))
	}
	dst.Zero()
	if m.Rows == 0 {
		return
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			dst.Data[j] += v
		}
	}
	inv := 1.0 / float64(m.Rows)
	for j := range dst.Data {
		dst.Data[j] *= inv
	}
}

// gatherRows replicates ag's Gather forward: dst.Row(i) = table.Row(idx[i]),
// with negative indices producing zero padding rows.
func gatherRows(dst, table *tensor.Matrix, idx []int) {
	if dst.Rows != len(idx) || dst.Cols != table.Cols {
		panic(fmt.Sprintf("plan: gatherRows: dst %dx%d for %d indices of %dx%d table",
			dst.Rows, dst.Cols, len(idx), table.Rows, table.Cols))
	}
	for i, ix := range idx {
		row := dst.Row(i)
		if ix < 0 {
			clear(row)
			continue
		}
		if ix >= table.Rows {
			panic(fmt.Sprintf("plan: gather index %d out of range for %dx%d table", ix, table.Rows, table.Cols))
		}
		copy(row, table.Row(ix))
	}
}

// softmaxBackwardScaled writes the gradient through softmax-then-unscale into
// dst: for each row, dst_j = scale · y_j·(dy_j − Σ_k dy_k·y_k). The scale
// factor folds the Scale(1/√d, ·) that precedes every attention softmax.
// Fully masked rows (y ≡ 0) produce zero gradient, matching the tape.
func softmaxBackwardScaled(dst, y, dy *tensor.Matrix, scale float64) {
	if !dst.SameShape(y) || !dst.SameShape(dy) {
		panic(fmt.Sprintf("plan: softmaxBackwardScaled: dst %dx%d, y %dx%d, dy %dx%d",
			dst.Rows, dst.Cols, y.Rows, y.Cols, dy.Rows, dy.Cols))
	}
	for i := 0; i < y.Rows; i++ {
		yr := y.Row(i)
		dyr := dy.Row(i)
		dotRow := tensor.DotVec(dyr, yr)
		dr := dst.Row(i)
		for j, yj := range yr {
			dr[j] = scale * (yj * (dyr[j] - dotRow))
		}
	}
}
