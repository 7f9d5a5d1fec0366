package plan

import (
	"fmt"
	"math"

	"seqfm/internal/tensor"
)

// The kernels here complete tensor's Into-variants for the operations the
// compiled forward and backward need without allocating. Each one reproduces,
// for every value that can reach a score or a gradient, the IEEE operations
// of the tensor kernel (or ag backward closure) it stands in for, in the same
// order. Allowed: skipping an entry whose value is provably unobservable — an
// additively −Inf-masked score (it becomes exp(−Inf) = +0 in the softmax, so
// it cannot win the row maximum, adds +0 to the row sum, and is dropped by
// the av == 0 guard of the a·v product), a gradient row nothing reads — and
// never materialising a buffer that only held such entries. Not allowed:
// anything that reassociates a sum — multiple accumulators, blocking or
// unrolling a dot, pooling rows in another order, a narrower float type.
// plan's parity tests compare bits, not tolerances.

// matMulTInto computes dst = a·bᵀ, overwriting dst. Same per-element dot
// association as tensor.MatMulT.
func matMulTInto(dst, a, b *tensor.Matrix) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("plan: matMulTInto: dst %dx%d = %dx%d · (%dx%d)ᵀ",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			orow[j] = dotVec(arow, b.Row(j))
		}
	}
}

// maskedMatMulTInto computes dst = a·bᵀ like matMulTInto but skips every
// entry whose additive softmax mask is −Inf, writing 0 instead. Masked
// entries are unobservable, so this stays inside the parity contract:
// SoftmaxRowsInto adds the mask before exponentiating, turning any finite
// score there into exp(−Inf) = 0, and in the backward the matching dA entries
// meet y = 0 in softmaxBackwardScaled, whose ±0 outputs are then dropped by
// the av == 0 guards in the dS matmuls. Writing 0 (not stale data) keeps the
// buffer finite so −Inf + score can never be NaN. nil mask means dense.
func maskedMatMulTInto(dst, a, b, mask *tensor.Matrix) {
	if mask == nil {
		matMulTInto(dst, a, b)
		return
	}
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows || !dst.SameShape(mask) {
		panic(fmt.Sprintf("plan: maskedMatMulTInto: dst %dx%d = %dx%d · (%dx%d)ᵀ under %dx%d mask",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols, mask.Rows, mask.Cols))
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		mrow := mask.Row(i)
		orow := dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			if mrow[j] != 0 {
				orow[j] = 0
				continue
			}
			orow[j] = dotVec(arow, b.Row(j))
		}
	}
}

// addAttendedRows runs one block of masked attention without the mask: for
// each query row q_i it attends the key rows [firstKey, k.Rows) — the block's
// live entries — and adds softmax_j(scale·q_i·k_j)·v_j to pool. It is the
// dense maskedMatMulTInto → ScaleInPlace → SoftmaxRowsInto → MatMulInto →
// meanRowsInto chain restricted to entries the mask leaves open, and equal to
// it bit for bit: a masked entry is exp(−Inf) = +0 there, which never wins
// the row maximum, leaves the row sum unchanged when added in column order,
// and is skipped by MatMulInto's av == 0 guard (kept here for live weights
// that underflow to 0); a row with no live key is a zero row, and adding +0
// to a pooled sum that started at +0 changes nothing. w (≥ k.Rows) and
// h (q.Cols) are scratch.
func addAttendedRows(pool []float64, q, k, v *tensor.Matrix, firstKey int, scale float64, w, h []float64) {
	if q.Cols != k.Cols || k.Rows != v.Rows || len(pool) != v.Cols || len(h) != v.Cols || len(w) < k.Rows {
		panic(fmt.Sprintf("plan: addAttendedRows: q %dx%d, k %dx%d, v %dx%d, pool %d, scratch %d/%d",
			q.Rows, q.Cols, k.Rows, k.Cols, v.Rows, v.Cols, len(pool), len(w), len(h)))
	}
	for i := 0; i < q.Rows; i++ {
		qrow := q.Row(i)
		max := math.Inf(-1)
		for j := firstKey; j < k.Rows; j++ {
			s := dotVec(qrow, k.Row(j)) * scale
			w[j] = s
			if s > max {
				max = s
			}
		}
		if math.IsInf(max, -1) {
			continue
		}
		sum := 0.0
		for j := firstKey; j < k.Rows; j++ {
			e := math.Exp(w[j] - max)
			w[j] = e
			sum += e
		}
		inv := 1.0 / sum
		clear(h)
		for j := firstKey; j < k.Rows; j++ {
			av := w[j] * inv
			if av == 0 {
				continue
			}
			for t, bv := range v.Row(j) {
				h[t] += av * bv
			}
		}
		for t, hv := range h {
			pool[t] += hv
		}
	}
}

// tMatMulInto computes dst = aᵀ·b, overwriting dst. Same loop order as
// tensor.TMatMul.
func tMatMulInto(dst, a, b *tensor.Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("plan: tMatMulInto: dst %dx%d = (%dx%d)ᵀ · %dx%d",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	dst.Zero()
	addTMatMul(dst, a, b)
}

// addTMatMul accumulates dst += aᵀ·b — the weight-gradient kernel
// (dW += inᵀ·dOut), matching tensor.TMatMul's loop order.
func addTMatMul(dst, a, b *tensor.Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("plan: addTMatMul: dst %dx%d += (%dx%d)ᵀ · %dx%d",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// addMatMulT accumulates dst += a·bᵀ — the input-gradient kernel
// (dIn += dOut·Wᵀ), matching tensor.MatMulT's per-element dot.
func addMatMulT(dst, a, b *tensor.Matrix) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("plan: addMatMulT: dst %dx%d += %dx%d · (%dx%d)ᵀ",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			orow[j] += dotVec(arow, b.Row(j))
		}
	}
}

// addMatMulTFrom is addMatMulT restricted to dst rows [fromRow, Rows) — the
// input-gradient kernel for buffers whose leading rows are dead. The history
// pad rows sit at the front of the dynamic block (feature.Space.PadHist), and
// Backward's embedding scatter drops every padded index, so the pad rows of
// deD are written but never read; skipping them cuts padCount·d² multiplies
// per projection without touching any observable gradient.
func addMatMulTFrom(dst, a, b *tensor.Matrix, fromRow int) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("plan: addMatMulTFrom: dst %dx%d += %dx%d · (%dx%d)ᵀ",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	for i := fromRow; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			orow[j] += dotVec(arow, b.Row(j))
		}
	}
}

// dotVec is tensor's dot: a single sequential accumulator, kept that way for
// bit parity with the tape path.
func dotVec(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
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
			for j := range row {
				row[j] = 0
			}
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
		dotRow := 0.0
		for j, yj := range yr {
			dotRow += dyr[j] * yj
		}
		dr := dst.Row(i)
		for j, yj := range yr {
			dr[j] = scale * (yj * (dyr[j] - dotRow))
		}
	}
}
