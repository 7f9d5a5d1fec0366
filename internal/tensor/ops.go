package tensor

import (
	"fmt"
	"math"
)

// Add returns a + b element-wise.
func Add(a, b *Matrix) *Matrix {
	a.sameShape(b, "Add")
	out := a.Clone()
	out.AddInPlace(b)
	return out
}

// AddInPlace accumulates o into m element-wise and returns m.
func (m *Matrix) AddInPlace(o *Matrix) *Matrix {
	m.sameShape(o, "AddInPlace")
	for i, v := range o.Data {
		m.Data[i] += v
	}
	return m
}

// AddScaledInPlace accumulates k·o into m and returns m (axpy).
func (m *Matrix) AddScaledInPlace(k float64, o *Matrix) *Matrix {
	m.sameShape(o, "AddScaledInPlace")
	for i, v := range o.Data {
		m.Data[i] += k * v
	}
	return m
}

// Sub returns a − b element-wise.
func Sub(a, b *Matrix) *Matrix {
	a.sameShape(b, "Sub")
	out := a.Clone()
	for i, v := range b.Data {
		out.Data[i] -= v
	}
	return out
}

// Hadamard returns the element-wise product a ⊙ b.
func Hadamard(a, b *Matrix) *Matrix {
	a.sameShape(b, "Hadamard")
	out := a.Clone()
	for i, v := range b.Data {
		out.Data[i] *= v
	}
	return out
}

// Scale returns k·m.
func Scale(k float64, m *Matrix) *Matrix {
	out := m.Clone()
	out.ScaleInPlace(k)
	return out
}

// ScaleInPlace multiplies every element by k and returns m.
func (m *Matrix) ScaleInPlace(k float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= k
	}
	return m
}

// AddRowBroadcast returns m with the 1×c row vector added to every row.
func AddRowBroadcast(m, row *Matrix) *Matrix {
	if row.Rows != 1 || row.Cols != m.Cols {
		panic(fmt.Sprintf("tensor: AddRowBroadcast: %dx%d + %dx%d", m.Rows, m.Cols, row.Rows, row.Cols))
	}
	out := m.Clone()
	for i := 0; i < out.Rows; i++ {
		r := out.Row(i)
		for j, v := range row.Data {
			r[j] += v
		}
	}
	return out
}

// Apply returns a new matrix with f applied to every element.
func Apply(m *Matrix, f func(float64) float64) *Matrix {
	out := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = f(v)
	}
	return out
}

// Sum returns the sum of all elements.
func Sum(m *Matrix) float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty matrices).
func Mean(m *Matrix) float64 {
	if len(m.Data) == 0 {
		return 0
	}
	return Sum(m) / float64(len(m.Data))
}

// MeanRows returns the 1×c column-wise mean of an r×c matrix: the column
// sums in row order, then one scaling by 1/r (zeros for r = 0).
func MeanRows(m *Matrix) *Matrix {
	out := SumRows(m)
	if m.Rows > 0 {
		out.ScaleInPlace(1.0 / float64(m.Rows))
	}
	return out
}

// SumRows returns the 1×c column-wise sum of an r×c matrix.
func SumRows(m *Matrix) *Matrix {
	out := New(1, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j] += v
		}
	}
	return out
}

// SoftmaxRowsInto writes the row-wise softmax of src (plus the optional
// additive mask) into dst. mask may be nil; otherwise it must have src's
// shape and typically holds 0 or −Inf entries (the paper's Eq. 10 and 13).
//
// Rows whose entries are all −Inf (fully masked) produce all-zero output
// rather than NaN, which makes fully-padded sequences safe.
func SoftmaxRowsInto(dst, src, mask *Matrix) {
	dst.sameShape(src, "SoftmaxRowsInto")
	if mask != nil {
		src.sameShape(mask, "SoftmaxRowsInto mask")
	}
	for i := 0; i < src.Rows; i++ {
		srow := src.Row(i)
		drow := dst.Row(i)
		var mrow []float64
		if mask != nil {
			mrow = mask.Row(i)
		}
		max := math.Inf(-1)
		for j, v := range srow {
			if mrow != nil {
				v += mrow[j]
			}
			if v > max {
				max = v
			}
		}
		if math.IsInf(max, -1) {
			clear(drow)
			continue
		}
		sum := 0.0
		for j, v := range srow {
			if mrow != nil {
				v += mrow[j]
			}
			e := math.Exp(v - max)
			drow[j] = e
			sum += e
		}
		inv := 1.0 / sum
		for j := range drow {
			drow[j] *= inv
		}
	}
}

// SoftmaxRows returns the row-wise softmax of m with an optional additive mask.
func SoftmaxRows(m, mask *Matrix) *Matrix {
	out := New(m.Rows, m.Cols)
	SoftmaxRowsInto(out, m, mask)
	return out
}

// ConcatRows stacks the given matrices vertically. All must share Cols.
func ConcatRows(ms ...*Matrix) *Matrix {
	if len(ms) == 0 {
		return New(0, 0)
	}
	cols := ms[0].Cols
	rows := 0
	for _, m := range ms {
		if m.Cols != cols {
			panic(fmt.Sprintf("tensor: ConcatRows: %d cols vs %d", m.Cols, cols))
		}
		rows += m.Rows
	}
	out := New(rows, cols)
	off := 0
	for _, m := range ms {
		copy(out.Data[off:off+len(m.Data)], m.Data)
		off += len(m.Data)
	}
	return out
}

// ConcatCols concatenates the given matrices horizontally. All must share Rows.
func ConcatCols(ms ...*Matrix) *Matrix {
	if len(ms) == 0 {
		return New(0, 0)
	}
	rows := ms[0].Rows
	cols := 0
	for _, m := range ms {
		if m.Rows != rows {
			panic(fmt.Sprintf("tensor: ConcatCols: %d rows vs %d", m.Rows, rows))
		}
		cols += m.Cols
	}
	out := New(rows, cols)
	for i := 0; i < rows; i++ {
		off := 0
		orow := out.Row(i)
		for _, m := range ms {
			copy(orow[off:off+m.Cols], m.Row(i))
			off += m.Cols
		}
	}
	return out
}

// SliceRows returns a copy of rows [from, to) of m.
func SliceRows(m *Matrix, from, to int) *Matrix {
	if from < 0 || to > m.Rows || from > to {
		panic(fmt.Sprintf("tensor: SliceRows[%d:%d] of %d rows", from, to, m.Rows))
	}
	out := New(to-from, m.Cols)
	copy(out.Data, m.Data[from*m.Cols:to*m.Cols])
	return out
}

// SliceCols returns a copy of columns [from, to) of m.
func SliceCols(m *Matrix, from, to int) *Matrix {
	if from < 0 || to > m.Cols || from > to {
		panic(fmt.Sprintf("tensor: SliceCols[%d:%d] of %d cols", from, to, m.Cols))
	}
	out := New(m.Rows, to-from)
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i), m.Row(i)[from:to])
	}
	return out
}
