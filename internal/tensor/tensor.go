// Package tensor implements dense row-major float64 matrices and the
// linear-algebra primitives the autodiff engine is built on.
//
// The package is deliberately small: a single Matrix type (vectors are 1×n
// matrices, matching the paper's row-vector convention), allocation helpers,
// and the handful of BLAS-like kernels needed by factorization-machine
// models — matmul in its four transpose variants, element-wise maps,
// broadcasting adds, reductions and row-wise softmax.
//
// All operations either allocate a fresh result or, when suffixed with
// InPlace/Into, write into a caller-provided destination. Shape mismatches
// panic: they are programmer errors, not runtime conditions, and panicking
// keeps the hot paths free of error plumbing.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense row-major matrix of float64 values.
// A row vector is represented as a 1×n Matrix.
type Matrix struct {
	Rows, Cols int
	// Data holds the elements in row-major order: element (i,j) lives at
	// Data[i*Cols+j]. len(Data) == Rows*Cols always.
	Data []float64
}

// New returns a zero-valued matrix with the given shape.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (not copied) as a rows×cols matrix.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice: %d elements for %dx%d matrix", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// FromRows builds a matrix by copying the given equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("tensor: FromRows: row %d has %d cols, want %d", i, len(r), cols))
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m
}

// RowVector copies data into a fresh 1×n matrix.
func RowVector(data ...float64) *Matrix {
	d := make([]float64, len(data))
	copy(d, data)
	return FromSlice(1, len(data), d)
}

// Scalar returns a 1×1 matrix holding v.
func Scalar(v float64) *Matrix {
	return FromSlice(1, 1, []float64{v})
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 {
	m.boundsCheck(i, j)
	return m.Data[i*m.Cols+j]
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) {
	m.boundsCheck(i, j)
	m.Data[i*m.Cols+j] = v
}

func (m *Matrix) boundsCheck(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("tensor: index (%d,%d) out of range for %dx%d matrix", i, j, m.Rows, m.Cols))
	}
}

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("tensor: row %d out of range for %dx%d matrix", i, m.Rows, m.Cols))
	}
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// CopyFrom overwrites m's elements with src's. Shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	m.sameShape(src, "CopyFrom")
	copy(m.Data, src.Data)
}

// Zero resets every element to 0 and returns m.
func (m *Matrix) Zero() *Matrix {
	clear(m.Data)
	return m
}

// Fill sets every element to v and returns m.
func (m *Matrix) Fill(v float64) *Matrix {
	for i := range m.Data {
		m.Data[i] = v
	}
	return m
}

// SameShape reports whether m and o have identical dimensions.
func (m *Matrix) SameShape(o *Matrix) bool {
	return m.Rows == o.Rows && m.Cols == o.Cols
}

func (m *Matrix) sameShape(o *Matrix, op string) {
	if !m.SameShape(o) {
		panic(fmt.Sprintf("tensor: %s: shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, o.Rows, o.Cols))
	}
}

// IsScalar reports whether m is 1×1.
func (m *Matrix) IsScalar() bool { return m.Rows == 1 && m.Cols == 1 }

// ScalarValue returns the single element of a 1×1 matrix.
func (m *Matrix) ScalarValue() float64 {
	if !m.IsScalar() {
		panic(fmt.Sprintf("tensor: ScalarValue on %dx%d matrix", m.Rows, m.Cols))
	}
	return m.Data[0]
}

// T returns a freshly allocated transpose of m.
func (m *Matrix) T() *Matrix {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// String renders the matrix for debugging; large matrices are elided.
func (m *Matrix) String() string {
	const maxShow = 8
	var b strings.Builder
	fmt.Fprintf(&b, "Matrix(%dx%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows && i < maxShow; i++ {
		if i > 0 {
			b.WriteString("; ")
		}
		for j := 0; j < m.Cols && j < maxShow; j++ {
			if j > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%.4g", m.At(i, j))
		}
		if m.Cols > maxShow {
			b.WriteString(" …")
		}
	}
	if m.Rows > maxShow {
		b.WriteString("; …")
	}
	b.WriteString("]")
	return b.String()
}

// HasNaN reports whether any element is NaN or ±Inf.
func (m *Matrix) HasNaN() bool {
	for _, v := range m.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

// MaxAbs returns the largest absolute element value (0 for empty matrices).
func (m *Matrix) MaxAbs() float64 {
	max := 0.0
	for _, v := range m.Data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// Norm returns the Frobenius norm of m.
func (m *Matrix) Norm() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Equal reports element-wise equality within tolerance tol.
func (m *Matrix) Equal(o *Matrix, tol float64) bool {
	if !m.SameShape(o) {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(v-o.Data[i]) > tol {
			return false
		}
	}
	return true
}
