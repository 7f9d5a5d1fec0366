package tensor

import "fmt"

// The repository's one set of matmul kernels: every a·b, aᵀ·b and a·bᵀ of the
// model, the tape and the compiled plan ends in one of two loop families.
// Neither reassociates — no output element's additions combine other partial
// sums, or in another order, than the textbook loop's — so the tape stays the
// plan's bit-for-bit oracle (argument: DESIGN.md §15 "Kernels"):
//
//   - Dot form (a·bᵀ): four output elements per pass over a's row, each with
//     its own accumulator summed left to right like DotVec; being
//     independent, their add chains overlap instead of queueing.
//   - Axpy form (a·b, aᵀ·b): k in order, c_k == 0 skipped as the textbook
//     loop skips it, four surviving terms added to d[j] per pass — the same
//     additions in the same order, d[j] loaded and stored once, not four times.
//
// The loops in this file are the portable path, and everything above and the
// sentences below about fusing and about tile describe them. On amd64 with
// AVX2 (useAVX2) each family also has a vector body in kernels_amd64.s whose
// four lanes are four neighbouring output elements, never parts of one sum:
// it takes the columns (axpy form) or the groups of rows (dot form, when
// len(a) is a multiple of four) it can fill, and these loops finish the
// rest, so they are fallback, tail handler and oracle in one copy. The two
// agree bit for bit (DESIGN.md §15 "Lanes are output elements"); the tests
// run both.
//
// Every step is written acc + x*y, so a compiler that fuses multiply-add
// (arm64) fuses these and the reference loops of kernels_test.go alike; the
// vector bodies multiply and add apart, as the amd64 compiler does.
// internal/index keeps its own four-accumulator dot, with a vector body of the
// same association beside it (index's dots_amd64.s), under that package's
// own contract: a graph and results identical on every host, not this one.

// HasAVX2 reports whether this CPU runs the vector bodies; internal/index's
// assembly follows the same detection.
func HasAVX2() bool { return useAVX2 }

// tile is the number of output elements (dot form) or k terms (axpy form) one
// pass of the Go loops covers. Eight measured slower: the sums no longer fit
// 16 registers. It is also the float64 lanes of a 256-bit vector, which is
// why the vector bodies' shapes are written in terms of it.
const tile = 4

// DotVec returns Σ a[i]·b[i] with a single accumulator, left to right — the
// one sequential dot of the model code.
func DotVec(a, b []float64) float64 {
	b = b[:len(a)]
	s := 0.0
	for i, v := range a {
		s = s + v*b[i]
	}
	return s
}

// dot4 is four DotVecs of a, against b0…b3, side by side.
func dot4(a, b0, b1, b2, b3 []float64) (s0, s1, s2, s3 float64) {
	b0, b1, b2, b3 = b0[:len(a)], b1[:len(a)], b2[:len(a)], b3[:len(a)]
	for i, v := range a {
		s0 = s0 + v*b0[i]
		s1 = s1 + v*b1[i]
		s2 = s2 + v*b2[i]
		s3 = s3 + v*b3[i]
	}
	return
}

// dotRows sets out[j] (add: adds to out[j]) the dot of a with row j of the
// len(a)-wide rows packed in b, four live rows at a time — eight under the
// vector body, which takes every len(a) that is a multiple of its four lanes.
// Two or three left over go through one more pass of four, its spare lanes
// repeating the last row: each lane is a DotVec of its own, so a repeat costs
// nothing and changes nothing. A single one left over is a DotVec. A row whose
// mask entry is non-zero is not computed and gets 0; nil mask means all live.
func dotRows(out, a, b, mask []float64, add bool) {
	d := len(a)
	vec := useAVX2 && d > 0 && d%tile == 0
	group := tile
	if vec {
		_ = b[:len(out)*d] // the vector body checks no bounds
		group = 2 * tile
	}
	var live [2 * tile]int
	n := 0
	for j := range out {
		if mask != nil && mask[j] != 0 {
			out[j] = 0
			continue
		}
		live[n] = j
		n++
		if n == group {
			dotLive(out, a, b, &live, n, add, vec)
			n = 0
		}
	}
	if n >= tile { // four to seven left of a group of eight
		dotLive(out, a, b, &live, tile, add, vec)
		n = copy(live[:], live[tile:n])
	}
	if n == 1 {
		j := live[0]
		s := DotVec(a, b[j*d:])
		if add {
			s = out[j] + s
		}
		out[j] = s
	} else if n > 1 {
		for k := n; k < tile; k++ {
			live[k] = live[k-1]
		}
		dotLive(out, a, b, &live, n, add, vec)
	}
}

// dotLive is one pass of dotRows over the first n rows live names: eight, or
// up to four with the lanes from n on repeating a row.
func dotLive(out, a, b []float64, live *[2 * tile]int, n int, add, vec bool) {
	d := len(a)
	if vec {
		dotLiveAVX2(&out[0], &a[0], d, &b[0], live, n, add)
		return
	}
	j0, j1, j2, j3 := live[0], live[1], live[2], live[3]
	s0, s1, s2, s3 := dot4(a, b[j0*d:], b[j1*d:], b[j2*d:], b[j3*d:])
	if add {
		s0, s1, s2, s3 = out[j0]+s0, out[j1]+s1, out[j2]+s2, out[j3]+s3
	}
	out[j0], out[j1], out[j2], out[j3] = s0, s1, s2, s3
}

// axpy adds the n ≤ tile terms c[i]·r[i] to d in one pass, in order; lanes
// from n on must hold some slice no shorter than d and are not read.
func axpy(d []float64, n int, c *[tile]float64, r *[tile][]float64) {
	c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
	b0, b1, b2, b3 := r[0][:len(d)], r[1][:len(d)], r[2][:len(d)], r[3][:len(d)]
	switch n {
	case 1:
		for j := range d {
			d[j] = d[j] + c0*b0[j]
		}
	case 2:
		for j := range d {
			d[j] = (d[j] + c0*b0[j]) + c1*b1[j]
		}
	case 3:
		for j := range d {
			d[j] = ((d[j] + c0*b0[j]) + c1*b1[j]) + c2*b2[j]
		}
	case 4:
		for j := range d {
			d[j] = (((d[j] + c0*b0[j]) + c1*b1[j]) + c2*b2[j]) + c3*b3[j]
		}
	}
}

// axpyRows adds Σ_k c_k·b_k to d for k = 0…rows−1 in order, where
// c_k = coef[k·stride] and b_k is row k, len(d) wide, of the ld-wide rows
// packed in b. Terms with c_k == 0 are skipped, not added; the rest go in
// fused passes of four, and what is left over in one pass of one, two or
// three. The vector body takes the columns up to the last multiple of its
// four lanes, all k in one call, and leaves this loop the rest.
func axpyRows(d, coef []float64, stride int, b []float64, ld, rows int) {
	if w := len(d) &^ (tile - 1); useAVX2 && w > 0 && rows > 0 {
		_, _ = coef[(rows-1)*stride], b[(rows-1)*ld+len(d)-1] // the vector body checks no bounds
		axpyRowsAVX2(&d[0], w, &coef[0], stride, &b[0], ld, rows)
		if w == len(d) {
			return
		}
		d, b = d[w:], b[w:]
	}
	var c [tile]float64
	r := [tile][]float64{d, d, d, d}
	n := 0
	for k := 0; k < rows; k++ {
		cv := coef[k*stride]
		if cv == 0 {
			continue
		}
		c[n], r[n] = cv, b[k*ld:]
		n++
		if n == tile {
			axpy(d, n, &c, &r)
			n = 0
		}
	}
	if n > 0 {
		axpy(d, n, &c, &r)
	}
}

// sameStart reports whether x and y begin at the same element.
func sameStart(x, y []float64) bool { return len(x) > 0 && len(y) > 0 && &x[0] == &y[0] }

// checkKernel panics on mismatched shapes and on a dst that starts where an
// input does: the kernels write dst while they still read a and b.
func checkKernel(op string, shapesOK bool, dst, a, b *Matrix) {
	if !shapesOK {
		panic(fmt.Sprintf("tensor: %s: dst %dx%d from a %dx%d, b %dx%d",
			op, dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if sameStart(dst.Data, a.Data) || sameStart(dst.Data, b.Data) {
		panic("tensor: " + op + ": dst aliases an input")
	}
}

// MatMul returns a·b. a is r×k, b is k×c, the result is r×c.
func MatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes dst = a·b without allocating. dst must be a.Rows×b.Cols
// and is overwritten. Row i of dst depends on row i of a alone.
func MatMulInto(dst, a, b *Matrix) {
	checkKernel("MatMulInto", a.Cols == b.Rows && dst.Rows == a.Rows && dst.Cols == b.Cols, dst, a, b)
	dst.Zero()
	for i := 0; i < a.Rows; i++ {
		axpyRows(dst.Row(i), a.Row(i), 1, b.Data, b.Cols, b.Rows)
	}
}

// TMatMul returns aᵀ·b. a is k×r, b is k×c, the result is r×c.
func TMatMul(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	AddTMatMul(out, a, b)
	return out
}

// TMatMulInto computes dst = aᵀ·b, overwriting dst.
func TMatMulInto(dst, a, b *Matrix) {
	dst.Zero()
	AddTMatMul(dst, a, b)
}

// AddTMatMul accumulates dst += aᵀ·b — the weight-gradient kernel
// (dW += inᵀ·dOut). Element (i,j) receives a[k][i]·b[k][j] for k ascending.
func AddTMatMul(dst, a, b *Matrix) {
	checkKernel("AddTMatMul", a.Rows == b.Rows && dst.Rows == a.Cols && dst.Cols == b.Cols, dst, a, b)
	for i := 0; i < a.Cols && a.Rows > 0; i++ {
		axpyRows(dst.Row(i), a.Data[i:], a.Cols, b.Data, b.Cols, b.Rows)
	}
}

// MatMulT returns a·bᵀ. a is r×k, b is c×k, the result is r×c. bᵀ is never
// materialised: each output element is a dot of two contiguous rows.
func MatMulT(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	MatMulTInto(out, a, b, nil)
	return out
}

// MatMulTInto computes dst = a·bᵀ, overwriting dst. Under a non-nil mask
// (dst's shape; the additive 0/−Inf softmax masks) an entry whose mask is
// non-zero is not computed and is written as 0.
func MatMulTInto(dst, a, b, mask *Matrix) {
	checkKernel("MatMulTInto", a.Cols == b.Cols && dst.Rows == a.Rows && dst.Cols == b.Rows &&
		(mask == nil || dst.SameShape(mask)), dst, a, b)
	for i := 0; i < a.Rows; i++ {
		var mrow []float64
		if mask != nil {
			mrow = mask.Row(i)
		}
		dotRows(dst.Row(i), a.Row(i), b.Data, mrow, false)
	}
}

// AddMatMulT accumulates rows [fromRow, Rows) of dst += a·bᵀ — the
// input-gradient kernel (dIn += dOut·Wᵀ); rows before fromRow are left alone.
func AddMatMulT(dst, a, b *Matrix, fromRow int) {
	checkKernel("AddMatMulT", a.Cols == b.Cols && dst.Rows == a.Rows && dst.Cols == b.Rows && fromRow >= 0, dst, a, b)
	for i := fromRow; i < a.Rows; i++ {
		dotRows(dst.Row(i), a.Row(i), b.Data, nil, true)
	}
}

// DotRows sets dst[j] = a·b.Row(j) for j in [from, b.Rows).
func DotRows(dst, a []float64, b *Matrix, from int) {
	if len(a) != b.Cols || len(dst) < b.Rows || from < 0 || from > b.Rows || sameStart(dst, a) || sameStart(dst, b.Data) {
		panic(fmt.Sprintf("tensor: DotRows: %d-vector · rows [%d,%d) of %d cols into %d, or dst aliases an input",
			len(a), from, b.Rows, b.Cols, len(dst)))
	}
	dotRows(dst[from:b.Rows], a, b.Data[from*b.Cols:], nil, false)
}

// AddScaledRows accumulates dst += Σ_j coef[j]·b.Row(j) for j in
// [from, b.Rows) in order, skipping zero coefficients.
func AddScaledRows(dst, coef []float64, b *Matrix, from int) {
	if len(dst) != b.Cols || len(coef) < b.Rows || from < 0 || from > b.Rows || sameStart(dst, coef) || sameStart(dst, b.Data) {
		panic(fmt.Sprintf("tensor: AddScaledRows: %d coefficients · rows [%d,%d) of %d cols into %d, or dst aliases an input",
			len(coef), from, b.Rows, b.Cols, len(dst)))
	}
	axpyRows(dst, coef[from:], 1, b.Data[from*b.Cols:], b.Cols, b.Rows-from)
}

// AddScaledSum adds Σ_k coef[k]·rows[k] to dst as a single term per element:
// the sum is formed first — from +0, k ascending, zero coefficients skipped,
// exactly what AddScaledRows leaves in a zeroed vector — and then added, all
// in one pass and without that vector. At most tile rows, which may lie
// anywhere in memory but dst.
func AddScaledSum(dst, coef []float64, rows [][]float64) {
	if len(rows) > tile || len(coef) < len(rows) {
		panic(fmt.Sprintf("tensor: AddScaledSum: %d rows (at most %d), %d coefficients", len(rows), tile, len(coef)))
	}
	var c [tile]float64
	var r [tile][]float64
	n := 0
	for k, row := range rows {
		if len(row) != len(dst) || sameStart(dst, row) {
			panic(fmt.Sprintf("tensor: AddScaledSum: row %d has %d of %d elements, or is dst", k, len(row), len(dst)))
		}
		if coef[k] != 0 {
			c[n], r[n] = coef[k], row
			n++
		}
	}
	for k := n; k < tile; k++ {
		r[k] = dst // a spare lane: sliced below, never read
	}
	w := 0 // columns the vector body takes, two vectors of four lanes at a time
	if useAVX2 && len(dst) >= 2*tile {
		w = len(dst) &^ (2*tile - 1)
		axpySumAVX2(&dst[0], w, n, &c, &r)
	}
	c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
	b0, b1, b2, b3 := r[0][w:len(dst)], r[1][w:len(dst)], r[2][w:len(dst)], r[3][w:len(dst)]
	dst = dst[w:]
	switch n {
	case 0:
		for j := range dst {
			dst[j] = dst[j] + 0
		}
	case 1:
		for j := range dst {
			dst[j] = dst[j] + (0 + c0*b0[j])
		}
	case 2:
		for j := range dst {
			dst[j] = dst[j] + ((0 + c0*b0[j]) + c1*b1[j])
		}
	case 3:
		for j := range dst {
			dst[j] = dst[j] + (((0 + c0*b0[j]) + c1*b1[j]) + c2*b2[j])
		}
	case 4:
		for j := range dst {
			dst[j] = dst[j] + ((((0 + c0*b0[j]) + c1*b1[j]) + c2*b2[j]) + c3*b3[j])
		}
	}
}

// Dot returns the inner product of two equal-length row vectors.
func Dot(a, b *Matrix) float64 {
	if a.Rows != 1 || b.Rows != 1 || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: Dot: %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	return DotVec(a.Data, b.Data)
}
