package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The ref* functions are the loops kernels.go replaced, kept verbatim as the
// oracle: one accumulator per dot, one axpy pass per k term. Every exported
// kernel must reproduce their output bit for bit.

// bothPaths runs f on the path this machine takes by default — on amd64 with
// AVX2 the vector bodies of kernels_amd64.s over the columns or rows they
// take, the Go loops over the rest — and then, as subtest "go", with the
// vector bodies off: what a CPU without AVX2 and every other GOARCH run.
func bothPaths(t *testing.T, f func(t *testing.T)) {
	f(t)
	t.Run("go", func(t *testing.T) {
		if !goLoopsOnly(t) {
			t.Skip("no vector bodies on this CPU: the run above was the Go loops")
		}
		f(t)
	})
}

// odd returns a copy of m whose data begins one or three elements into its
// backing array: 8-byte aligned as every row is, 32-byte aligned at most by
// accident. A vector body that assumed alignment faults on it.
func odd(m *Matrix) *Matrix {
	off := 1 + 2*(len(m.Data)%2)
	return FromSlice(m.Rows, m.Cols, append(make([]float64, off, off+len(m.Data)), m.Data...)[off:])
}

func refDot(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// refAddMatMul is dst += a·b; on a zeroed dst it is the old MatMulInto.
func refAddMatMul(dst, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		drow := dst.Row(i)
		for k, av := range a.Row(i) {
			if av == 0 {
				continue
			}
			for j, bv := range b.Row(k) {
				drow[j] += av * bv
			}
		}
	}
}

// refAddTMatMul is dst += aᵀ·b in the old k-outer order.
func refAddTMatMul(dst, a, b *Matrix) {
	for k := 0; k < a.Rows; k++ {
		brow := b.Row(k)
		for i, av := range a.Row(k) {
			if av == 0 {
				continue
			}
			orow := dst.Row(i)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// refMatMulT is the old matMulTInto / maskedMatMulTInto (add false) and
// addMatMulTFrom (add true, mask nil) in one.
func refMatMulT(dst, a, b, mask *Matrix, fromRow int, add bool) {
	for i := fromRow; i < a.Rows; i++ {
		orow := dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			switch {
			case mask != nil && mask.At(i, j) != 0:
				orow[j] = 0
			case add:
				orow[j] += refDot(a.Row(i), b.Row(j))
			default:
				orow[j] = refDot(a.Row(i), b.Row(j))
			}
		}
	}
}

// refAddScaledSum is dst += (the sum refAddMatMul builds in a zeroed row).
func refAddScaledSum(dst, coef []float64, b *Matrix) {
	sum := New(1, b.Cols)
	refAddMatMul(sum, FromSlice(1, b.Rows, coef[:b.Rows]), b)
	for j, v := range sum.Data {
		dst[j] += v
	}
}

// scatteredRows copies b's rows into slices of their own, each one element
// into its backing array.
func scatteredRows(b *Matrix) [][]float64 {
	rows := make([][]float64, b.Rows)
	for k := range rows {
		rows[k] = append(make([]float64, 1, 1+b.Cols), b.Row(k)...)[1:] // non-nil when empty
	}
	return rows
}

// sameBits fails unless got and want agree element by element in their bit
// patterns (any NaN matches any NaN: payloads follow operand order, which the
// compiler picks).
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", what, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// salted is a random rows×cols matrix in which about a quarter of the entries
// are exact zeros of either sign, so the zero-skip path and −0 + +0 are hit,
// stored at an odd offset.
func salted(rng *rand.Rand, rows, cols int) *Matrix {
	m := randomMat(rng, rows, cols)
	for i := range m.Data {
		switch rng.Intn(8) {
		case 0:
			m.Data[i] = 0
		case 1:
			m.Data[i] = math.Copysign(0, -1)
		}
	}
	return odd(m)
}

// poisonRow fills row k of b with ±Inf and NaN; the caller zeroes the
// coefficients that would multiply it, so a correct kernel never reads it.
func poisonRow(b *Matrix, k int) {
	for j, row := 0, b.Row(k); j < len(row); j++ {
		row[j] = []float64{math.Inf(1), math.Inf(-1), math.NaN()}[j%3]
	}
}

// tailSizes covers every remainder of the tile width — one row left over is a
// DotVec, two or three share a last pass of four — the static side's 1 to 4
// rows, and the model's 20 and 64.
var tailSizes = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 20, 64}

// widths are row lengths: every count of columns left over beside no, one
// and several vector strips of four, sixteen and thirty-two.
var widths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 63, 64, 65}

func TestAxpyKernelsMatchReference(t *testing.T) { bothPaths(t, testAxpyKernels) }

func testAxpyKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, r := range []int{0, 1, 2, 3, 5} {
		for _, k := range tailSizes {
			for _, c := range widths {
				name := fmt.Sprintf("%dx%d·%dx%d", r, k, k, c)
				a, b := salted(rng, r, k), salted(rng, k, c)
				if k > 2 { // an all-zero coefficient column over a poisoned row
					for i := 0; i < r; i++ {
						a.Set(i, 1, math.Copysign(0, float64(i%2)-0.5))
					}
					poisonRow(b, 1)
				}
				want := New(r, c)
				refAddMatMul(want, a, b)
				got := salted(rng, r, c) // MatMulInto must overwrite
				MatMulInto(got, a, b)
				sameBits(t, "MatMulInto "+name, got.Data, want.Data)
				sameBits(t, "MatMul "+name, MatMul(a, b).Data, want.Data)

				// aᵀ·b with a stored k×r: same coefficients, strided.
				at := odd(a.T())
				init := salted(rng, r, c)
				want = init.Clone()
				refAddTMatMul(want, at, b)
				got = odd(init)
				AddTMatMul(got, at, b)
				sameBits(t, "AddTMatMul "+name, got.Data, want.Data)
				want.Zero()
				refAddTMatMul(want, at, b)
				TMatMulInto(got, at, b)
				sameBits(t, "TMatMulInto "+name, got.Data, want.Data)
				sameBits(t, "TMatMul "+name, TMatMul(at, b).Data, want.Data)

				// One row of coefficients from an offset.
				for _, from := range []int{0, 1, 3} {
					if from > k || r == 0 {
						continue
					}
					coef := a.Row(0)
					init := salted(rng, 1, c)
					want, got := init.Clone(), odd(init)
					refAddMatMul(want, FromSlice(1, k-from, coef[from:]), FromSlice(k-from, c, b.Data[from*c:]))
					AddScaledRows(got.Data, coef, b, from)
					sameBits(t, fmt.Sprintf("AddScaledRows %s from %d", name, from), got.Data, want.Data)
				}

				// The same sum formed apart and added as one term, over rows
				// that lie apart.
				if r > 0 && k <= tile {
					init := salted(rng, 1, c)
					want, got := init.Clone(), odd(init)
					refAddScaledSum(want.Data, a.Row(0), b)
					AddScaledSum(got.Data, a.Row(0), scatteredRows(b))
					sameBits(t, "AddScaledSum "+name, got.Data, want.Data)
				}
				// Every count of live rows, the dead ones poisoned.
				for live := 0; r > 0 && k == tile && live <= tile; live++ {
					coef, rows := make([]float64, tile), b.Clone()
					for n, i := range rng.Perm(tile) {
						if n < live {
							coef[i] = 1 + rng.Float64()
						} else {
							coef[i] = math.Copysign(0, float64(i%2)-0.5)
							poisonRow(rows, i)
						}
					}
					init := salted(rng, 1, c)
					if c > 0 { // a spare lane that multiplied dst by its 0 would make this NaN
						init.Data[rng.Intn(c)] = math.Inf(1)
					}
					want, got := init.Clone(), odd(init)
					refAddScaledSum(want.Data, coef, rows)
					AddScaledSum(got.Data, coef, scatteredRows(rows))
					sameBits(t, fmt.Sprintf("AddScaledSum %s, %d live", name, live), got.Data, want.Data)
				}
			}
		}
	}
}

// maskLeaving returns an r×c additive mask whose row i leaves live[i%len]
// columns open (capped at c), scattered rather than contiguous.
func maskLeaving(rng *rand.Rand, r, c int, live []int) *Matrix {
	m := New(r, c)
	for i := 0; i < r; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = math.Inf(-1)
		}
		for _, j := range rng.Perm(c)[:min(live[i%len(live)], c)] {
			row[j] = 0
		}
	}
	return m
}

func TestDotKernelsMatchReference(t *testing.T) { bothPaths(t, testDotKernels) }

func testDotKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, r := range []int{0, 1, 2, 9} {
		for _, c := range tailSizes {
			for _, k := range widths {
				name := fmt.Sprintf("%dx%d·(%dx%d)ᵀ", r, k, c, k)
				a, b := salted(rng, r, k), salted(rng, c, k)
				if k > 2 && r > 1 { // a dot does not skip: 0·±Inf is NaN, in a's last row
					a.Set(r-1, 1, math.Copysign(0, float64(c%2)-0.5))
					for j := 0; j < c; j += 3 {
						b.Set(j, 1, math.Inf(j%2*2-1))
					}
				}
				want, got := salted(rng, r, c), salted(rng, r, c) // overwritten
				refMatMulT(want, a, b, nil, 0, false)
				MatMulTInto(got, a, b, nil)
				sameBits(t, "MatMulTInto "+name, got.Data, want.Data)
				sameBits(t, "MatMulT "+name, MatMulT(a, b).Data, want.Data)

				mask := maskLeaving(rng, r, c, []int{2, 3, 0, 1, 4, 5, 6, 7, c})
				refMatMulT(want, a, b, mask, 0, false)
				MatMulTInto(got, a, b, mask)
				sameBits(t, "masked MatMulTInto "+name, got.Data, want.Data)

				for _, from := range []int{0, 1, 4} {
					if from > r {
						continue
					}
					init := salted(rng, r, c)
					want, got := init.Clone(), odd(init)
					refMatMulT(want, a, b, nil, from, true)
					AddMatMulT(got, a, b, from)
					sameBits(t, fmt.Sprintf("AddMatMulT %s from %d", name, from), got.Data, want.Data)
				}
				for _, from := range []int{0, 1, 3} {
					if from > c || r == 0 {
						continue
					}
					init := salted(rng, 1, c)
					want, got := init.Clone(), odd(init)
					for j := from; j < c; j++ {
						want.Data[j] = refDot(a.Row(0), b.Row(j))
					}
					DotRows(got.Data, a.Row(0), b, from)
					sameBits(t, fmt.Sprintf("DotRows %s from %d", name, from), got.Data, want.Data)
				}
			}
		}
	}
}

func TestDotVecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range tailSizes {
		a, b := salted(rng, 1, n), salted(rng, 1, n)
		if got, want := DotVec(a.Data, b.Data), refDot(a.Data, b.Data); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("DotVec over %d: %v, want %v", n, got, want)
		}
		if got, want := Dot(a, b), refDot(a.Data, b.Data); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Dot over %d: %v, want %v", n, got, want)
		}
	}
}

// Every kernel writes dst while it still reads its inputs, so a dst that
// starts where an input does must panic instead of computing garbage
// (MatMulInto(x, x, w) used to return zeros).
func TestKernelsRejectAliasedDst(t *testing.T) {
	x, y := New(4, 4).Fill(1), New(4, 4).Fill(2)
	for name, f := range map[string]func(){
		"MatMulInto/a":    func() { MatMulInto(x, x, y) },
		"MatMulInto/b":    func() { MatMulInto(x, y, x) },
		"TMatMulInto/a":   func() { TMatMulInto(x, x, y) },
		"TMatMulInto/b":   func() { TMatMulInto(x, y, x) },
		"AddTMatMul/a":    func() { AddTMatMul(x, x, y) },
		"AddTMatMul/b":    func() { AddTMatMul(x, y, x) },
		"MatMulTInto/a":   func() { MatMulTInto(x, x, y, nil) },
		"MatMulTInto/b":   func() { MatMulTInto(x, y, x, nil) },
		"AddMatMulT/a":    func() { AddMatMulT(x, x, y, 0) },
		"AddMatMulT/b":    func() { AddMatMulT(x, y, x, 0) },
		"DotRows/a":       func() { DotRows(x.Row(0), x.Row(0), y, 0) },
		"DotRows/b":       func() { DotRows(x.Row(0), y.Row(0), x, 0) },
		"AddScaledRows/a": func() { AddScaledRows(x.Row(0), x.Row(0), y, 0) },
		"AddScaledRows/b": func() { AddScaledRows(x.Row(0), y.Row(0), x, 0) },
		"AddScaledSum":    func() { AddScaledSum(x.Row(0), y.Row(0), [][]float64{y.Row(1), x.Row(0)}) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic on aliased dst")
				}
			}()
			f()
		})
	}
	MatMulTInto(New(4, 4), x, x, nil) // inputs may alias each other
}

// fuzzValues are what one corpus byte can become besides a small dyadic
// rational: the zeros the skip path keys on and the values that would poison
// a sum the skip failed to make.
var fuzzValues = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, math.MaxFloat64, 1e-300, 1 + 0x1p-52, 1.0 / 3}

// byteReader hands out the fuzz input one byte at a time, wrapping around.
type byteReader struct {
	data []byte
	pos  int
}

func (r *byteReader) next() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[r.pos%len(r.data)]
	r.pos++
	return b
}

// dim is a row count or length: 0 to 12 mostly, else one that reaches the
// vector bodies' wider strips and the columns left over beside them.
func (r *byteReader) dim() int {
	b := int(r.next())
	if b < 13*16 {
		return b % 13
	}
	return []int{16, 31, 32, 33, 63, 64, 65, 20}[b%8]
}

// matrix draws a rows×cols matrix, stored at an odd offset (see odd).
func (r *byteReader) matrix(rows, cols int) *Matrix {
	m := odd(New(rows, cols))
	for i := range m.Data {
		if b := r.next(); int(b) < 4*len(fuzzValues) {
			m.Data[i] = fuzzValues[int(b)%len(fuzzValues)]
		} else {
			m.Data[i] = float64(int8(b)) / 16 * float64(1+r.next()%3)
		}
	}
	return m
}

// FuzzKernelsMatchReference draws three shapes, a row offset, a mask and all
// values from the input bytes and holds every kernel to its reference loop,
// on both paths (see bothPaths).
func FuzzKernelsMatchReference(f *testing.F) {
	f.Add([]byte{2, 64, 20, 0, 200, 100, 50, 25, 12, 6, 3, 1})
	f.Add([]byte{5, 3, 7, 2, 0, 1, 2, 3, 4, 255, 254, 128, 127, 60, 61})
	f.Add([]byte{1, 1, 1, 1})
	// Two and three rows or columns left over after the passes of four, with
	// masks that leave as many live, and zeros of both signs among the values.
	f.Add([]byte{3, 2, 6, 1, 0, 1, 40, 41, 7, 250, 9, 16, 130, 0, 1, 1, 0})
	f.Add([]byte{9, 3, 7, 2, 1, 0, 33, 200, 5, 1, 1, 0, 0, 1, 1, 1, 0, 0, 0, 1})
	f.Add([]byte{2, 4, 11, 0, 90, 91, 92, 2, 3, 255, 1, 0, 1, 0, 0})
	f.Add([]byte{6, 12, 2, 5, 1, 77, 0, 0, 1, 12, 13, 1, 1})
	f.Add([]byte{})
	// 9×64×20 and 4×33×65: whole strips of the vector bodies and one column
	// left over, eight, four and fewer live rows of 64 under a mask.
	f.Add([]byte{9, 213, 215, 3, 1, 0, 0, 1, 45, 46, 200, 3, 2, 0, 1, 1, 1, 0, 131, 7})
	f.Add([]byte{4, 211, 214, 1, 2, 3, 4, 0, 0, 1, 90, 180, 14, 15, 0, 1})
	check := func(t *testing.T, data []byte) {
		in := &byteReader{data: data}
		r, k, c := int(in.next()%10), in.dim(), in.dim()
		from := 0
		if r > 0 {
			from = int(in.next()) % (r + 1)
		}
		a, b, bt, init := in.matrix(r, k), in.matrix(k, c), in.matrix(c, k), in.matrix(r, c)
		mask := New(r, c)
		for i := range mask.Data {
			if in.next()%2 == 1 {
				mask.Data[i] = math.Inf(-1)
			}
		}

		want, got := init.Clone().Zero(), odd(init)
		refAddMatMul(want, a, b)
		MatMulInto(got, a, b)
		sameBits(t, "MatMulInto", got.Data, want.Data)

		at := odd(a.T())
		want, got = init.Clone(), odd(init)
		refAddTMatMul(want, at, b)
		AddTMatMul(got, at, b)
		sameBits(t, "AddTMatMul", got.Data, want.Data)

		want, got = init.Clone(), odd(init)
		refMatMulT(want, a, bt, mask, 0, false)
		MatMulTInto(got, a, bt, mask)
		sameBits(t, "masked MatMulTInto", got.Data, want.Data)

		want, got = init.Clone(), odd(init)
		refMatMulT(want, a, bt, nil, from, true)
		AddMatMulT(got, a, bt, from)
		sameBits(t, "AddMatMulT", got.Data, want.Data)

		if r > 0 {
			rowFrom := from % (c + 1)
			want, got = New(1, c), odd(New(1, c))
			for j := rowFrom; j < c; j++ {
				want.Data[j] = refDot(a.Row(0), bt.Row(j))
			}
			DotRows(got.Data, a.Row(0), bt, rowFrom)
			sameBits(t, "DotRows", got.Data, want.Data)

			rowFrom = from % (k + 1)
			want, got = init.Clone(), odd(init)
			refAddMatMul(FromSlice(1, c, want.Row(0)), FromSlice(1, k-rowFrom, a.Row(0)[rowFrom:]), FromSlice(k-rowFrom, c, b.Data[rowFrom*c:]))
			AddScaledRows(got.Row(0), a.Row(0), b, rowFrom)
			sameBits(t, "AddScaledRows", got.Data, want.Data)

			few := FromSlice(min(k, tile), c, b.Data[:min(k, tile)*c])
			want, got = init.Clone(), odd(init)
			refAddScaledSum(want.Row(0), a.Row(0), few)
			AddScaledSum(got.Row(0), a.Row(0), scatteredRows(few))
			sameBits(t, "AddScaledSum", got.Data, want.Data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check(t, data)
		if goLoopsOnly(t) {
			check(t, data)
		}
	})
}
