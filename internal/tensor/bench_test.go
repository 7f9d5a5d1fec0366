package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// The shapes below are the ones a SeqFM forward and backward issue at the
// paper's defaults (d = 64, n° = 2, n· = 20, one FFN layer). Each benchmark
// fails if its kernel allocates and reports multiply-adds per nanosecond. A
// shape has three rows: the kernel as this machine runs it, /go the same
// kernel with the vector bodies off (the portable loops alone; skipped where
// that is the first row already), and /ref the textbook loop the kernel
// replaced (kernels_test.go) — EXPERIMENTS.md's kernel tables, on the same
// operands.

func benchMat(rows, cols int, seed int64) *Matrix {
	return randomMat(rand.New(rand.NewSource(seed)), rows, cols)
}

// causalMask is the n×n additive mask of the dynamic view: 0 on and below
// the diagonal, −Inf above.
func causalMask(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Set(i, j, math.Inf(-1))
		}
	}
	return m
}

func benchKernel(b *testing.B, name string, macs int, kernel, ref func()) {
	for _, c := range []struct {
		name   string
		f      func()
		goOnly bool
	}{{name, kernel, false}, {name + "/go", kernel, true}, {name + "/ref", ref, false}} {
		b.Run(c.name, func(b *testing.B) {
			if c.goOnly && !goLoopsOnly(b) {
				b.Skip("no vector bodies on this CPU: the row above is the Go loops")
			}
			if got := testing.AllocsPerRun(10, c.f); got != 0 {
				b.Fatalf("allocates %.0f objects/op, want 0", got)
			}
			b.ReportAllocs()
			for b.Loop() {
				c.f()
			}
			b.ReportMetric(float64(macs)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "MAC/ns")
		})
	}
}

func BenchmarkMatMulInto(b *testing.B) {
	w := benchMat(64, 64, 1)
	for _, c := range []struct {
		name string
		rows int
	}{{"ffn_1x64", 1}, {"proj_2x64", 2}, {"proj_20x64", 20}} {
		a, dst := benchMat(c.rows, 64, 2), New(c.rows, 64)
		benchKernel(b, c.name, c.rows*64*64,
			func() { MatMulInto(dst, a, w) },
			func() { refAddMatMul(dst.Zero(), a, w) })
	}
}

func BenchmarkMatMulTInto(b *testing.B) {
	k, dst := benchMat(20, 64, 1), New(20, 20)
	q, mask := benchMat(20, 64, 2), causalMask(20)
	benchKernel(b, "scores_20x20_causal", 210*64,
		func() { MatMulTInto(dst, q, k, mask) },
		func() { refMatMulT(dst, q, k, mask, 0, false) })
	q2, dst2 := benchMat(2, 64, 3), New(2, 20)
	benchKernel(b, "scores_2x20", 2*20*64,
		func() { MatMulTInto(dst2, q2, k, nil) },
		func() { refMatMulT(dst2, q2, k, nil, 0, false) })
	// Two keys: no full pass of four, the whole row is the leftover pass.
	k2, dst3 := benchMat(2, 64, 4), New(20, 2)
	benchKernel(b, "scores_20x2", 20*2*64,
		func() { MatMulTInto(dst3, q, k2, nil) },
		func() { refMatMulT(dst3, q, k2, nil, 0, false) })
}

// One dynamic query's attended row over the two static values, pooled.
func BenchmarkAddScaledSum(b *testing.B) {
	v, w, pool, sum := benchMat(2, 64, 1), FromSlice(1, 2, []float64{0.25, 0.75}), New(1, 64), New(1, 64)
	rows := scatteredRows(v)
	benchKernel(b, "pool_2x64", 2*64,
		func() { AddScaledSum(pool.Data, w.Data, rows) },
		func() {
			refAddMatMul(sum.Zero(), w, v)
			for j, x := range sum.Data {
				pool.Data[j] += x
			}
		})
}

func BenchmarkAddTMatMul(b *testing.B) {
	// One row is the rank-1 update an FFN layer's backward makes per instance.
	for _, c := range []struct {
		name string
		rows int
	}{{"ffn_1x64", 1}, {"wgrad_2x64", 2}, {"wgrad_20x64", 20}} {
		in, dout, dst := benchMat(c.rows, 64, 1), benchMat(c.rows, 64, 2), New(64, 64)
		benchKernel(b, c.name, c.rows*64*64,
			func() { AddTMatMul(dst, in, dout) },
			func() { refAddTMatMul(dst, in, dout) })
	}
}

func BenchmarkAddMatMulT(b *testing.B) {
	const fromRow = 5 // a history padded to 15 of 20
	dout, w, dst := benchMat(20, 64, 1), benchMat(64, 64, 2), New(20, 64)
	benchKernel(b, "igrad_20x64_from5", (20-fromRow)*64*64,
		func() { AddMatMulT(dst, dout, w, fromRow) },
		func() { refMatMulT(dst, dout, w, nil, fromRow, true) })
}

// One static key against the twenty dynamic queries: a key column of the
// inference cross view.
func BenchmarkDotRows(b *testing.B) {
	k, q, col := benchMat(1, 64, 1), benchMat(20, 64, 2), New(1, 20)
	benchKernel(b, "cross_1x64_20x64", 20*64,
		func() { DotRows(col.Data, k.Data, q, 0) },
		func() {
			for j := range col.Data {
				col.Data[j] = refDot(k.Data, q.Row(j))
			}
		})
}
