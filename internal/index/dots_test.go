package index

import (
	"math"
	"math/rand"
	"testing"
)

// dotsAgree fails t unless s.dots(q, rows) is dot(q, row) for every row, bit
// for bit (a NaN matches any NaN: which payload survives is not part of the
// contract). out starts as NaN so an unwritten element cannot pass.
func dotsAgree(t *testing.T, s *Store, q []float64, rows []int32) {
	t.Helper()
	out := make([]float64, len(rows))
	for k := range out {
		out[k] = math.NaN()
	}
	s.dots(out, q, rows)
	for k, r := range rows {
		got, want := out[k], dot(q, s.vec(int(r)))
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("d=%d rows=%v: out[%d] (row %d) = %v (%#x), dot = %v (%#x)",
				s.dim, rows, k, r, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// rawStore is n rows of d values straight from next, not normalised, so the
// kernels meet magnitudes, signed zeros and subnormals unit vectors hide.
func rawStore(n, d int, next func() float64) *Store {
	s := &Store{ids: make([]int, n), dim: d, data: make([]float64, n*d)}
	for i := range s.ids {
		s.ids[i] = i
	}
	for i := range s.data {
		s.data[i] = next()
	}
	return s
}

// specialValues are the operands a reassociation or a fused step would round
// differently, mixed into the test stores.
var specialValues = []float64{0, math.Copysign(0, -1), 1, -1, 1e300, -1e300, 5e-324, -2.5e-308, 1 + 1.0/(1<<52), math.Inf(1)}

// TestDotsMatchDot holds the batched kernel to dot at every dimension shape the
// vector body and the fallback split on — below, at and around multiples of
// four — for 0 to 40 rows, repeated ids included, with the vector body on and
// forced off (/go).
func TestDotsMatchDot(t *testing.T) {
	run := func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		next := func() float64 {
			if rng.Intn(8) == 0 {
				return specialValues[rng.Intn(len(specialValues)-1)] // no Inf: Inf−Inf is NaN everywhere
			}
			return rng.NormFloat64()
		}
		for _, d := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 30, 63, 64, 65} {
			s := rawStore(23, d, next)
			q := make([]float64, d)
			for j := range q {
				q[j] = next()
			}
			for n := 0; n <= 40; n++ {
				rows := make([]int32, n)
				for k := range rows {
					if k > 0 && rng.Intn(4) == 0 {
						rows[k] = rows[rng.Intn(k)]
					} else {
						rows[k] = int32(rng.Intn(s.Len()))
					}
				}
				dotsAgree(t, s, q, rows)
			}
		}
	}
	t.Run("default", run)
	t.Run("go", func(t *testing.T) {
		if !dotLoopOnly(t) {
			t.Skip("no vector body on this CPU: the default run is dot's loop")
		}
		run(t)
	})
}

// FuzzDots draws a dimension, a store, a query and a row list from the input
// bytes and holds Store.dots to dot, on both paths.
func FuzzDots(f *testing.F) {
	f.Add([]byte{64, 9, 4, 1, 2, 3, 200, 100, 50, 25})
	f.Add([]byte{30, 40, 7, 0, 0, 1, 1, 255, 128, 3})
	f.Add([]byte{5, 3, 1})
	f.Add([]byte{})
	check := func(t *testing.T, data []byte) {
		pos := 0
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[pos%len(data)]
			pos++
			return b
		}
		value := func() float64 {
			b := next()
			if int(b) < 2*len(specialValues) {
				return specialValues[int(b)%len(specialValues)]
			}
			return float64(int8(b)) / 16 * float64(1+next()%3)
		}
		d := 1 + int(next())%72
		nrows := int(next()) % 41
		s := rawStore(1+int(next())%9, d, value)
		q := make([]float64, d)
		for j := range q {
			q[j] = value()
		}
		rows := make([]int32, nrows)
		for k := range rows {
			rows[k] = int32(int(next()) % s.Len())
		}
		dotsAgree(t, s, q, rows)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check(t, data)
		if dotLoopOnly(t) {
			check(t, data)
		}
	})
}
