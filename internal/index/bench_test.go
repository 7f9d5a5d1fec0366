package index

import (
	"math/rand"
	"testing"
)

// The benchmarks below run on the benchmark harness's catalog shape, 5,744
// items of d = 64, seeded. Each has two rows: the index as this machine runs
// it and /go, the same code with the vector body of Store.dots off (skipped
// where the first row already is that).

func benchCatalog() *Store { return randomStore(5744, 64, 42) }

// bothPaths runs f as a sub-benchmark on the default path and on /go.
func bothPaths(b *testing.B, f func(b *testing.B)) {
	b.Run("default", f)
	b.Run("go", func(b *testing.B) {
		if !dotLoopOnly(b) {
			b.Skip("no vector body on this CPU: the row above is dot's loop")
		}
		f(b)
	})
}

// BenchmarkHNSWBuild times one sequential build at the default Config.
func BenchmarkHNSWBuild(b *testing.B) {
	s := benchCatalog()
	bothPaths(b, func(b *testing.B) {
		for b.Loop() {
			NewHNSW(s, Config{Seed: 1, BuildWorkers: 1})
		}
	})
}

// BenchmarkHNSWSearch times a top-100 query at the default EfSearch, cycling
// over 64 seeded queries, and fails if a warm search allocates more than its
// query copy and its collector's array, which it returns as the result.
func BenchmarkHNSWSearch(b *testing.B) {
	h := NewHNSW(benchCatalog(), Config{Seed: 1, BuildWorkers: 1})
	rng := rand.New(rand.NewSource(5))
	qs := make([][]float64, 64)
	for i := range qs {
		qs[i] = randomQuery(64, rng)
	}
	bothPaths(b, func(b *testing.B) {
		i := 0
		search := func() {
			h.Search(qs[i%len(qs)], 100, nil)
			i++
		}
		if got := testing.AllocsPerRun(20, search); got > 2 {
			b.Fatalf("a warm Search allocates %.1f objects, want at most 2", got)
		}
		b.ReportAllocs()
		for b.Loop() {
			search()
		}
	})
}
