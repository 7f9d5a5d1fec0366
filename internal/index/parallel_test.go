package index

import "testing"

// TestParallelBuildSmallDegree runs the locked build where lists overflow
// most often — M = 2, so an upper-layer list is full at two links and the
// next one shrinks it in place — many times over, for -race to see a worker
// reading a list another worker is rewriting. Each graph must still answer.
func TestParallelBuildSmallDegree(t *testing.T) {
	s := randomStore(600, 8, 3)
	for seed := int64(1); seed <= 20; seed++ {
		h := NewHNSW(s, Config{M: 2, EfConstruction: 20, Seed: seed, BuildWorkers: 4})
		if got := h.Search(s.vec(0), 5, nil); len(got) != 5 {
			t.Fatalf("seed %d: %d results, want 5", seed, len(got))
		}
	}
}
