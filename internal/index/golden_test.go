package index

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// TestHNSWGolden pins a sequential build link for link and its searches bit
// for bit. The hashes were computed before the distance kernel and the search
// heaps were last rewritten; a change that alters a single similarity bit, a
// tie-break or the traversal order moves them. d = 30 is not a multiple of
// four, so it also covers dot's tail.
func TestHNSWGolden(t *testing.T) {
	for _, tc := range []struct {
		d                 int
		graph, search, fl uint64
	}{
		{d: 64, graph: 0x63552f11c0863a8a, search: 0x7b2bdc65fa691a43, fl: 0xee477f7a2ddbb30b},
		{d: 30, graph: 0x3bed763761883279, search: 0xe481f8579b38626a, fl: 0xe481f8579b38626a},
	} {
		s := randomStore(1200, tc.d, int64(100+tc.d))
		h := NewHNSW(s, Config{M: 16, EfConstruction: 100, EfSearch: 64, Seed: 7, BuildWorkers: 1})
		graph, search, fl := goldenHashes(h, NewFlat(s), tc.d)
		if graph != tc.graph || search != tc.search || fl != tc.fl {
			t.Errorf("d=%d: hashes (graph %#x, search %#x, flat %#x), want (%#x, %#x, %#x)",
				tc.d, graph, search, fl, tc.graph, tc.search, tc.fl)
		}
	}
}

// goldenHashes returns FNV-64a hashes of h's entry point, top level and every
// node's per-level links; of h.Search's ids and score bits for 50 seeded
// queries, unfiltered and with every seventh id excluded; and of the same for
// the flat scan.
func goldenHashes(h *HNSW, flat *Flat, d int) (graph, search, fl uint64) {
	g := fnv.New64a()
	put := func(x uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], x)
		g.Write(b[:])
	}
	put(uint64(h.entry))
	put(uint64(h.maxLevel))
	for _, levels := range h.links {
		put(uint64(len(levels)))
		for _, ls := range levels {
			put(uint64(len(ls)))
			for _, n := range ls {
				put(uint64(n))
			}
		}
	}
	graph = g.Sum64()

	exclude := func(id int) bool { return id%7 == 0 }
	hashSearches := func(r Retriever) uint64 {
		g.Reset()
		rng := rand.New(rand.NewSource(int64(d)))
		for i := 0; i < 50; i++ {
			q := randomQuery(d, rng)
			for _, ex := range []func(int) bool{nil, exclude} {
				res := r.Search(q, 20, ex)
				put(uint64(len(res)))
				for _, x := range res {
					put(uint64(x.ID))
					put(math.Float64bits(x.Score))
				}
			}
		}
		return g.Sum64()
	}
	return graph, hashSearches(h), hashSearches(flat)
}
