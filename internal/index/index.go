// Package index is the candidate-retrieval subsystem: approximate
// nearest-neighbor search over the model's static item embeddings, the
// first stage of the standard two-stage production architecture for
// sequence-aware recommenders (candidate generation → ranking). Every
// serving path before this package required the caller to hand over an
// explicit candidate list for brute-force scoring — fine for the paper's
// J=100 evaluation protocol, useless against a catalog of millions. The
// index answers "which N items are even worth exact-scoring?" in
// sub-millisecond time; the serving engine then re-ranks those N with the
// exact SeqFM forward pass (serve.Engine.Recommend).
//
// Two backends live behind one Retriever interface:
//
//   - HNSW — a hierarchical navigable small world graph (Malkov &
//     Yashunin, TPAMI 2018), the production default: logarithmic search
//     over a layered proximity graph, with recall tunable at query time
//     via efSearch.
//   - Flat — the exact scan over the same vectors: the verification
//     baseline recall is measured against, the correctness oracle for
//     tests, and a selectable fallback for small catalogs where the graph
//     is not worth building.
//
// Both backends read the same immutable Store of L2-normalised vectors, so
// "recall@N versus the flat baseline" is well defined: the two rankings
// order the identical similarity (cosine, computed as a dot product of
// unit vectors) and differ only in completeness of the search.
//
// Concurrency: a Store and every Retriever built over it are immutable
// after construction and safe for unbounded concurrent Search calls.
// Construction is sequential by default and concurrent with
// Config.BuildWorkers > 1 (see HNSW). The serving engine exploits the
// immutability by hanging one index off each RCU generation snapshot: the
// index is rebuilt when new weights are published and shares the fate of
// the generation, so stale embeddings are never searched against new
// weights (see serve's generation lifecycle and DESIGN.md §8).
package index

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Backend selects the retrieval implementation behind New.
type Backend int

// The retrieval backends. The zero value is HNSW, the production default;
// Flat is the exact-scan verification baseline.
const (
	BackendHNSW Backend = iota
	BackendFlat
)

// String names the backend the way /v1/model does.
func (b Backend) String() string {
	switch b {
	case BackendHNSW:
		return "hnsw"
	case BackendFlat:
		return "flat"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// ParseBackend maps the wire names back to Backend values.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "", "hnsw":
		return BackendHNSW, nil
	case "flat":
		return BackendFlat, nil
	default:
		return 0, fmt.Errorf("index: unknown backend %q (want hnsw|flat)", s)
	}
}

// Defaults for Config's zero fields.
const (
	DefaultM              = 16
	DefaultEfConstruction = 200
	DefaultEfSearch       = 128
)

// Config parameterises the HNSW graph. The zero value takes every default;
// the Flat backend ignores it entirely.
type Config struct {
	// M is the maximum number of bidirectional links per node per layer
	// (the base layer allows 2M). Larger M raises recall and memory;
	// 12–48 is the useful range. 0 means DefaultM.
	M int
	// EfConstruction is the breadth of the candidate search during
	// insertion. Larger values build a higher-quality graph, linearly
	// slower. 0 means DefaultEfConstruction.
	EfConstruction int
	// EfSearch is the breadth of the query-time search; recall@N rises
	// with it at linear query cost, and it is clamped up to N so asking
	// for more results than the search breadth is never silently
	// truncated. 0 means DefaultEfSearch.
	EfSearch int
	// Seed drives the level-assignment RNG, making graph construction
	// deterministic for a fixed insertion order. 0 means 1.
	Seed int64
	// BuildWorkers parallelises graph construction: <= 1 builds
	// sequentially (bit-deterministic for a fixed Seed), > 1 inserts
	// concurrently with per-node link locks — the resulting graph depends
	// on interleaving but satisfies the same recall properties (the level
	// assignment stays deterministic either way: levels are pre-drawn from
	// Seed before any worker starts). -1 means GOMAXPROCS.
	BuildWorkers int
}

func (c Config) withDefaults() Config {
	if c.M <= 0 {
		c.M = DefaultM
	}
	// M=1 would make the level normalisation 1/ln(M) infinite (level
	// assignment overflows and construction panics) and a 1-link graph
	// cannot navigate anyway; 2 is the smallest structurally valid degree.
	if c.M < 2 {
		c.M = 2
	}
	if c.EfConstruction <= 0 {
		c.EfConstruction = DefaultEfConstruction
	}
	if c.EfSearch <= 0 {
		c.EfSearch = DefaultEfSearch
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Result is one retrieved candidate: the catalog object id and its cosine
// similarity to the query (unit-vector dot product, higher is better).
type Result struct {
	ID    int
	Score float64
}

// Retriever is the candidate-generation contract both backends satisfy.
// Implementations are immutable and safe for concurrent Search.
type Retriever interface {
	// Search returns up to n catalog items most similar to query, sorted
	// by descending similarity (ties broken by ascending id). Items for
	// which exclude returns true are skipped without terminating the
	// search — the serving engine uses this to drop already-seen objects.
	// exclude may be nil. The query need not be normalised. On the graph
	// backend excluded items still occupy the search beam (they must:
	// they anchor the frontier), so size n to include the expected number
	// of exclusions — the serving engine grows its depth by the seen-set
	// size for exactly this reason; the flat backend is insensitive.
	Search(query []float64, n int, exclude func(id int) bool) []Result
	// Len is the number of indexed items, Dim their dimensionality.
	Len() int
	Dim() int
	// Backend identifies the implementation.
	Backend() Backend
}

// New builds a retriever of the given backend over s.
func New(b Backend, s *Store, cfg Config) Retriever {
	if b == BackendFlat {
		return NewFlat(s)
	}
	return NewHNSW(s, cfg)
}

// Store is an immutable slab of L2-normalised item vectors plus their
// catalog ids. Both backends read the same store, so exact and approximate
// search rank the identical similarity; the serving engine builds one
// store per published generation and hangs both the ANN graph and (when
// recall sampling is on) the exact scanner off it without duplicating the
// vectors.
type Store struct {
	ids  []int
	dim  int
	data []float64 // len(ids)*dim, row i is the unit vector of ids[i]
}

// BuildStore materialises the store for the given catalog ids: fill is
// called once per id with a zeroed dim-length destination to write the raw
// vector into, which is then L2-normalised in place (zero vectors are kept
// as-is — they match nothing). ids is copied; duplicate ids are a caller
// bug and panic, because they would make recall accounting ambiguous.
func BuildStore(ids []int, dim int, fill func(id int, dst []float64)) *Store {
	if dim < 1 {
		panic(fmt.Sprintf("index: store dim %d", dim))
	}
	s := &Store{
		ids:  append([]int(nil), ids...),
		dim:  dim,
		data: make([]float64, len(ids)*dim),
	}
	seen := make(map[int]struct{}, len(ids))
	for i, id := range s.ids {
		if _, dup := seen[id]; dup {
			panic(fmt.Sprintf("index: duplicate catalog id %d", id))
		}
		seen[id] = struct{}{}
		row := s.data[i*dim : (i+1)*dim]
		fill(id, row)
		normalize(row)
	}
	return s
}

// Len returns the number of stored vectors.
func (s *Store) Len() int { return len(s.ids) }

// Dim returns the vector dimensionality.
func (s *Store) Dim() int { return s.dim }

// ID returns the catalog id of internal row i.
func (s *Store) ID(i int) int { return s.ids[i] }

// vec returns internal row i's unit vector (a view, not a copy).
func (s *Store) vec(i int) []float64 { return s.data[i*s.dim : (i+1)*s.dim] }

// normalize scales v to unit L2 norm in place; zero vectors are left alone.
// The float64 conversion keeps a fusing compiler (arm64) from turning the sum
// into multiply-adds, so every host stores the same bits.
func normalize(v []float64) {
	var ss float64
	for _, x := range v {
		ss += float64(x * x)
	}
	if ss == 0 {
		return
	}
	inv := 1 / math.Sqrt(ss)
	for i := range v {
		v[i] *= inv
	}
}

// normalizeQuery returns a unit-norm copy of q, validated against dim.
func normalizeQuery(q []float64, dim int) []float64 {
	if len(q) != dim {
		panic(fmt.Sprintf("index: query dim %d, store dim %d", len(q), dim))
	}
	out := append([]float64(nil), q...)
	normalize(out)
	return out
}

// dot is the similarity kernel both backends share — the hot loop of every
// search and of graph construction. Vectors are unit-norm, so this is
// cosine similarity. Four accumulators break the FP add dependency chain;
// the re-slices inside the loop let the compiler drop the per-element
// bounds checks (measured ~27% faster than the naive unroll at d=64).
//
// This is deliberately not tensor.DotVec: splitting one sum over four
// accumulators reassociates it, which the model kernels may not do (their
// contract is bit-identity with the tape) and retrieval may. Retrieval's own
// contract is that this association is the only one: Store.dots' vector body
// computes exactly it, and every product is rounded before it is added
// (float64(x*y)), so a compiler that fuses multiply-add (arm64) cannot change
// a bit either. The same store builds the same graph on every host.
func dot(a, b []float64) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	n := len(a) &^ 3
	for i := 0; i < n; i += 4 {
		aa, bb := a[i:i+4:i+4], b[i:i+4:i+4]
		s0 += float64(aa[0] * bb[0])
		s1 += float64(aa[1] * bb[1])
		s2 += float64(aa[2] * bb[2])
		s3 += float64(aa[3] * bb[3])
	}
	for i := n; i < len(a); i++ {
		s0 += float64(a[i] * b[i])
	}
	return s0 + s1 + s2 + s3
}

// dots sets out[k] = dot(q, s.vec(rows[k])) for every k, bit for bit. On AVX2
// with a dimension that is a multiple of four it runs dotsAVX2, four rows a
// pass; one to three rows left over run as one more pass over a padded group,
// the spare lanes repeating the last row. Otherwise, and as the oracle the
// tests hold the vector body to, it is dot's loop row by row.
func (s *Store) dots(out, q []float64, rows []int32) {
	out = out[:len(rows)]
	q = q[:s.dim]
	if !useAVX2 || s.dim%4 != 0 {
		for k, r := range rows {
			out[k] = dot(q, s.vec(int(r)))
		}
		return
	}
	for _, r := range rows { // the vector body checks no bounds
		if uint(r) >= uint(len(s.ids)) {
			panic(fmt.Sprintf("index: row %d of %d", r, len(s.ids)))
		}
	}
	n := len(rows) &^ 3
	if n > 0 {
		dotsAVX2(&out[0], &q[0], s.dim, &s.data[0], &rows[0], n)
	}
	if rest := rows[n:]; len(rest) > 0 {
		var pad [4]int32
		var sims [4]float64
		for j := range pad {
			pad[j] = rest[min(j, len(rest)-1)]
		}
		dotsAVX2(&sims[0], &q[0], s.dim, &s.data[0], &pad[0], 4)
		copy(out[n:], sims[:])
	}
}

// sortResults orders results by descending similarity, ties by ascending
// id, so every backend's output is deterministic and directly comparable.
func sortResults(rs []Result) {
	slices.SortFunc(rs, func(a, b Result) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
}
