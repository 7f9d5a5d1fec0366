package plan

import (
	"sync/atomic"

	"seqfm/internal/core"
	"seqfm/internal/tensor"
)

// A frozen plan's projected-row tables. In an immutable serving generation
// Emb[i]·W depends on the feature id i alone, so each such row is computed
// once — on first touch, by tensor.MatMulInto on that single row, which is
// what the live path runs for it inside a larger matmul (the kernel computes
// every output row from its own input row, so the bits are the same) — and
// every later request copies it instead of multiplying.
//
// Memory follows the rows touched: a table is a slice of chunk pointers
// (8 B per chunkRows rows up front), a chunk — per-row states and slice
// headers, under half a KiB — is allocated when one of its rows is first
// asked for, and a row's 3d floats when that row is. Nothing is built at
// compile or publish time.
//
// Publication is lock-free. A row's state goes empty → filling → ready; the
// goroutine that wins the empty → filling CAS allocates and writes the row
// and stores ready, a reader that loads ready may read the row, and a reader
// that finds the row mid-fill computes it into its own scratch rather than
// wait. A hit is two atomic loads.

// chunkRows sets the size of the up-front pointer slice (rows/chunkRows
// pointers) against the cost of a chunk nobody else shares.
const chunkRows = 16

const (
	rowEmpty uint32 = iota
	rowFilling
	rowReady
)

type projChunk struct {
	state [chunkRows]atomic.Uint32
	// rows[r] is written once, by the goroutine that claimed state[r], before
	// it stores rowReady; readers load the state first.
	rows [chunkRows][]float64
}

// projTable holds [Emb[i]·WQ | Emb[i]·WK | Emb[i]·WV] for the rows i of one
// embedding matrix under one attention triple.
type projTable struct {
	emb    *tensor.Matrix
	w      core.AttnSpec
	d      int
	chunks []atomic.Pointer[projChunk]
	// pad is what feature.Pad projects to: MatMulInto of a zero row is +0.
	pad []float64
}

func newProjTable(emb *tensor.Matrix, w core.AttnSpec) *projTable {
	return &projTable{
		emb:    emb,
		w:      w,
		d:      emb.Cols,
		chunks: make([]atomic.Pointer[projChunk], (emb.Rows+chunkRows-1)/chunkRows),
		pad:    make([]float64, 3*emb.Cols),
	}
}

// row returns the 3d-wide projected row of feature ix (negative: padding).
// The result aliases the table, or scratch (3d floats, caller-owned) when
// another goroutine is filling the row right now; it must not be written.
func (t *projTable) row(ix int, scratch []float64) []float64 {
	if ix < 0 {
		return t.pad
	}
	slot := &t.chunks[ix/chunkRows]
	c := slot.Load()
	if c == nil {
		c = new(projChunk)
		if !slot.CompareAndSwap(nil, c) {
			c = slot.Load()
		}
	}
	r := ix % chunkRows
	state := &c.state[r]
	if state.Load() == rowReady {
		return c.rows[r]
	}
	if state.CompareAndSwap(rowEmpty, rowFilling) {
		c.rows[r] = make([]float64, 3*t.d)
		projectRow(c.rows[r], t.emb.Row(ix), t.w)
		state.Store(rowReady)
		return c.rows[r]
	}
	projectRow(scratch, t.emb.Row(ix), t.w)
	return scratch
}

// projectRow writes [in·WQ | in·WK | in·WV] for one embedding row in into dst
// (3·len(in) floats) — the rows MatMulInto computes for it in a larger product.
func projectRow(dst, in []float64, w core.AttnSpec) {
	d := len(in)
	a := tensor.Matrix{Rows: 1, Cols: d, Data: in}
	for k, wm := range [3]*tensor.Matrix{w.WQ.Value, w.WK.Value, w.WV.Value} {
		out := tensor.Matrix{Rows: 1, Cols: d, Data: dst[k*d : (k+1)*d]}
		tensor.MatMulInto(&out, &a, wm)
	}
}

// tables are the four projected-row tables of a frozen plan; a view's tables
// are nil when the view is ablated, and all are nil on a live plan.
type tables struct {
	staticS, crossS *projTable // EmbS under the static / cross view's triple
	dynD, crossD    *projTable // EmbD under the dynamic / cross view's triple
}
