package plan

import (
	"fmt"
	"math"
	"math/rand"

	"seqfm/internal/core"
	"seqfm/internal/feature"
	"seqfm/internal/tensor"
)

// ffnCache holds one application of the shared residual FFN to a 1×d vector:
// the layer chain plus everything the backward pass needs (layer-norm
// statistics, pre-activation values, dropout masks).
type ffnCache struct {
	h      []*tensor.Matrix // len L+1: h[0] is the pooled input, h[L] the output
	ln     []*tensor.Matrix // len L: layer-norm outputs (nil when LN is ablated)
	mu     []float64        // len L: per-layer mean
	invStd []float64        // len L: per-layer 1/√(var+eps)
	z      []*tensor.Matrix // len L: pre-ReLU activations
	r      []*tensor.Matrix // len L: post-ReLU (post-dropout in training)
	mask   []*tensor.Matrix // len L: dropout masks (nil when rate is 0)
}

func newFFNCache(layers, d int, useLN bool, withMask bool) ffnCache {
	c := ffnCache{
		h:      make([]*tensor.Matrix, layers+1),
		z:      make([]*tensor.Matrix, layers),
		r:      make([]*tensor.Matrix, layers),
		mu:     make([]float64, layers),
		invStd: make([]float64, layers),
	}
	for k := range c.h {
		c.h[k] = tensor.New(1, d)
	}
	for k := 0; k < layers; k++ {
		c.z[k] = tensor.New(1, d)
		c.r[k] = tensor.New(1, d)
	}
	if useLN {
		c.ln = make([]*tensor.Matrix, layers)
		for k := range c.ln {
			c.ln[k] = tensor.New(1, d)
		}
	}
	if withMask {
		c.mask = make([]*tensor.Matrix, layers)
		for k := range c.mask {
			c.mask[k] = tensor.New(1, d)
		}
	}
	return c
}

// candSlot holds the candidate-dependent forward state of one scored
// candidate, kept around so the backward pass can consume it. Inference
// forwards reuse slot 0 for every candidate and fill only what they read: of
// the cross-view buffers only ffnX — the per-row state lives in Exec.xrows. A
// frozen plan's slots have no eS and no cross-view matrices at all.
type candSlot struct {
	staticIdx  []int
	eS         *tensor.Matrix // s×d static embedding rows
	qs, ks, vs *tensor.Matrix // s×d static-view projections
	as         *tensor.Matrix // s×s static-view attention probabilities
	h0s        *tensor.Matrix // s×d static-view attention output
	ffnS       ffnCache

	qx, kx, vx          *tensor.Matrix // (s+n)×d full cross projections (training)
	qxTop, kxTop, vxTop *tensor.Matrix // s×d views of their static row-blocks
	ax                  *tensor.Matrix // (s+n)² cross attention probabilities (training)
	h0x                 *tensor.Matrix // (s+n)×d cross attention output (training)
	ffnX                ffnCache

	hagg  *tensor.Matrix // 1×(views·d) aggregated view vector
	score float64
}

// crossRow is what static position p contributes to the inference cross view
// under one dynamic phase — all of it a function of the static index and that
// phase alone, so it is kept until either changes (Exec.crossRows).
type crossRow struct {
	idx int       // static index held, −1 when none
	qkv []float64 // q_p|k_p|v_p: the frozen plan's table row in place, else buf
	buf []float64 // 3d: a live plan's projections; a frozen one's row() scratch
	att []float64 // d: A_p = Σ_j softmax_j(q_p·kD_j/√d)·vD_j over the live keys
	col []float64 // n: c_p[i] = k_p·qD_i
}

// attnScratch is the per-shape backward scratch of one self-attention block.
type attnScratch struct {
	dq, dk, dv *tensor.Matrix // r×d
	da, ds     *tensor.Matrix // r×r
}

func (p *Plan) newAttnScratch(r int) attnScratch {
	return attnScratch{
		dq: p.liveOnly(r, p.d), dk: p.liveOnly(r, p.d), dv: p.liveOnly(r, p.d),
		da: p.liveOnly(r, r), ds: p.liveOnly(r, r),
	}
}

// Exec is one mutable instantiation of a Plan's buffers: the flat float state
// of a forward(+backward) pass, allocated once and reused. An Exec must not
// be shared between goroutines; use Plan.Get/Put or one Exec per worker.
type Exec struct {
	plan *Plan
	rng  *rand.Rand

	// ---- dynamic phase (candidate-independent) ----
	dynIdx   []int
	padCount int
	linD     float64
	eD       *tensor.Matrix // n×d (nil unless the dynamic or cross view needs it)

	qd, kd, vd *tensor.Matrix // n×d dynamic-view projections
	sd, ad     *tensor.Matrix // n×n scores scratch / attention probabilities
	hd0        *tensor.Matrix // n×d dynamic-view attention output
	ffnD       ffnCache

	// hD is the dynamic-view output the candidate phase consumes: ffnD's
	// output after beginDynamic, a DynState's HD in ScoreFast.
	hD *tensor.Matrix
	// qD/kD/vD are the cross view's n×d dynamic row-blocks for the dynamic
	// phase xdyn keys; a DynState does not carry them (projectCrossD).
	qD, kD, vD *tensor.Matrix

	// ---- candidate phase ----
	slots  []*candSlot
	ssS    *tensor.Matrix // s×s static-view pre-softmax scratch
	sx     *tensor.Matrix // (s+n)² cross pre-softmax scratch (training)
	scores []float64
	// Per-row cross view (inference): xrows[p] memoises static position p
	// under the dynamic phase xdyn — a ScoreFast caller's snapshot, held so its
	// address cannot be reused while it keys the memo, or nil for the Exec's
	// own buffers as beginDynamic last filled them.
	xrows []crossRow
	xdyn  *core.DynState
	xv    [][]float64 // s: v_p of every position, for Σ_p w_p·v_p
	xw    []float64   // max(s,n): one row of attention weights
	// rowScratch is where a frozen plan's table computes a row another
	// goroutine is mid-way through publishing (3d).
	rowScratch []float64

	nCand       int
	fwdTraining bool

	// ---- backward scratch ----
	dview            *tensor.Matrix // 1×d per-view gradient
	deS              *tensor.Matrix // s×d per-candidate static embedding grad
	deD              *tensor.Matrix // n×d dynamic embedding grad accumulator
	dhD              *tensor.Matrix // 1×d dynamic-view output grad accumulator
	dlinD            float64
	dh0s, dh0d, dh0x *tensor.Matrix
	scrS, scrD       attnScratch
	dqx, dkx, dvx    *tensor.Matrix // (s+n)×d cross projection grads
	dqxTop, dqxBot   *tensor.Matrix
	dkxTop, dkxBot   *tensor.Matrix
	dvxTop, dvxBot   *tensor.Matrix
	dax, dsx         *tensor.Matrix // (s+n)² cross attention grads
	dqD, dkD, dvD    *tensor.Matrix // n×d shared cross row-block grad accumulators
	ffnDz            *tensor.Matrix // 1×d
	ffnDlin          *tensor.Matrix // 1×d
	ffnDin           *tensor.Matrix // 1×d
}

// liveOnly allocates a buffer that only a live plan's passes touch — the
// gathered embedding rows its projections multiply, and everything a training
// Forward keeps for Backward or Backward scribbles on. A frozen plan reads its
// tables instead and refuses to train, so its Execs leave these nil.
func (p *Plan) liveOnly(rows, cols int) *tensor.Matrix {
	if p.frozen {
		return nil
	}
	return tensor.New(rows, cols)
}

// NewExec allocates a fresh execution state for p. Every buffer is sized from
// the config here; the hot paths below allocate nothing (beyond candidate
// slots the first time a larger batch is seen).
func (p *Plan) NewExec() *Exec {
	s, n, d, c := p.s, p.n, p.d, p.c
	L := len(p.spec.FFN)
	withMask := p.dropRate > 0 && !p.frozen
	e := &Exec{
		plan:    p,
		dynIdx:  make([]int, n),
		dview:   p.liveOnly(1, d),
		ffnDz:   p.liveOnly(1, d),
		ffnDlin: p.liveOnly(1, d),
		ffnDin:  p.liveOnly(1, d),
	}
	if p.hasD || p.hasX {
		e.eD = p.liveOnly(n, d)
		e.deD = p.liveOnly(n, d)
	}
	if p.hasD {
		e.qd = tensor.New(n, d)
		e.kd = tensor.New(n, d)
		e.vd = tensor.New(n, d)
		e.sd = tensor.New(n, n)
		e.ad = tensor.New(n, n)
		e.hd0 = tensor.New(n, d)
		e.ffnD = newFFNCache(L, d, p.useLN, withMask)
		e.dhD = p.liveOnly(1, d)
		e.dh0d = p.liveOnly(n, d)
		e.scrD = p.newAttnScratch(n)
	}
	if p.hasX {
		e.qD = tensor.New(n, d)
		e.kD = tensor.New(n, d)
		e.vD = tensor.New(n, d)
		e.xrows = make([]crossRow, s)
		for i := range e.xrows {
			e.xrows[i] = crossRow{idx: -1, buf: make([]float64, 3*d), att: make([]float64, d), col: make([]float64, n)}
		}
		e.xv = make([][]float64, s)
		e.xw = make([]float64, max(s, n))
		e.sx = p.liveOnly(c, c)
		e.dh0x = p.liveOnly(c, d)
		e.dax = p.liveOnly(c, c)
		e.dsx = p.liveOnly(c, c)
		e.dqD = p.liveOnly(n, d)
		e.dkD = p.liveOnly(n, d)
		e.dvD = p.liveOnly(n, d)
	}
	if p.hasX && !p.frozen {
		e.dqx = tensor.New(c, d)
		e.dkx = tensor.New(c, d)
		e.dvx = tensor.New(c, d)
		e.dqxTop = tensor.FromSlice(s, d, e.dqx.Data[:s*d])
		e.dqxBot = tensor.FromSlice(n, d, e.dqx.Data[s*d:])
		e.dkxTop = tensor.FromSlice(s, d, e.dkx.Data[:s*d])
		e.dkxBot = tensor.FromSlice(n, d, e.dkx.Data[s*d:])
		e.dvxTop = tensor.FromSlice(s, d, e.dvx.Data[:s*d])
		e.dvxBot = tensor.FromSlice(n, d, e.dvx.Data[s*d:])
	}
	if p.hasS {
		e.ssS = tensor.New(s, s)
		e.dh0s = p.liveOnly(s, d)
		e.scrS = p.newAttnScratch(s)
	}
	if p.hasS || p.hasX {
		e.deS = p.liveOnly(s, d)
	}
	if p.frozen {
		e.rowScratch = make([]float64, 3*d)
	}
	return e
}

// SetRNG installs the dropout stream for training forwards. The stream must
// not be shared with other Execs or tapes.
func (e *Exec) SetRNG(rng *rand.Rand) { e.rng = rng }

// newSlot allocates one candidate slot for the plan's active views.
func (p *Plan) newSlot() *candSlot {
	s, d, c := p.s, p.d, p.c
	L := len(p.spec.FFN)
	withMask := p.dropRate > 0 && !p.frozen
	sl := &candSlot{
		staticIdx: make([]int, 0, s),
		hagg:      tensor.New(1, p.nViews*d),
	}
	if p.hasS || p.hasX {
		sl.eS = p.liveOnly(s, d)
	}
	if p.hasS {
		sl.qs = tensor.New(s, d)
		sl.ks = tensor.New(s, d)
		sl.vs = tensor.New(s, d)
		sl.as = tensor.New(s, s)
		sl.h0s = tensor.New(s, d)
		sl.ffnS = newFFNCache(L, d, p.useLN, withMask)
	}
	if p.hasX {
		sl.ffnX = newFFNCache(L, d, p.useLN, withMask)
	}
	if p.hasX && !p.frozen {
		sl.qx = tensor.New(c, d)
		sl.kx = tensor.New(c, d)
		sl.vx = tensor.New(c, d)
		sl.qxTop = tensor.FromSlice(s, d, sl.qx.Data[:s*d])
		sl.kxTop = tensor.FromSlice(s, d, sl.kx.Data[:s*d])
		sl.vxTop = tensor.FromSlice(s, d, sl.vx.Data[:s*d])
		sl.ax = tensor.New(c, c)
		sl.h0x = tensor.New(c, d)
	}
	return sl
}

func (e *Exec) ensureSlots(n int) {
	for len(e.slots) < n {
		e.slots = append(e.slots, e.plan.newSlot())
	}
}

// layerNormForward replicates ag.LayerNorm's forward for a 1×d row, caching
// the per-row statistics for the backward pass.
func layerNormForward(dst, x *tensor.Matrix, sv, bv []float64, eps float64) (mu, invStd float64) {
	d := float64(x.Cols)
	m := 0.0
	for _, xv := range x.Data {
		m += xv
	}
	m /= d
	variance := 0.0
	for _, xv := range x.Data {
		dv := xv - m
		variance += dv * dv
	}
	variance /= d
	is := 1 / math.Sqrt(variance+eps)
	for j, xv := range x.Data {
		dst.Data[j] = sv[j]*(xv-m)*is + bv[j]
	}
	return m, is
}

// ffnForward runs the shared residual FFN over c.h[0], filling the cache and
// returning the output vector c.h[L]. Exactly mirrors nn.ResidualFFN.Forward:
// out_k = Dropout(ReLU(LN?(h)·W + b)), h = h + out_k (or out_k without the
// residual connection). Dropout draws one rng.Float64 per element, in element
// order, matching the tape's mask construction bit for bit.
func (e *Exec) ffnForward(c *ffnCache, training bool) *tensor.Matrix {
	p := e.plan
	drop := training && p.dropRate > 0
	keep := 1 - p.dropRate
	inv := 1 / keep
	h := c.h[0]
	for k, lay := range p.spec.FFN {
		in := h
		if p.useLN {
			in = c.ln[k]
			c.mu[k], c.invStd[k] = layerNormForward(in, h, lay.LNS.Value.Data, lay.LNB.Value.Data, lay.Eps)
		}
		z := c.z[k]
		tensor.MatMulInto(z, in, lay.W.Value)
		for j, bv := range lay.B.Value.Data {
			z.Data[j] += bv
		}
		r := c.r[k]
		for j, zv := range z.Data {
			if zv > 0 {
				r.Data[j] = zv
			} else {
				r.Data[j] = 0
			}
		}
		if drop {
			mask := c.mask[k]
			for j, x := range r.Data {
				if e.rng.Float64() < keep {
					mask.Data[j] = inv
					r.Data[j] = x * inv
				} else {
					mask.Data[j] = 0
					r.Data[j] = 0
				}
			}
		}
		next := c.h[k+1]
		if p.useRes {
			for j := range next.Data {
				next.Data[j] = h.Data[j] + r.Data[j]
			}
		} else {
			copy(next.Data, r.Data)
		}
		h = next
	}
	return h
}

// projectQKV fills q/k/v with the three projections of the embedding rows
// idx — the one place the frozen and live paths part. A live plan multiplies
// the gathered rows eIn by w; a frozen plan copies each row out of tab, which
// holds what that multiplication produces for the row (tables.go).
func (e *Exec) projectQKV(tab *projTable, idx []int, eIn *tensor.Matrix, w core.AttnSpec, q, k, v *tensor.Matrix) {
	if tab == nil {
		tensor.MatMulInto(q, eIn, w.WQ.Value)
		tensor.MatMulInto(k, eIn, w.WK.Value)
		tensor.MatMulInto(v, eIn, w.WV.Value)
		return
	}
	d := e.plan.d
	for i, ix := range idx {
		row := tab.row(ix, e.rowScratch)
		copy(q.Row(i), row[:d])
		copy(k.Row(i), row[d:2*d])
		copy(v.Row(i), row[2*d:])
	}
}

// attend runs one dense self-attention block over projected rows:
// a = softmax of the scaled score matrix plus mask, h0 = a·v. scores is
// scratch; a and h0 are kept for the backward pass.
func (e *Exec) attend(mask, q, k, v, scores, a, h0 *tensor.Matrix) {
	tensor.MatMulTInto(scores, q, k, mask)
	scores.ScaleInPlace(e.plan.invSqrtD)
	tensor.SoftmaxRowsInto(a, scores, mask)
	tensor.MatMulInto(h0, a, v)
}

// beginDynamic runs the candidate-independent phase for hist, the compiled
// equivalent of core.ForwardDynamic: pad the history, sum the dynamic linear
// term, gather embeddings, run the dynamic view and project the cross-view
// row-blocks — all into preallocated buffers.
func (e *Exec) beginDynamic(hist []int, training bool) {
	p := e.plan
	// feature.Space.PadHist, without the allocation.
	start := len(hist) - p.n
	pad := 0
	for i := 0; i < p.n; i++ {
		src := start + i
		if src < 0 {
			e.dynIdx[i] = feature.Pad
		} else {
			e.dynIdx[i] = hist[src]
		}
	}
	for _, ix := range e.dynIdx {
		if ix < 0 {
			pad++
		}
	}
	e.padCount = pad

	wd := p.spec.WDynamic.Value
	lin := 0.0
	for _, ix := range e.dynIdx {
		if ix < 0 {
			continue
		}
		if ix >= wd.Rows {
			panic(fmt.Sprintf("plan: dynamic index %d out of range for %d objects", ix, wd.Rows))
		}
		lin += wd.Data[ix]
	}
	e.linD = lin

	// A live plan projects the gathered rows; a frozen plan reads its tables.
	if !p.frozen && (p.hasD || p.hasX) {
		gatherRows(e.eD, p.spec.EmbD.Value, e.dynIdx)
	}
	if p.hasD {
		mask := p.spec.CausalMask
		if p.maskPad {
			mask = p.spec.CausalPad[pad]
		}
		e.projectQKV(p.tab.dynD, e.dynIdx, e.eD, p.spec.AttnD, e.qd, e.kd, e.vd)
		e.attend(mask, e.qd, e.kd, e.vd, e.sd, e.ad, e.hd0)
		meanRowsInto(e.ffnD.h[0], e.hd0)
		e.hD = e.ffnForward(&e.ffnD, training)
	} else {
		e.hD = nil
	}
	if p.hasX {
		e.projectCrossD(e.dynIdx)
	}
	e.resetCross(nil)
}

// projectCrossD fills qD/kD/vD with the cross view's dynamic row-blocks for
// the padded history dynIdx. A live plan multiplies eD, which must hold
// dynIdx's gathered embedding rows; a frozen plan copies table rows.
func (e *Exec) projectCrossD(dynIdx []int) {
	p := e.plan
	e.projectQKV(p.tab.crossD, dynIdx, e.eD, p.spec.AttnX, e.qD, e.kD, e.vD)
}

// resetCross empties the cross-view memo and keys it on the dynamic phase st,
// whose cross row-blocks qD/kD/vD must already hold.
func (e *Exec) resetCross(st *core.DynState) {
	e.xdyn = st
	for i := range e.xrows {
		e.xrows[i].idx = -1
	}
}

// scoreCandidate attaches one candidate to the prepared dynamic state — the
// compiled core.Model.ForwardCandidate. hS, when non-nil, is injected in place
// of computing the static view (serving cache hit). It returns the raw score
// and the freshly computed static-view vector (nil when injected or ablated).
func (e *Exec) scoreCandidate(sl *candSlot, inst feature.Instance, training bool, hS *tensor.Matrix) (float64, *tensor.Matrix) {
	p := e.plan
	sl.staticIdx = p.spec.Cfg.Space.StaticIndicesInto(sl.staticIdx, inst)

	// Linear component, associated exactly as the tape: w0 + (Σw° + Σw·).
	ws := p.spec.WStatic.Value
	gs := 0.0
	for _, ix := range sl.staticIdx {
		gs += ws.Data[ix]
	}
	linear := p.spec.W0.Value.Data[0] + (gs + e.linD)

	// A live plan projects the gathered static rows — one gather, shared by
	// the static view and the training cross view; a frozen plan reads its
	// tables, and the inference cross view projects row by row (crossRows).
	if !p.frozen && ((p.hasX && training) || (p.hasS && hS == nil)) {
		gatherRows(sl.eS, p.spec.EmbS.Value, sl.staticIdx)
	}

	var hSOut *tensor.Matrix
	off := 0
	d := p.d
	if p.hasS {
		if hS == nil {
			e.projectQKV(p.tab.staticS, sl.staticIdx, sl.eS, p.spec.AttnS, sl.qs, sl.ks, sl.vs)
			e.attend(nil, sl.qs, sl.ks, sl.vs, e.ssS, sl.as, sl.h0s)
			meanRowsInto(sl.ffnS.h[0], sl.h0s)
			hSOut = e.ffnForward(&sl.ffnS, training)
			hS = hSOut
		}
		copy(sl.hagg.Data[off:off+d], hS.Data)
		off += d
	}
	if p.hasD {
		copy(sl.hagg.Data[off:off+d], e.hD.Data)
		off += d
	}
	if p.hasX {
		if training {
			e.crossDense(sl)
		} else {
			e.crossRows(sl)
		}
		hX := e.ffnForward(&sl.ffnX, training)
		copy(sl.hagg.Data[off:off+d], hX.Data)
	}

	f := tensor.DotVec(p.spec.Proj.Value.Data, sl.hagg.Data)
	sl.score = linear + f
	return sl.score, hSOut
}

// crossDense is the training cross view: the (s+n)-row Q/K/V are assembled in
// the slot — static row-blocks per candidate, dynamic row-blocks from the
// shared phase, the row-split core.Model.ForwardCandidate records via
// ConcatRows — and attended under the additive cross mask, leaving the
// probabilities and the attention output where Backward reads them.
func (e *Exec) crossDense(sl *candSlot) {
	p := e.plan
	e.projectQKV(nil, sl.staticIdx, sl.eS, p.spec.AttnX, sl.qxTop, sl.kxTop, sl.vxTop)
	mask := p.spec.CrossMask
	if p.maskPad {
		mask = p.spec.CrossPad[e.padCount]
	}
	copy(sl.qx.Data[p.s*p.d:], e.qD.Data)
	copy(sl.kx.Data[p.s*p.d:], e.kD.Data)
	copy(sl.vx.Data[p.s*p.d:], e.vD.Data)
	e.attend(mask, sl.qx, sl.kx, sl.vx, e.sx, sl.ax, sl.h0x)
	meanRowsInto(sl.ffnX.h[0], sl.h0x)
}

// crossRows is the inference cross view: the same pooled attention output as
// crossDense, bit for bit, from the live entries of the cross mask alone and
// one static position at a time. Position p owes the pool its attended row
// A_p over the dynamic keys (minus the padded head under MaskPadding) and, to
// each dynamic query i, the score k_p·qD_i — taken as one DotRows of k_p
// against qD, which is the dense qD_i·k_p with every product commuted and
// every sum in its order. Both depend on the static index and the dynamic
// phase alone, so a position whose index the previous candidate shared keeps
// them. The pool then adds A_p in position order and the dynamic rows'
// attended Σ_p w_p·v_p in row order — the dense row order meanRowsInto pools
// in. qD/kD/vD are read in the Exec's buffers, and a frozen plan's
// q_p|k_p|v_p in its table.
func (e *Exec) crossRows(sl *candSlot) {
	p := e.plan
	d := p.d
	firstKey := 0
	if p.maskPad {
		firstKey = e.padCount
	}
	for pos, ix := range sl.staticIdx {
		r := &e.xrows[pos]
		if r.idx != ix {
			r.idx = ix
			if tab := p.tab.crossS; tab != nil {
				r.qkv = tab.row(ix, r.buf)
			} else {
				r.qkv = r.buf
				projectRow(r.buf, p.spec.EmbS.Value.Row(ix), p.spec.AttnX)
			}
			clear(r.att)
			w := e.xw[:p.n]
			tensor.DotRows(w, r.qkv[:d], e.kD, firstKey)
			if softmaxScaled(w[firstKey:], p.invSqrtD) {
				tensor.AddScaledRows(r.att, w, e.vD, firstKey)
			}
			tensor.DotRows(r.col, r.qkv[d:2*d], e.qD, 0)
		}
		e.xv[pos] = r.qkv[2*d:]
	}
	pool := sl.ffnX.h[0].Data
	clear(pool)
	for i := range e.xrows {
		for t, v := range e.xrows[i].att[:len(pool)] {
			pool[t] += v
		}
	}
	w := e.xw[:p.s]
	for i := 0; i < p.n; i++ {
		for pos := range w {
			w[pos] = e.xrows[pos].col[i]
		}
		if softmaxScaled(w, p.invSqrtD) {
			tensor.AddScaledSum(pool, w, e.xv)
		}
	}
	sl.ffnX.h[0].ScaleInPlace(1.0 / float64(p.c))
}

// Score runs the full compiled forward for one instance in inference mode —
// bit-identical to core.Model.Score on a fresh tape.
func (e *Exec) Score(inst feature.Instance) float64 {
	e.fwdTraining = false
	e.beginDynamic(inst.Hist, false)
	e.ensureSlots(1)
	score, _ := e.scoreCandidate(e.slots[0], inst, false, nil)
	return score
}

// Forward scores insts[0] (the positive) and the rest (its sampled
// corruptions) against insts[0]'s history, sharing the dynamic phase exactly
// like the candidate-sharing tape forward. In training mode dropout masks are
// drawn from the Exec's RNG (SetRNG) and every intermediate is kept for
// Backward. The returned slice is Exec scratch, valid until the next call.
func (e *Exec) Forward(insts []feature.Instance, training bool) []float64 {
	if len(insts) == 0 {
		panic("plan: Forward of no instances")
	}
	if training && e.plan.frozen {
		panic("plan: training Forward on a frozen plan")
	}
	if training && e.plan.dropRate > 0 && e.rng == nil {
		panic("plan: training Forward without rng; call SetRNG")
	}
	e.beginDynamic(insts[0].Hist, training)
	// Only Backward reads a slot after its score is out, so inference scores
	// every candidate through slot 0.
	nSlots := 1
	if training {
		nSlots = len(insts)
	}
	e.ensureSlots(nSlots)
	e.scores = e.scores[:0]
	for i, inst := range insts {
		s, _ := e.scoreCandidate(e.slots[i%nSlots], inst, training, nil)
		e.scores = append(e.scores, s)
	}
	e.nCand = len(insts)
	e.fwdTraining = training
	return e.scores
}

// PrecomputeDynamic runs the compiled dynamic phase and snapshots it as a
// core.DynState. A snapshot from a live or a frozen plan of the same weights
// is scored identically, bit for bit, by either. The Exec's cross row-blocks
// are left keyed on the snapshot, so scoring it here next re-derives nothing.
func (e *Exec) PrecomputeDynamic(hist []int) *core.DynState {
	e.fwdTraining = false
	e.beginDynamic(hist, false)
	st := &core.DynState{
		DynIdx:   append([]int(nil), e.dynIdx...),
		PadCount: e.padCount,
		LinD:     e.linD,
	}
	if e.hD != nil {
		st.HD = e.hD.Clone()
	}
	e.resetCross(st)
	return st
}

// ScoreFast scores inst against a cached dynamic state st, which must come
// from the same history inst carries (only the static fields of inst are
// read). hS, when non-nil, must be a static-view vector ScoreFast returned for
// the same static fields (user, target, attrs); pass nil to compute it fresh.
// It returns the raw score of Eq. (19) — bit-for-bit identical to
// core.Model.Score on the full instance — and the static-view vector for the
// caller to cache (a fresh clone when computed; nil under "Remove SV").
func (e *Exec) ScoreFast(st *core.DynState, inst feature.Instance, hS *tensor.Matrix) (float64, *tensor.Matrix) {
	e.fwdTraining = false
	e.padCount = st.PadCount
	e.linD = st.LinD
	e.hD = st.HD
	if st != e.xdyn {
		if p := e.plan; p.hasX {
			if !p.frozen {
				gatherRows(e.eD, p.spec.EmbD.Value, st.DynIdx)
			}
			e.projectCrossD(st.DynIdx)
		}
		e.resetCross(st)
	}
	e.ensureSlots(1)
	score, hSOut := e.scoreCandidate(e.slots[0], inst, false, hS)
	if hS == nil && hSOut != nil {
		hS = hSOut.Clone()
	}
	return score, hS
}
