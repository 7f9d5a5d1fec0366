package plan

import (
	"fmt"

	"seqfm/internal/ag"
	"seqfm/internal/core"
	"seqfm/internal/tensor"
)

// This file is the hand-derived reverse pass of the compiled forward: the
// same mathematical gradients the tape's closures compute, written as direct
// kernel calls into an ag.GradShard. Derivation sketch (per candidate score
// gradient ds, DESIGN.md §11 carries the full derivation):
//
//	score = linear + p·hagg
//	  ⇒ dW0 += ds; dw°[staticIdx] += ds; dlinD += ds (shared, deferred)
//	  ⇒ dp += ds·hagg; dhagg = ds·p, split into per-view segments
//	view = FFN(mean(h0)), h0 = A·V, A = softmax(s·QKᵀ + mask)
//	  ⇒ dV = AᵀdH, dA = dH·Vᵀ, dS_j = s·y_j(dA_j − Σ dA·y), dQ = dS·K,
//	    dK = dSᵀ·Q, dW* += EᵀdΠ, dE += dΠ·W*ᵀ
//	cross view: the top n° rows of dQ/dK/dV belong to this candidate's
//	static rows; the bottom n. rows accumulate into shared dQ·/dK·/dV·
//	(mirroring ConcatRows' backward split) and are resolved once after the
//	candidate loop, together with the dynamic view's FFN/attention backward.
//
// The shared dynamic subgraph therefore backpropagates exactly once per
// instance with all candidates' upstream gradients pre-summed — the same
// f'(Σ upstream) the tape computes, up to IEEE summation order (candidates
// accumulate forward-order here, reverse-record-order on the tape).
//
// Ablation discipline: a GradShard only covers the model's Params(), which
// exclude the attention triples of removed views and the layer-norm
// parameters when LN is ablated — resolveGrads never touches them, so the
// shard's covered-param panic stays impossible.

// attnGradRefs are the resolved shard buffers of one attention triple.
type attnGradRefs struct {
	wq, wk, wv *tensor.Matrix
}

// gradRefs are all shard buffers the backward pass writes, resolved once per
// Backward call.
type gradRefs struct {
	w0, wStatic, wDynamic *tensor.Matrix
	embS, embD            *tensor.Matrix
	proj                  *tensor.Matrix
	attnS, attnD, attnX   attnGradRefs
	ffnW, ffnB            []*tensor.Matrix
	ffnLNS, ffnLNB        []*tensor.Matrix
}

func (e *Exec) resolveGrads(shard *ag.GradShard) gradRefs {
	p := e.plan
	g := gradRefs{
		w0:       shard.Grad(p.spec.W0),
		wStatic:  shard.Grad(p.spec.WStatic),
		wDynamic: shard.Grad(p.spec.WDynamic),
		embS:     shard.Grad(p.spec.EmbS),
		embD:     shard.Grad(p.spec.EmbD),
		proj:     shard.Grad(p.spec.Proj),
	}
	resolveAttn := func(a core.AttnSpec) attnGradRefs {
		return attnGradRefs{wq: shard.Grad(a.WQ), wk: shard.Grad(a.WK), wv: shard.Grad(a.WV)}
	}
	if p.hasS {
		g.attnS = resolveAttn(p.spec.AttnS)
	}
	if p.hasD {
		g.attnD = resolveAttn(p.spec.AttnD)
	}
	if p.hasX {
		g.attnX = resolveAttn(p.spec.AttnX)
	}
	L := len(p.spec.FFN)
	g.ffnW = make([]*tensor.Matrix, L)
	g.ffnB = make([]*tensor.Matrix, L)
	if p.useLN {
		g.ffnLNS = make([]*tensor.Matrix, L)
		g.ffnLNB = make([]*tensor.Matrix, L)
	}
	for k, lay := range p.spec.FFN {
		g.ffnW[k] = shard.Grad(lay.W)
		g.ffnB[k] = shard.Grad(lay.B)
		if p.useLN {
			g.ffnLNS[k] = shard.Grad(lay.LNS)
			g.ffnLNB[k] = shard.Grad(lay.LNB)
		}
	}
	return g
}

// ffnBackward backpropagates through one cached FFN application. dh holds the
// gradient w.r.t. the FFN output on entry and the gradient w.r.t. the pooled
// input c.h[0] on return (mutated in place). Weight/bias/LN gradients
// accumulate into g.
func (e *Exec) ffnBackward(c *ffnCache, dh *tensor.Matrix, g *gradRefs) {
	p := e.plan
	drop := p.dropRate > 0
	for k := len(p.spec.FFN) - 1; k >= 0; k-- {
		lay := p.spec.FFN[k]
		z := c.z[k]
		dz := e.ffnDz
		// dr = dh ⊙ mask (dropout), gated by the ReLU: dz_j = dr_j·[z_j > 0].
		if drop {
			mask := c.mask[k]
			for j, dv := range dh.Data {
				if z.Data[j] > 0 {
					dz.Data[j] = dv * mask.Data[j]
				} else {
					dz.Data[j] = 0
				}
			}
		} else {
			for j, dv := range dh.Data {
				if z.Data[j] > 0 {
					dz.Data[j] = dv
				} else {
					dz.Data[j] = 0
				}
			}
		}
		for j, dv := range dz.Data {
			g.ffnB[k].Data[j] += dv
		}
		in := c.h[k]
		if p.useLN {
			in = c.ln[k]
		}
		tensor.AddTMatMul(g.ffnW[k], in, dz)                // dW += inᵀ·dz
		tensor.MatMulTInto(e.ffnDlin, dz, lay.W.Value, nil) // dlin = dz·Wᵀ
		if p.useLN {
			x := c.h[k]
			m := c.mu[k]
			is := c.invStd[k]
			sv := lay.LNS.Value.Data
			sumDx, sumDxXhat := 0.0, 0.0
			for j, dv := range e.ffnDlin.Data {
				xh := (x.Data[j] - m) * is
				g.ffnLNS[k].Data[j] += dv * xh
				g.ffnLNB[k].Data[j] += dv
				dxh := dv * sv[j]
				sumDx += dxh
				sumDxXhat += dxh * xh
			}
			dd := float64(p.d)
			for j, dv := range e.ffnDlin.Data {
				dxh := dv * sv[j]
				xh := (x.Data[j] - m) * is
				e.ffnDin.Data[j] = is * (dxh - sumDx/dd - xh*sumDxXhat/dd)
			}
		} else {
			copy(e.ffnDin.Data, e.ffnDlin.Data)
		}
		if p.useRes {
			// h_{k+1} = h_k + out: the residual passes dh through unchanged,
			// plus the through-layer contribution.
			for j, dv := range e.ffnDin.Data {
				dh.Data[j] += dv
			}
		} else {
			copy(dh.Data, e.ffnDin.Data)
		}
	}
}

// broadcastMeanBackward expands the 1×d pooled gradient to the r×d attention
// output: dh0[i][j] = dpool[j]·(1/r), ag.MeanRows' backward.
func broadcastMeanBackward(dh0, dpool *tensor.Matrix) {
	inv := 1 / float64(dh0.Rows)
	for i := 0; i < dh0.Rows; i++ {
		row := dh0.Row(i)
		for j, gv := range dpool.Data {
			row[j] = gv * inv
		}
	}
}

// attnBackwardSelf backpropagates one self-attention block whose Q, K and V
// all project the same input eIn: accumulates the projection-weight gradients
// into gw and the input gradient into deOut (+=). mask is the block's forward
// softmax mask (nil for the unmasked static view): masked dA entries meet
// y = 0 in softmaxBackwardScaled, so they are skipped like the forward scores.
// padRows rows at the head of deOut are dead (the embedding scatter drops
// padded indices) and are not accumulated; pass 0 when every row is live.
func (e *Exec) attnBackwardSelf(scr *attnScratch, eIn, a, q, k, v, dh0, mask *tensor.Matrix, w core.AttnSpec, gw attnGradRefs, deOut *tensor.Matrix, padRows int) {
	tensor.TMatMulInto(scr.dv, a, dh0)       // dV = Aᵀ·dH
	tensor.MatMulTInto(scr.da, dh0, v, mask) // dA = dH·Vᵀ
	softmaxBackwardScaled(scr.ds, a, scr.da, e.plan.invSqrtD)
	tensor.MatMulInto(scr.dq, scr.ds, k)  // dQ = dS·K
	tensor.TMatMulInto(scr.dk, scr.ds, q) // dK = dSᵀ·Q
	tensor.AddTMatMul(gw.wq, eIn, scr.dq)
	tensor.AddMatMulT(deOut, scr.dq, w.WQ.Value, padRows)
	tensor.AddTMatMul(gw.wk, eIn, scr.dk)
	tensor.AddMatMulT(deOut, scr.dk, w.WK.Value, padRows)
	tensor.AddTMatMul(gw.wv, eIn, scr.dv)
	tensor.AddMatMulT(deOut, scr.dv, w.WV.Value, padRows)
}

// Backward runs the hand-derived reverse pass for the instances of the last
// training Forward, seeding each candidate's score with dscores[i], and
// accumulates all parameter gradients into shard (which must cover the
// model's Params(), i.e. be an ag.NewGradShard over them). Valid exactly once
// per training Forward, like Tape.Backward.
func (e *Exec) Backward(dscores []float64, shard *ag.GradShard) {
	if !e.fwdTraining {
		panic("plan: Backward without a preceding training-mode Forward")
	}
	if len(dscores) != e.nCand {
		panic(fmt.Sprintf("plan: Backward of %d score grads for %d candidates", len(dscores), e.nCand))
	}
	e.fwdTraining = false
	p := e.plan
	g := e.resolveGrads(shard)

	// Shared-subgraph accumulators, summed over candidates in forward order.
	e.dlinD = 0
	if p.hasD {
		e.dhD.Zero()
	}
	if p.hasD || p.hasX {
		e.deD.Zero()
	}
	if p.hasX {
		e.dqD.Zero()
		e.dkD.Zero()
		e.dvD.Zero()
	}

	projv := p.spec.Proj.Value.Data
	d := p.d
	// The cross-view mask of the shared forward, fixed across candidates.
	var xmask *tensor.Matrix
	if p.hasX {
		xmask = p.spec.CrossMask
		if p.maskPad {
			xmask = p.spec.CrossPad[e.padCount]
		}
	}

	for ci := 0; ci < e.nCand; ci++ {
		sl := e.slots[ci]
		ds := dscores[ci]

		// Linear component.
		g.w0.Data[0] += ds
		for _, ix := range sl.staticIdx {
			g.wStatic.Data[ix] += ds
		}
		e.dlinD += ds

		// Output layer: f = p·hagg.
		for j, hv := range sl.hagg.Data {
			g.proj.Data[j] += ds * hv
		}

		if p.hasS || p.hasX {
			e.deS.Zero()
		}
		off := 0
		if p.hasS {
			for j := 0; j < d; j++ {
				e.dview.Data[j] = ds * projv[off+j]
			}
			e.ffnBackward(&sl.ffnS, e.dview, &g)
			broadcastMeanBackward(e.dh0s, e.dview)
			e.attnBackwardSelf(&e.scrS, sl.eS, sl.as, sl.qs, sl.ks, sl.vs, e.dh0s, nil, p.spec.AttnS, g.attnS, e.deS, 0)
			off += d
		}
		if p.hasD {
			for j := 0; j < d; j++ {
				e.dhD.Data[j] += ds * projv[off+j]
			}
			off += d
		}
		if p.hasX {
			for j := 0; j < d; j++ {
				e.dview.Data[j] = ds * projv[off+j]
			}
			e.ffnBackward(&sl.ffnX, e.dview, &g)
			broadcastMeanBackward(e.dh0x, e.dview)
			tensor.TMatMulInto(e.dvx, sl.ax, e.dh0x)
			tensor.MatMulTInto(e.dax, e.dh0x, sl.vx, xmask)
			softmaxBackwardScaled(e.dsx, sl.ax, e.dax, p.invSqrtD)
			tensor.MatMulInto(e.dqx, e.dsx, sl.kx)
			tensor.TMatMulInto(e.dkx, e.dsx, sl.qx)
			// Top row-blocks: this candidate's static rows through W*x.
			tensor.AddTMatMul(g.attnX.wq, sl.eS, e.dqxTop)
			tensor.AddMatMulT(e.deS, e.dqxTop, p.spec.AttnX.WQ.Value, 0)
			tensor.AddTMatMul(g.attnX.wk, sl.eS, e.dkxTop)
			tensor.AddMatMulT(e.deS, e.dkxTop, p.spec.AttnX.WK.Value, 0)
			tensor.AddTMatMul(g.attnX.wv, sl.eS, e.dvxTop)
			tensor.AddMatMulT(e.deS, e.dvxTop, p.spec.AttnX.WV.Value, 0)
			// Bottom row-blocks: shared dynamic projections, deferred.
			e.dqD.AddInPlace(e.dqxBot)
			e.dkD.AddInPlace(e.dkxBot)
			e.dvD.AddInPlace(e.dvxBot)
		}
		// Scatter this candidate's static embedding gradient.
		if p.hasS || p.hasX {
			for i, ix := range sl.staticIdx {
				dst := g.embS.Row(ix)
				for j, gv := range e.deS.Row(i) {
					dst[j] += gv
				}
			}
		}
	}

	// Dynamic phase: backpropagate the shared subgraph once.
	if p.hasX {
		// qD = eD·WQx (and k, v): resolve the accumulated bottom-block grads.
		tensor.AddTMatMul(g.attnX.wq, e.eD, e.dqD)
		tensor.AddMatMulT(e.deD, e.dqD, p.spec.AttnX.WQ.Value, e.padCount)
		tensor.AddTMatMul(g.attnX.wk, e.eD, e.dkD)
		tensor.AddMatMulT(e.deD, e.dkD, p.spec.AttnX.WK.Value, e.padCount)
		tensor.AddTMatMul(g.attnX.wv, e.eD, e.dvD)
		tensor.AddMatMulT(e.deD, e.dvD, p.spec.AttnX.WV.Value, e.padCount)
	}
	if p.hasD {
		e.ffnBackward(&e.ffnD, e.dhD, &g)
		broadcastMeanBackward(e.dh0d, e.dhD)
		dmask := p.spec.CausalMask
		if p.maskPad {
			dmask = p.spec.CausalPad[e.padCount]
		}
		e.attnBackwardSelf(&e.scrD, e.eD, e.ad, e.qd, e.kd, e.vd, e.dh0d, dmask, p.spec.AttnD, g.attnD, e.deD, e.padCount)
	}
	if p.hasD || p.hasX {
		for i, ix := range e.dynIdx {
			if ix < 0 {
				continue
			}
			dst := g.embD.Row(ix)
			for j, gv := range e.deD.Row(i) {
				dst[j] += gv
			}
		}
	}
	for _, ix := range e.dynIdx {
		if ix >= 0 {
			g.wDynamic.Data[ix] += e.dlinD
		}
	}
}
