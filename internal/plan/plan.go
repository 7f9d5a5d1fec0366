// Package plan compiles a SeqFM model into a preallocated execution plan,
// replacing runtime autodiff-tape interpretation on the score and train hot
// paths.
//
// The model's graph topology is fixed per (core.Config, ablation): every
// forward pass for a given config runs exactly the same operations on exactly
// the same shapes. A Plan exploits that by lowering the two-phase forward
// (core.ForwardDynamic / ForwardCandidate) once, at compile time, into a
// sequence of kernel calls over flat float64 buffers sized from the config —
// no tape nodes, no backward closures, no per-pass allocation. An Exec is one
// reusable instantiation of those buffers (one per goroutine); the Plan keeps
// a pool of them for the serving engine.
//
// Contracts, pinned by internal/plan's parity tests:
//
//   - Forward values are bit-identical to the tape path: Score, Forward and
//     ScoreFast over a PrecomputeDynamic snapshot agree with core.Model.Score
//     bit for bit, and a core.DynState from a live or a frozen plan of the
//     same weights is scored identically by either. The compiled forward
//     may do whatever leaves every IEEE operation that reaches the score, and
//     its order, unchanged: drop dispatch, closures and allocation; skip work
//     whose result is provably unobservable (entries an additive −Inf mask
//     turns into +0; a·v terms the kernels' zero-coefficient guard already
//     skips); compute a value once when its inputs cannot change (a frozen
//     plan's projected rows); compute independent output elements side by
//     side, or add the same terms to an element in the same order in fewer
//     passes (tensor's kernels, shared with the tape). It may not reassociate
//     a sum — change which partial sums an element's additions combine: no
//     second accumulator for one dot, no blocked or reordered k loop, no
//     reordered pooling — nor narrow the float type.
//   - A plan is live or frozen. For returns a live plan: it aliases the
//     model's parameter matrices and recomputes every projection on every
//     pass, so it always scores the weights the model holds now — training,
//     the gradient checks and anything else an optimizer steps under must use
//     it. Frozen returns a plan for weights that will never change again (a
//     published serving generation): it additionally owns lazily filled
//     tables of Emb[i]·W rows (tables.go) and is inference-only. Which path a
//     forward takes follows from what the code observes — the training flag
//     and whether the plan is frozen — never from a configuration value.
//   - Every inference forward, live or frozen, runs the cross view over the
//     live entries of its mask alone and one static row at a time
//     (Exec.crossRows): row p's attended output over the dynamic keys and its
//     scores against the dynamic queries — a column of dots k_p·qD_i, the
//     dense qD_i·k_p with each product commuted — read from the shared
//     dynamic blocks and a frozen plan's tables in place, with no (n°+n.)²
//     buffer. The shared dynamic blocks live in the Exec alone: a DynState
//     does not carry them, and ScoreFast re-derives them from its padded
//     history, through the call beginDynamic makes, whenever the snapshot
//     differs from the dynamic phase the Exec holds. An Exec keeps a row's
//     share while the next candidate has the same static index there under
//     the same dynamic phase (the DynState a ScoreFast caller passes or
//     PrecomputeDynamic returns, which the Exec holds on to, or its own
//     phase until the next one overwrites it), so a request computes its
//     user's rows once per worker. Training forwards neither read nor fill
//     that memo; they keep the dense buffers Backward consumes.
//   - The hand-derived backward computes the same mathematical gradients as
//     the tape's reverse pass, exact up to IEEE reassociation (the shared
//     dynamic subgraph accumulates upstream gradients in candidate order
//     where the tape accumulates in reverse-record order). For a fixed
//     dropout RNG the compiled training step is bit-for-bit deterministic,
//     which preserves train.Config's {Seed, Workers} ⇒ bit-identical History
//     contract within the compiled engine.
//   - Dropout masks are drawn from the Exec's RNG in exactly the tape's draw
//     order (dynamic-view FFN first, then per candidate the static-view FFN
//     and the cross-view FFN, layer by layer, element by element), so a
//     compiled run seeded like a tape run sees identical masks and therefore
//     identical forward values even in training mode.
//
// The tape engine remains the oracle: anything plan cannot compile (the
// baseline models, future graph changes) falls back to it, and the parity
// tests validate every compiled path against it.
package plan

import (
	"fmt"
	"math"
	"sync"

	"seqfm/internal/core"
)

// Plan is the compiled execution plan for one model: dimensions, ablation
// flags and parameter references resolved once. A Plan is immutable after
// Compile and safe for concurrent use; per-goroutine mutable state lives in
// Exec values (NewExec / Get / Put).
//
// A live Plan (For, Compile) aliases the model's parameter matrices, so it
// always scores the weights the model currently holds — optimizer steps need
// no recompile. A frozen Plan (Frozen) also caches projections of those
// weights and is only valid while they stay untouched. Structural changes (a
// different Config or ablation) need a new Plan.
type Plan struct {
	spec core.ModelSpec
	// frozen marks an inference-only plan over immutable weights; tab holds
	// its projected-row tables (all nil on a live plan).
	frozen bool
	tab    tables

	s, n, d int // static rows n°, dynamic rows n., latent dim d
	c       int // cross-view rows: s+n
	nViews  int

	hasS, hasD, hasX bool
	useRes, useLN    bool
	maskPad          bool

	dropRate float64
	invSqrtD float64

	pool sync.Pool
}

// Compile lowers spec into an execution plan. It fails on specs the compiler
// does not cover rather than producing a plan that would diverge from the
// tape path.
func Compile(spec core.ModelSpec) (*Plan, error) {
	if err := spec.Cfg.Validate(); err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	switch {
	case spec.W0 == nil, spec.WStatic == nil, spec.WDynamic == nil,
		spec.EmbS == nil, spec.EmbD == nil, spec.Proj == nil:
		return nil, fmt.Errorf("plan: spec missing parameters")
	case len(spec.FFN) != spec.Cfg.Layers:
		return nil, fmt.Errorf("plan: spec has %d FFN layers, config %d", len(spec.FFN), spec.Cfg.Layers)
	case spec.CausalMask == nil || spec.CrossMask == nil:
		return nil, fmt.Errorf("plan: spec missing attention masks")
	case spec.Cfg.MaskPadding && (len(spec.CausalPad) != spec.Cfg.MaxSeqLen+1 || len(spec.CrossPad) != spec.Cfg.MaxSeqLen+1):
		return nil, fmt.Errorf("plan: spec missing per-pad-count masks")
	}
	ab := spec.Cfg.Ablation
	p := &Plan{
		spec:     spec,
		s:        spec.NStatic,
		n:        spec.Cfg.MaxSeqLen,
		d:        spec.Cfg.Dim,
		hasS:     !ab.NoStaticView,
		hasD:     !ab.NoDynamicView,
		hasX:     !ab.NoCrossView,
		useRes:   spec.UseResidual,
		useLN:    spec.UseLayerNorm,
		maskPad:  spec.Cfg.MaskPadding,
		dropRate: spec.FFNDropout,
		invSqrtD: 1 / math.Sqrt(float64(spec.Cfg.Dim)),
	}
	p.c = p.s + p.n
	if p.hasS {
		p.nViews++
	}
	if p.hasD {
		p.nViews++
	}
	if p.hasX {
		p.nViews++
	}
	if want := p.nViews * p.d; spec.Proj.Value.Cols != want {
		return nil, fmt.Errorf("plan: projection is 1x%d, want 1x%d", spec.Proj.Value.Cols, want)
	}
	p.pool.New = func() any { return p.NewExec() }
	return p, nil
}

// specSource is satisfied by *core.Model (and any future compilable model).
type specSource interface {
	Spec() core.ModelSpec
}

// For compiles a plan for m, which must expose its structure via
// Spec() core.ModelSpec (only *core.Model does today). Models without a spec
// — the baselines — return an error; callers fall back to the tape engine.
func For(m any) (*Plan, error) {
	src, ok := m.(specSource)
	if !ok {
		return nil, fmt.Errorf("plan: %T does not expose a compilable spec", m)
	}
	return Compile(src.Spec())
}

// Frozen compiles an inference-only plan for a model whose parameters will
// not change for as long as the plan is used — a published serving
// generation. Its Execs read each Emb[i]·W row from a per-plan table filled
// on first touch instead of multiplying it out per request; scores stay
// bit-identical to For's. Mutating the weights afterwards makes the plan
// stale: compile a new one (serve does, on every Swap).
// Training forwards on a frozen plan panic.
func Frozen(m any) (*Plan, error) {
	p, err := For(m)
	if err != nil {
		return nil, err
	}
	p.frozen = true
	embS, embD := p.spec.EmbS.Value, p.spec.EmbD.Value
	if p.hasS {
		p.tab.staticS = newProjTable(embS, p.spec.AttnS)
	}
	if p.hasD {
		p.tab.dynD = newProjTable(embD, p.spec.AttnD)
	}
	if p.hasX {
		p.tab.crossS = newProjTable(embS, p.spec.AttnX)
		p.tab.crossD = newProjTable(embD, p.spec.AttnX)
	}
	return p, nil
}

// Get returns a pooled Exec; Put returns it. The pool serves the RCU-swapped
// serving generations, where request goroutines come and go but plan buffers
// should not.
func (p *Plan) Get() *Exec  { return p.pool.Get().(*Exec) }
func (p *Plan) Put(e *Exec) { p.pool.Put(e) }

// Sigmoid is the numerically-stable logistic function, the same branch
// structure the tape's Softplus derivative uses — exported so the compiled
// loss gradients in internal/train reproduce the tape's arithmetic exactly.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// Softplus is the overflow-safe log(1+e^x), bitwise identical to the tape's.
func Softplus(x float64) float64 {
	if x > 0 {
		return x + math.Log1p(math.Exp(-x))
	}
	return math.Log1p(math.Exp(x))
}
