package ag

import (
	"fmt"
	"math/rand"
	"sync"

	"seqfm/internal/tensor"
)

// Node is one value in the computation graph: the forward result of an
// operation plus the machinery to push its gradient back to its operands.
type Node struct {
	// Value is the forward result. Treat it as read-only after creation.
	Value *tensor.Matrix

	grad      *tensor.Matrix // lazily allocated, same shape as Value
	needsGrad bool           // false for constants: backward skips them
	back      func()         // propagates n.grad to parents; nil for leaves
}

// Rows returns the number of rows of the node's value.
func (n *Node) Rows() int { return n.Value.Rows }

// Cols returns the number of columns of the node's value.
func (n *Node) Cols() int { return n.Value.Cols }

// Grad returns the accumulated gradient of the node, or nil if backward has
// not reached it. The returned matrix is owned by the tape.
func (n *Node) Grad() *tensor.Matrix { return n.grad }

// ensureGrad allocates the gradient buffer on first touch.
func (n *Node) ensureGrad() *tensor.Matrix {
	if n.grad == nil {
		n.grad = tensor.New(n.Value.Rows, n.Value.Cols)
	}
	return n.grad
}

// GradSink resolves the gradient buffer a parameter's tape-local gradient is
// transferred into at flush time. The default sink (FlushGrads) returns
// p.Grad, the globally shared accumulator; FlushGradsTo substitutes a
// per-worker GradShard so data-parallel workers accumulate without locking.
type GradSink func(p *Param) *tensor.Matrix

// Tape records a single forward pass. Tapes are cheap; build a fresh one per
// training example (or per minibatch) and discard it after FlushGrads — or,
// on a hot path (the serving engine, the training engine's workers), keep one
// per worker and call Reset between passes so the node arena and bookkeeping
// slices are reused instead of reallocated.
// A Tape must not be shared between goroutines.
type Tape struct {
	nodes    []*Node
	flushes  []func(sink GradSink)
	training bool
	rng      *rand.Rand
	ran      bool

	// arena backs the Node structs handed out by node(); used counts how
	// many entries of it the current pass has consumed. Reset rewinds used
	// to zero so a subsequent pass overwrites the same storage.
	arena []Node
	used  int
}

// NewTape returns an inference-mode tape (dropout disabled).
func NewTape() *Tape { return &Tape{} }

// NewTrainingTape returns a tape with dropout enabled, drawing dropout masks
// from rng. rng must not be shared with other tapes.
func NewTrainingTape(rng *rand.Rand) *Tape {
	return &Tape{training: true, rng: rng}
}

// Training reports whether the tape runs in training mode.
func (t *Tape) Training() bool { return t.training }

// SetRNG replaces the tape's dropout stream. The incremental training engine
// (train.Stepper) rederives every worker's streams from the step counter
// before each minibatch, so a restored run draws the same dropout masks as
// the run that wrote the checkpoint. rng must not be shared with other tapes.
func (t *Tape) SetRNG(rng *rand.Rand) { t.rng = rng }

// NumNodes returns how many nodes the tape has recorded, a cheap proxy for
// graph size used by tests and memory diagnostics.
func (t *Tape) NumNodes() int { return len(t.nodes) }

// node appends a freshly built node to the tape and returns it. Nodes are
// drawn from the tape's arena so a Reset-and-reuse cycle performs no Node
// allocations once the arena has grown to the size of one forward pass.
func (t *Tape) node(value *tensor.Matrix, needsGrad bool, back func()) *Node {
	if t.used == len(t.arena) {
		t.arena = append(t.arena, Node{})
	}
	n := &t.arena[t.used]
	t.used++
	*n = Node{Value: value, needsGrad: needsGrad, back: back}
	t.nodes = append(t.nodes, n)
	return n
}

// Reset rewinds the tape for reuse: recorded nodes, pending gradient flushes
// and the backward-ran flag are dropped while the arena and slice capacities
// are kept, so the next forward pass allocates (almost) nothing. Values and
// gradients recorded by earlier passes become invalid; callers must copy any
// matrix they want to keep before resetting. Training mode and the dropout
// RNG are preserved.
func (t *Tape) Reset() {
	for i := 0; i < t.used; i++ {
		t.arena[i] = Node{} // release Value/grad/back references
	}
	t.used = 0
	for i := range t.nodes {
		t.nodes[i] = nil
	}
	t.nodes = t.nodes[:0]
	for i := range t.flushes {
		t.flushes[i] = nil
	}
	t.flushes = t.flushes[:0]
	t.ran = false
}

// Grow pre-sizes the tape's arena and bookkeeping slices for a forward pass
// of about n nodes, avoiding growth reallocations on the first reuse cycle.
func (t *Tape) Grow(n int) {
	if cap(t.arena) < n {
		arena := make([]Node, len(t.arena), n)
		copy(arena, t.arena)
		t.arena = arena
	}
	if cap(t.nodes) < n {
		nodes := make([]*Node, len(t.nodes), n)
		copy(nodes, t.nodes)
		t.nodes = nodes
	}
}

// Constant records a non-differentiable leaf. The matrix is not copied.
func (t *Tape) Constant(m *tensor.Matrix) *Node {
	return t.node(m, false, nil)
}

// Var records a differentiable leaf backed by parameter p. The node reads
// p.Value directly (no copy); its gradient is transferred to p.Grad by
// FlushGrads.
func (t *Tape) Var(p *Param) *Node {
	n := t.node(p.Value, true, nil)
	t.flushes = append(t.flushes, func(sink GradSink) {
		if n.grad != nil {
			sink(p).AddInPlace(n.grad)
		}
	})
	return n
}

// Backward seeds the gradient of loss (which must be 1×1) with 1 and runs the
// reverse pass over the whole tape. It may be called once per tape.
func (t *Tape) Backward(loss *Node) {
	if !loss.Value.IsScalar() {
		panic(fmt.Sprintf("ag: Backward on %dx%d node; loss must be 1x1", loss.Rows(), loss.Cols()))
	}
	if t.ran {
		panic("ag: Backward called twice on one tape")
	}
	t.ran = true
	loss.ensureGrad().Data[0] = 1
	for i := len(t.nodes) - 1; i >= 0; i-- {
		n := t.nodes[i]
		if n.grad == nil || n.back == nil {
			continue
		}
		n.back()
	}
}

// defaultSink routes flushed gradients into the shared Param.Grad buffers.
func defaultSink(p *Param) *tensor.Matrix { return p.Grad }

// FlushGrads transfers every Var/Gather gradient recorded on this tape into
// the backing parameters' Grad fields. If mu is non-nil the transfer happens
// under the lock, which lets data-parallel workers share one parameter set.
// Lock-free data-parallel training should prefer FlushGradsTo with a
// per-worker GradShard, merged once per minibatch.
func (t *Tape) FlushGrads(mu *sync.Mutex) {
	if mu != nil {
		mu.Lock()
		defer mu.Unlock()
	}
	for _, f := range t.flushes {
		f(defaultSink)
	}
}

// FlushGradsTo transfers every Var/Gather gradient recorded on this tape into
// the given shard's private buffers instead of the shared Param.Grad fields.
// No locking is performed: the shard must be owned by the calling goroutine.
func (t *Tape) FlushGradsTo(s *GradShard) {
	for _, f := range t.flushes {
		f(s.Grad)
	}
}

// accumulate adds g into the node's gradient buffer, used by backward
// closures of consumers.
func (n *Node) accumulate(g *tensor.Matrix) {
	if !n.needsGrad {
		return
	}
	n.ensureGrad().AddInPlace(g)
}

// anyNeedsGrad reports whether gradient tracking must continue through an op
// with the given operands.
func anyNeedsGrad(ns ...*Node) bool {
	for _, n := range ns {
		if n.needsGrad {
			return true
		}
	}
	return false
}
