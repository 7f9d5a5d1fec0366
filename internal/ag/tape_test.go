package ag

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"seqfm/internal/tensor"
)

func TestBackwardRequiresScalar(t *testing.T) {
	tp := NewTape()
	n := tp.Constant(tensor.New(2, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-scalar loss")
		}
	}()
	tp.Backward(n)
}

func TestBackwardTwicePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := randParam("p", 1, 1, rng)
	tp := NewTape()
	loss := tp.Square(tp.Var(p))
	tp.Backward(loss)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on second Backward")
		}
	}()
	tp.Backward(loss)
}

func TestConstantGetsNoGrad(t *testing.T) {
	tp := NewTape()
	c := tp.Constant(tensor.RowVector(1, 2))
	s := tp.Sum(c)
	if s.needsGrad {
		t.Fatal("sum of constant should not need grad")
	}
}

func TestVarGradAccumulatesAcrossUses(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := NewParam("p", 1, 1, tensor.Constant(3), rng)
	tp := NewTape()
	v := tp.Var(p)
	// loss = v + v² ⇒ dloss/dv = 1 + 2v = 7
	loss := tp.Add(v, tp.Square(v))
	tp.Backward(loss)
	tp.FlushGrads(nil)
	if got := p.Grad.ScalarValue(); math.Abs(got-7) > 1e-12 {
		t.Fatalf("grad %v, want 7", got)
	}
}

func TestMultipleVarNodesSameParam(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := NewParam("p", 1, 1, tensor.Constant(2), rng)
	tp := NewTape()
	// Two independent Var leaves over the same parameter — as happens when
	// the shared FFN runs once per view. Gradients must sum.
	loss := tp.Add(tp.Square(tp.Var(p)), tp.Scale(3, tp.Var(p)))
	tp.Backward(loss)
	tp.FlushGrads(nil)
	if got := p.Grad.ScalarValue(); math.Abs(got-7) > 1e-12 { // 2v + 3 = 7
		t.Fatalf("grad %v, want 7", got)
	}
}

func TestFlushGradsConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := NewParam("p", 4, 4, tensor.Constant(1), rng)
	var mu sync.Mutex
	var wg sync.WaitGroup
	const workers = 16
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tp := NewTape()
			loss := tp.Sum(tp.Var(p))
			tp.Backward(loss)
			tp.FlushGrads(&mu)
		}()
	}
	wg.Wait()
	// Each worker contributes grad 1 per element.
	for _, g := range p.Grad.Data {
		if g != workers {
			t.Fatalf("grad %v, want %d", g, workers)
		}
	}
}

func TestDropoutInference(t *testing.T) {
	tp := NewTape() // inference mode
	x := tp.Constant(tensor.RowVector(1, 2, 3))
	if tp.Dropout(x, 0.5) != x {
		t.Fatal("inference dropout must be the identity node")
	}
}

func TestDropoutTrainingStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tp := NewTrainingTape(rng)
	const n = 20000
	x := tp.Constant(tensor.New(1, n).Fill(1))
	y := tp.Dropout(x, 0.3)
	mean := tensor.Mean(y.Value)
	// Inverted dropout preserves the expectation.
	if math.Abs(mean-1) > 0.05 {
		t.Fatalf("dropout mean %v, want ≈1", mean)
	}
	zeros := 0
	for _, v := range y.Value.Data {
		if v == 0 {
			zeros++
		}
	}
	frac := float64(zeros) / n
	if math.Abs(frac-0.3) > 0.02 {
		t.Fatalf("dropped fraction %v, want ≈0.3", frac)
	}
}

func TestDropoutGradientMatchesMask(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := NewParam("p", 1, 8, tensor.Constant(2), rng)
	tp := NewTrainingTape(rand.New(rand.NewSource(7)))
	y := tp.Dropout(tp.Var(p), 0.5)
	tp.Backward(tp.Sum(y))
	tp.FlushGrads(nil)
	for i, v := range y.Value.Data {
		want := 0.0
		if v != 0 {
			want = 2 // 1/(1-rate)
		}
		if p.Grad.Data[i] != want {
			t.Fatalf("grad[%d]=%v, want %v", i, p.Grad.Data[i], want)
		}
	}
}

func TestDropoutRatePanics(t *testing.T) {
	tp := NewTrainingTape(rand.New(rand.NewSource(8)))
	x := tp.Constant(tensor.RowVector(1))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for rate >= 1")
		}
	}()
	tp.Dropout(x, 1)
}

func TestGatherPaddingRows(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	table := NewParam("t", 3, 2, tensor.Constant(5), rng)
	tp := NewTape()
	g := tp.Gather(table, []int{-1, 1, -1})
	if g.Value.At(0, 0) != 0 || g.Value.At(2, 1) != 0 {
		t.Fatal("padding rows not zero")
	}
	if g.Value.At(1, 0) != 5 {
		t.Fatal("real row not gathered")
	}
	tp.Backward(tp.Sum(g))
	tp.FlushGrads(nil)
	if table.Grad.At(0, 0) != 0 || table.Grad.At(1, 0) != 1 {
		t.Fatalf("gather grad wrong: %v", table.Grad)
	}
}

func TestGatherOutOfRangePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	table := randParam("t", 3, 2, rng)
	tp := NewTape()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range gather")
		}
	}()
	tp.Gather(table, []int{3})
}

func TestGatherSumSkipsPadding(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	table := NewParam("t", 2, 2, tensor.Constant(1), rng)
	tp := NewTape()
	s := tp.GatherSum(table, []int{-1, 0, 1, -1})
	if s.Value.At(0, 0) != 2 {
		t.Fatalf("GatherSum: %v", s.Value)
	}
}

func TestGatherIndexSliceOwnership(t *testing.T) {
	// The caller may mutate its index slice after recording; the flush must
	// use the snapshot taken at Gather time.
	rng := rand.New(rand.NewSource(12))
	table := NewParam("t", 4, 1, tensor.Constant(1), rng)
	idx := []int{0}
	tp := NewTape()
	g := tp.Gather(table, idx)
	idx[0] = 3 // mutate after recording
	tp.Backward(tp.Sum(g))
	tp.FlushGrads(nil)
	if table.Grad.At(0, 0) != 1 || table.Grad.At(3, 0) != 0 {
		t.Fatalf("flush used mutated indices: %v", table.Grad)
	}
}

func TestClipGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := NewParam("p", 1, 2, tensor.Zeros(), rng)
	p.Grad.Data[0] = 3
	p.Grad.Data[1] = 4 // norm 5
	norm := ClipGrads([]*Param{p}, 1)
	if math.Abs(norm-5) > 1e-12 {
		t.Fatalf("pre-clip norm %v", norm)
	}
	if got := p.Grad.Norm(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("post-clip norm %v", got)
	}
	// Disabled clipping leaves gradients alone.
	p.Grad.Data[0], p.Grad.Data[1] = 3, 4
	ClipGrads([]*Param{p}, 0)
	if p.Grad.Norm() != 5 {
		t.Fatal("clip with c=0 modified gradients")
	}
}

func TestNumParams(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	ps := []*Param{randParam("a", 2, 3, rng), randParam("b", 1, 4, rng)}
	if got := NumParams(ps); got != 10 {
		t.Fatalf("NumParams=%d, want 10", got)
	}
}

func TestTrainingFlagAndNodeCount(t *testing.T) {
	tp := NewTrainingTape(rand.New(rand.NewSource(15)))
	if !tp.Training() {
		t.Fatal("training tape not in training mode")
	}
	before := tp.NumNodes()
	tp.Constant(tensor.Scalar(1))
	if tp.NumNodes() != before+1 {
		t.Fatal("NumNodes did not grow")
	}
}

func TestTapeResetReusesArena(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	p := NewParam("p", 1, 1, tensor.Constant(3), rng)
	tp := NewTape()
	record := func() float64 {
		return tp.Square(tp.Var(p)).Value.ScalarValue()
	}
	first := record()
	nodes := tp.NumNodes()
	for i := 0; i < 5; i++ {
		tp.Reset()
		if tp.NumNodes() != 0 {
			t.Fatal("Reset left nodes on the tape")
		}
		if got := record(); got != first {
			t.Fatalf("pass %d after Reset: %v, want %v", i, got, first)
		}
		if tp.NumNodes() != nodes {
			t.Fatalf("node count changed across reuse: %d vs %d", tp.NumNodes(), nodes)
		}
	}
}

func TestTapeResetClearsFlushesAndBackwardFlag(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	p := NewParam("p", 1, 1, tensor.Constant(2), rng)
	tp := NewTape()
	loss := tp.Square(tp.Var(p))
	tp.Backward(loss)
	tp.FlushGrads(nil)
	if got := p.Grad.ScalarValue(); got != 4 {
		t.Fatalf("grad %v, want 4", got)
	}
	p.ZeroGrad()

	// After Reset the tape must accept a fresh Backward, and flushes from
	// the first pass must not fire again.
	tp.Reset()
	loss = tp.Square(tp.Var(p))
	tp.Backward(loss)
	tp.FlushGrads(nil)
	if got := p.Grad.ScalarValue(); got != 4 {
		t.Fatalf("grad after reuse %v, want 4 (stale flush?)", got)
	}
}

func TestTapeResetPreservesTrainingMode(t *testing.T) {
	tp := NewTrainingTape(rand.New(rand.NewSource(22)))
	tp.Reset()
	if !tp.Training() {
		t.Fatal("Reset dropped training mode")
	}
	// Dropout still works after Reset (rng preserved).
	x := tp.Constant(tensor.New(1, 100).Fill(1))
	y := tp.Dropout(x, 0.5)
	if y == x {
		t.Fatal("training dropout after Reset was the identity")
	}
}

func TestTapeGrow(t *testing.T) {
	tp := NewTape()
	tp.Grow(64)
	for i := 0; i < 32; i++ {
		tp.Constant(tensor.Scalar(float64(i)))
	}
	if tp.NumNodes() != 32 {
		t.Fatalf("NumNodes=%d, want 32", tp.NumNodes())
	}
	tp.Reset()
	if tp.NumNodes() != 0 {
		t.Fatal("Reset after Grow left nodes")
	}
}

func TestGradTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	a := randParam("a", 2, 4, rng)
	checkGrads(t, []*Param{a}, func(tp *Tape) *Node {
		return tp.Sum(tp.Square(tp.Transpose(tp.Var(a))))
	})
}

func TestGradBroadcastRow(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := randParam("a", 1, 3, rng)
	checkGrads(t, []*Param{a}, func(tp *Tape) *Node {
		return tp.Sum(tp.Square(tp.BroadcastRow(tp.Var(a), 4)))
	})
}

func TestSoftplusStability(t *testing.T) {
	tp := NewTape()
	big := tp.Constant(tensor.RowVector(800, -800))
	y := tp.Softplus(big)
	if y.Value.HasNaN() {
		t.Fatal("softplus overflowed")
	}
	if math.Abs(y.Value.At(0, 0)-800) > 1e-9 {
		t.Fatalf("softplus(800)=%v", y.Value.At(0, 0))
	}
	if y.Value.At(0, 1) != 0 {
		t.Fatalf("softplus(-800)=%v", y.Value.At(0, 1))
	}
}
