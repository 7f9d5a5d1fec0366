package plan_test

import (
	"math/rand"
	"runtime"
	"testing"

	"seqfm/internal/ag"
	"seqfm/internal/core"
	"seqfm/internal/feature"
	"seqfm/internal/plan"
	"seqfm/internal/tensor"
)

// benchModel is the paper's default configuration {d=64, l=1, n.=20} on the
// serving-benchmark space — the workload whose per-instance cost the compiled
// engine exists to cut.
func benchModel(b testing.TB) (*core.Model, feature.Instance) {
	b.Helper()
	cfg := core.DefaultConfig(feature.Space{NumUsers: 1000, NumObjects: 2000})
	m, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	hist := make([]int, 20)
	for i := range hist {
		hist[i] = (i * 37) % 2000
	}
	return m, feature.Instance{User: 7, Target: 42, Hist: hist, UserAttr: feature.Pad, TargetAttr: feature.Pad, Label: 1}
}

func benchCandidates(inst feature.Instance, n int) []feature.Instance {
	insts := []feature.Instance{inst}
	for k := 0; k < n; k++ {
		neg := inst
		neg.Target = (inst.Target + 1 + k) % 2000
		insts = append(insts, neg)
	}
	return insts
}

// BenchmarkExecScore is one compiled inference forward.
func BenchmarkExecScore(b *testing.B) {
	m, inst := benchModel(b)
	pl, err := plan.For(m)
	if err != nil {
		b.Fatal(err)
	}
	e := pl.NewExec()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Score(inst)
	}
}

// trainMACs counts, from the model's shapes alone, the multiply-adds the
// kernels issue for one training forward and backward over candidates
// instances that share a dynamic phase. A view that projects P rows and has
// O live score entries costs 3·P·d² per projection pass, O·d for each of its
// six attention products (scores and A·V forward; dA, dV, dQ, dK backward —
// masked entries are not computed, and the exact zeros they leave in A and dS
// are skipped) and d² per FFN layer per pass; backward makes two passes (one
// for the weights, one for the inputs) for each forward one. ReLU zeros, which
// are skipped too, are not modelled; the count is within 0.01 % of what the
// kernels do at the paper's defaults.
func trainMACs(sp core.ModelSpec, candidates int) float64 {
	d, s, n := float64(sp.Cfg.Dim), float64(sp.NStatic), float64(sp.Cfg.MaxSeqLen)
	live := func(mask *tensor.Matrix) (k float64) {
		for _, v := range mask.Data {
			if v == 0 {
				k++
			}
		}
		return k
	}
	view := func(projected, scores float64) float64 {
		return 3*(3*projected*d*d) + 6*scores*d + 3*float64(len(sp.FFN))*d*d
	}
	// Per candidate the static view and the cross view with its static rows;
	// once the dynamic view and the cross view's dynamic rows.
	perCandidate := view(s, s*s) + view(s, live(sp.CrossMask))
	return float64(candidates)*perCandidate + view(n, live(sp.CausalMask)) + 3*(3*n*d*d)
}

// BenchmarkExecForwardBackward is one compiled training step's compute at
// Negatives=5: shared-candidate forward, loss seeds, hand-derived backward
// into a gradient shard. Its MAC/ns is the plan-level figure to set beside
// the kernel rows of internal/tensor's benchmarks.
func BenchmarkExecForwardBackward(b *testing.B) {
	m, inst := benchModel(b)
	pl, err := plan.For(m)
	if err != nil {
		b.Fatal(err)
	}
	e := pl.NewExec()
	e.SetRNG(rand.New(rand.NewSource(1)))
	insts := benchCandidates(inst, 5)
	shard := ag.NewGradShard(m.Params())
	ds := make([]float64, len(insts))
	for i := range ds {
		ds[i] = 0.1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Forward(insts, true)
		e.Backward(ds, shard)
	}
	b.ReportMetric(trainMACs(m.Spec(), len(insts))*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "MAC/ns")
}

// The benchmarks below time the two kernels a serving request is made of, on
// a live plan (every projection multiplied out per call) and on a frozen one
// (projected rows read from the generation's tables), and fail if the warm
// path allocates anything beyond the value it returns.

// assertAllocs fails the benchmark when f allocates more than want objects.
func assertAllocs(b *testing.B, what string, want float64, f func()) {
	b.Helper()
	if got := testing.AllocsPerRun(20, f); got > want {
		b.Fatalf("%s allocates %.0f objects/op on the warm path, want %.0f", what, got, want)
	}
}

// benchScoreFast times one candidate against a cached context — the re-rank
// loop's unit of work. With the static view injected (a static-cache hit)
// nothing may allocate; computed, the only allocation is the returned clone
// of that vector (header + data). Those two rows re-score one candidate, so
// everything an Exec or a table remembers is warm; the stream row is the
// serving shape instead — requests of J=200 distinct candidates in order,
// static views injected, successive requests alternating between two cached
// contexts so that each pays for its user's rows once.
func benchScoreFast(b *testing.B, compile func(any) (*plan.Plan, error)) {
	m, inst := benchModel(b)
	pl, err := compile(m)
	if err != nil {
		b.Fatal(err)
	}
	e := pl.NewExec()
	dyn := e.PrecomputeDynamic(inst.Hist)
	_, cached := e.ScoreFast(dyn, inst, nil) // grows the slot, fills the table rows
	for _, c := range []struct {
		name   string
		hS     *tensor.Matrix
		allocs float64
	}{{"injected", cached, 0}, {"computed", nil, 2}} {
		b.Run(c.name, func(b *testing.B) {
			assertAllocs(b, "ScoreFast/"+c.name, c.allocs, func() { e.ScoreFast(dyn, inst, c.hS) })
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.ScoreFast(dyn, inst, c.hS)
			}
		})
	}
	const J = 200
	stream := benchCandidates(inst, J-1)
	dyns := [2]*core.DynState{dyn, e.PrecomputeDynamic(inst.Hist[1:])}
	hS := make([]*tensor.Matrix, J)
	for j, c := range stream {
		_, hS[j] = e.ScoreFast(dyn, c, nil)
	}
	b.Run("stream", func(b *testing.B) {
		req := 0
		request := func() {
			for j, c := range stream {
				e.ScoreFast(dyns[req%2], c, hS[j])
			}
			req++
		}
		assertAllocs(b, "ScoreFast/stream", 0, request)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += J {
			request()
		}
	})
}

func BenchmarkExecScoreFast(b *testing.B)       { benchScoreFast(b, plan.For) }
func BenchmarkExecScoreFastFrozen(b *testing.B) { benchScoreFast(b, plan.Frozen) }

// benchPrecomputeDynamic times the per-history phase. Its result is a fresh
// snapshot, whose allocations (the struct, the padded index and the cloned
// dynamic-view output, header and data: 4 objects) are the call's purpose;
// nothing else may allocate.
func benchPrecomputeDynamic(b *testing.B, compile func(any) (*plan.Plan, error)) {
	m, inst := benchModel(b)
	pl, err := compile(m)
	if err != nil {
		b.Fatal(err)
	}
	e := pl.NewExec()
	e.PrecomputeDynamic(inst.Hist)
	assertAllocs(b, "PrecomputeDynamic", 4, func() { e.PrecomputeDynamic(inst.Hist) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.PrecomputeDynamic(inst.Hist)
	}
}

func BenchmarkExecPrecomputeDynamic(b *testing.B)       { benchPrecomputeDynamic(b, plan.For) }
func BenchmarkExecPrecomputeDynamicFrozen(b *testing.B) { benchPrecomputeDynamic(b, plan.Frozen) }

// TestFrozenPrecomputeDynamicBytes bounds what a serving cache entry costs to
// make: at the benchmark shape (d=64, n.=20) a frozen PrecomputeDynamic
// allocates its snapshot alone — a 160 B padded index, a 512 B dynamic-view
// vector and their headers — and no copy of the cross view's 3×n.×d
// row-blocks, which the plan's tables already hold.
func TestFrozenPrecomputeDynamicBytes(t *testing.T) {
	m, inst := benchModel(t)
	pl, err := plan.Frozen(m)
	if err != nil {
		t.Fatal(err)
	}
	e := pl.NewExec()
	e.PrecomputeDynamic(inst.Hist) // fills the table rows
	const calls, maxBytes = 100, 1024
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		e.PrecomputeDynamic(inst.Hist)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per > maxBytes {
		t.Fatalf("frozen PrecomputeDynamic allocates %d B per call, want at most %d", per, maxBytes)
	}
}
