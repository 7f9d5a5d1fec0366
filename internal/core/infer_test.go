package core_test

import (
	"testing"

	"seqfm/internal/core"
	"seqfm/internal/feature"
	"seqfm/internal/plan"
)

// newExec compiles a live plan for m and returns one of its Execs: the
// producer and consumer of DynState snapshots.
func newExec(t *testing.T, m *core.Model) *plan.Exec {
	t.Helper()
	p, err := plan.For(m)
	if err != nil {
		t.Fatalf("plan.For: %v", err)
	}
	return p.NewExec()
}

func TestScoreFastMatchesScoreBitForBit(t *testing.T) {
	insts := []feature.Instance{
		core.BaseInstance(),
		{User: 0, Target: 0, Hist: nil, UserAttr: feature.Pad, TargetAttr: feature.Pad},                        // empty history
		{User: 5, Target: 8, Hist: []int{0, 1, 2, 3, 4, 5, 6}, UserAttr: feature.Pad, TargetAttr: feature.Pad}, // truncated
		{User: 3, Target: 2, Hist: []int{8}, UserAttr: feature.Pad, TargetAttr: feature.Pad},                   // padded
	}
	for name, cfg := range core.ParityConfigs() {
		m, err := core.New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		e := newExec(t, m)
		for _, inst := range insts {
			want := core.ScoreRef(m, inst)
			dyn := e.PrecomputeDynamic(inst.Hist)

			// Cold static view.
			got, hS := e.ScoreFast(dyn, inst, nil)
			if got != want {
				t.Errorf("%s: cold ScoreFast=%v, Score=%v (not bit-identical)", name, got, want)
			}

			// Warm static view: feed the returned vector back in.
			if warm, _ := e.ScoreFast(dyn, inst, hS); warm != want {
				t.Errorf("%s: warm ScoreFast=%v, Score=%v", name, warm, want)
			}
		}
	}
}

func TestScoreFastSharedDynAcrossCandidates(t *testing.T) {
	// One history, many candidates — the top-K serving pattern. The dynamic
	// state is computed once and must reproduce Score for every candidate.
	cfg := core.BaseConfig()
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := newExec(t, m)
	base := core.BaseInstance()
	dyn := e.PrecomputeDynamic(base.Hist)
	for target := 0; target < cfg.Space.NumObjects; target++ {
		inst := base
		inst.Target = target
		want := core.ScoreRef(m, inst)
		if got, _ := e.ScoreFast(dyn, inst, nil); got != want {
			t.Fatalf("candidate %d: ScoreFast=%v, Score=%v", target, got, want)
		}
	}
}

func TestScoreFastWithAttributes(t *testing.T) {
	cfg := core.BaseConfig()
	cfg.Space.NumUserAttrs = 3
	cfg.Space.NumItemAttrs = 4
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inst := feature.Instance{User: 1, Target: 4, Hist: []int{2, 6}, UserAttr: 2, TargetAttr: 1}
	want := core.ScoreRef(m, inst)
	e := newExec(t, m)
	if got, _ := e.ScoreFast(e.PrecomputeDynamic(inst.Hist), inst, nil); got != want {
		t.Fatalf("ScoreFast=%v, Score=%v", got, want)
	}
}

func TestPrecomputeDynamicPadCount(t *testing.T) {
	m, err := core.New(core.BaseConfig()) // MaxSeqLen 4
	if err != nil {
		t.Fatal(err)
	}
	e := newExec(t, m)
	for _, tc := range []struct {
		hist []int
		want int
	}{
		{nil, 4},
		{[]int{1}, 3},
		{[]int{1, 2, 3, 4}, 0},
		{[]int{1, 2, 3, 4, 5, 6}, 0},
	} {
		if got := e.PrecomputeDynamic(tc.hist).PadCount; got != tc.want {
			t.Errorf("hist %v: PadCount=%d, want %d", tc.hist, got, tc.want)
		}
	}
}
