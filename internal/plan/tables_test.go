package plan

import (
	"sync"
	"testing"

	"seqfm/internal/ag"
	"seqfm/internal/core"
	"seqfm/internal/feature"
)

func tablesTestModel(t *testing.T) *core.Model {
	t.Helper()
	m, err := core.New(core.Config{
		Space:     feature.Space{NumUsers: 40, NumObjects: 50},
		Dim:       6,
		Layers:    1,
		MaxSeqLen: 4,
		KeepProb:  1,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// residentRows counts the rows a table holds: allocated and published.
func residentRows(t *projTable) int {
	n := 0
	for i := range t.chunks {
		c := t.chunks[i].Load()
		if c == nil {
			continue
		}
		for r := range c.rows {
			if c.state[r].Load() == rowReady && c.rows[r] != nil {
				n++
			}
		}
	}
	return n
}

// TestFrozenFirstTouchRace: goroutines racing to fill the same table rows all
// score bit-identically to the tape, and exactly the touched rows end up
// resident — none left half-published, none filled that nobody asked for; a
// row enters the table once because only the empty → filling CAS winner writes
// it. Run under -race this is also the tables' memory-model check.
func TestFrozenFirstTouchRace(t *testing.T) {
	m := tablesTestModel(t)
	sp := m.Config().Space
	var insts []feature.Instance
	for u := 0; u < 4; u++ {
		hist := []int{u + 1, 2*u + 7, 3*u + 11}
		for o := 0; o < 12; o++ {
			insts = append(insts, feature.Instance{User: 3 * u, Target: (5*o + u) % sp.NumObjects, Hist: hist,
				UserAttr: feature.Pad, TargetAttr: feature.Pad})
		}
	}
	want := make([]float64, len(insts))
	staticRows, dynRows := map[int]bool{}, map[int]bool{}
	for i, inst := range insts {
		want[i] = m.Score(ag.NewTape(), inst).Value.ScalarValue()
		for _, ix := range sp.StaticIndices(inst) {
			staticRows[ix] = true
		}
		for _, ix := range inst.Hist {
			dynRows[ix] = true
		}
	}

	for round := 0; round < 20; round++ {
		p, err := Frozen(m)
		if err != nil {
			t.Fatal(err)
		}
		const workers = 8
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				e := p.NewExec()
				<-start
				var dyn *core.DynState
				for i, inst := range insts {
					if i == 0 || &inst.Hist[0] != &insts[i-1].Hist[0] {
						dyn = e.PrecomputeDynamic(inst.Hist)
					}
					if got, _ := e.ScoreFast(dyn, inst, nil); got != want[i] {
						t.Errorf("round %d inst %d: frozen=%v, tape=%v", round, i, got, want[i])
					}
				}
			}()
		}
		close(start)
		wg.Wait()

		for name, c := range map[string]struct {
			tab  *projTable
			rows map[int]bool
		}{
			"staticS": {p.tab.staticS, staticRows}, "crossS": {p.tab.crossS, staticRows},
			"dynD": {p.tab.dynD, dynRows}, "crossD": {p.tab.crossD, dynRows},
		} {
			for ix := range c.rows {
				if st := c.tab.chunks[ix/chunkRows].Load().state[ix%chunkRows].Load(); st != rowReady {
					t.Fatalf("round %d %s: row %d left in state %d", round, name, ix, st)
				}
			}
			if got := residentRows(c.tab); got != len(c.rows) {
				t.Fatalf("round %d %s: %d rows resident, %d distinct rows touched", round, name, got, len(c.rows))
			}
		}
	}
}

// TestProjTableRowMidFill pins the branch a race only sometimes reaches: a
// reader that finds a row claimed but not yet published computes it into its
// own scratch — the same bits the table would hold — and leaves the table to
// the claimant.
func TestProjTableRowMidFill(t *testing.T) {
	m := tablesTestModel(t)
	p, err := Frozen(m)
	if err != nil {
		t.Fatal(err)
	}
	tab := p.tab.crossS
	const ix = 21
	want := append([]float64(nil), tab.row(ix, nil)...)

	fresh := newProjTable(tab.emb, p.spec.AttnX)
	fresh.row(ix+1, nil) // allocates the chunk; ix itself stays empty
	st := &fresh.chunks[ix/chunkRows].Load().state[ix%chunkRows]
	st.Store(rowFilling)
	scratch := make([]float64, 3*fresh.d)
	got := fresh.row(ix, scratch)
	if &got[0] != &scratch[0] {
		t.Fatal("a row mid-fill was not served from the caller's scratch")
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("scratch[%d]=%v, table=%v", j, got[j], want[j])
		}
	}
	if st.Load() != rowFilling || residentRows(fresh) != 1 || fresh.chunks[ix/chunkRows].Load().rows[ix%chunkRows] != nil {
		t.Fatalf("reader disturbed the claimed row: state %d, %d rows resident", st.Load(), residentRows(fresh))
	}
	if pad := fresh.row(feature.Pad, scratch); len(pad) != 3*fresh.d {
		t.Fatalf("pad row is %d wide", len(pad))
	} else {
		for _, v := range pad {
			if v != 0 {
				t.Fatal("pad row is not zero")
			}
		}
	}
}
