package data

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"seqfm/internal/feature"
)

// tinyDataset builds a hand-written 3-user dataset for split tests.
func tinyDataset() *Dataset {
	return &Dataset{
		Name:       "tiny",
		Task:       Ranking,
		NumUsers:   3,
		NumObjects: 6,
		Users: [][]Interaction{
			{{Object: 0, Rating: 1, Time: 0}, {Object: 1, Rating: 1, Time: 1},
				{Object: 2, Rating: 1, Time: 2}, {Object: 3, Rating: 1, Time: 3}},
			{{Object: 4, Rating: 1, Time: 0}, {Object: 5, Rating: 1, Time: 1}},
			{},
		},
	}
}

func TestSplitLeaveOneOut(t *testing.T) {
	d := tinyDataset()
	s := NewSplit(d)
	// User 0 (4 interactions): positions 1..(n−2) train ⇒ {1}, val=pos 2, test=pos 3.
	if len(s.Val) != 1 || len(s.Test) != 1 {
		t.Fatalf("val=%d test=%d, want 1/1", len(s.Val), len(s.Test))
	}
	if s.Test[0].Target != 3 || s.Val[0].Target != 2 {
		t.Fatalf("test target %d, val target %d", s.Test[0].Target, s.Val[0].Target)
	}
	// Test history must be everything before the last interaction.
	if got := s.Test[0].Hist; len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("test hist %v", got)
	}
	// User 1 has only 2 interactions: train-only (position 1).
	foundUser1 := false
	for _, inst := range s.Train {
		if inst.User == 1 {
			foundUser1 = true
			if inst.Target != 5 || len(inst.Hist) != 1 || inst.Hist[0] != 4 {
				t.Fatalf("user-1 train instance %+v", inst)
			}
		}
		if inst.User == 0 && inst.Target == 3 {
			t.Fatal("test interaction leaked into training")
		}
	}
	if !foundUser1 {
		t.Fatal("short user contributed no training data")
	}
}

func TestSplitChronology(t *testing.T) {
	// Every training instance's history must precede its target in time.
	d, err := GeneratePOI(GowallaConfig(0.001, 3))
	if err != nil {
		t.Fatal(err)
	}
	s := NewSplit(d)
	for _, inst := range s.Train {
		log := d.Users[inst.User]
		pos := len(inst.Hist)
		if log[pos].Object != inst.Target {
			t.Fatalf("instance target %d not at position %d of the log", inst.Target, pos)
		}
		for i, h := range inst.Hist {
			if log[i].Object != h {
				t.Fatal("history does not match the chronological prefix")
			}
		}
	}
}

// copiedSplit is the reference leave-one-out split: every instance owns a
// fresh copy of its history prefix, as NewSplit built them before the
// instances of one user came to share one array.
func copiedSplit(d *Dataset) (train, val, test []feature.Instance) {
	inst := func(u, pos int) feature.Instance {
		log := d.Users[u]
		hist := make([]int, pos)
		for i := range hist {
			hist[i] = log[i].Object
		}
		out := feature.Instance{User: u, Target: log[pos].Object, Hist: hist, Label: log[pos].Rating,
			UserAttr: feature.Pad, TargetAttr: feature.Pad}
		if d.NumUserAttrs > 0 {
			out.UserAttr = d.UserAttr[u]
		}
		if d.NumItemAttrs > 0 {
			out.TargetAttr = d.ItemAttr[log[pos].Object]
		}
		return out
	}
	for u, log := range d.Users {
		n := len(log)
		trainEnd := n
		if n >= 3 {
			trainEnd = n - 2
			val = append(val, inst(u, n-2))
			test = append(test, inst(u, n-1))
		}
		for pos := 1; pos < trainEnd; pos++ {
			train = append(train, inst(u, pos))
		}
	}
	return train, val, test
}

// TestSplitHistoriesShareOneArrayPerUser: NewSplit's instances equal the
// copied-prefix reference field for field, every history is capped at its
// length, and appending to one history leaves every other instance as it was.
func TestSplitHistoriesShareOneArrayPerUser(t *testing.T) {
	poi, err := GeneratePOI(GowallaConfig(0.001, 3))
	if err != nil {
		t.Fatal(err)
	}
	ctr, err := GenerateCTR(TrivagoConfig(0.001, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*Dataset{tinyDataset(), randomLogDataset(rand.New(rand.NewSource(1)), 60, 25), poi, ctr} {
		s := NewSplit(d)
		wantTrain, wantVal, wantTest := copiedSplit(d)
		for _, c := range []struct {
			name      string
			got, want []feature.Instance
		}{{"Train", s.Train, wantTrain}, {"Val", s.Val, wantVal}, {"Test", s.Test, wantTest}} {
			if len(c.got) != len(c.want) {
				t.Fatalf("%s: %d %s instances, want %d", d.Name, len(c.got), c.name, len(c.want))
			}
			for i, inst := range c.got {
				if cap(inst.Hist) != len(inst.Hist) {
					t.Fatalf("%s: %s[%d] hist len %d cap %d", d.Name, c.name, i, len(inst.Hist), cap(inst.Hist))
				}
				if !reflect.DeepEqual(inst, c.want[i]) {
					t.Fatalf("%s: %s[%d] = %+v, want %+v", d.Name, c.name, i, inst, c.want[i])
				}
			}
		}
		for i := range s.Train {
			s.Train[i].Hist = append(s.Train[i].Hist, -1)
		}
		for i := range s.Val {
			s.Val[i].Hist = append(s.Val[i].Hist, -1)
		}
		for i, inst := range s.Test {
			if !reflect.DeepEqual(inst, wantTest[i]) {
				t.Fatalf("%s: Test[%d] = %+v after appending to every other history, want %+v", d.Name, i, inst, wantTest[i])
			}
		}
	}
}

// TestNewSplitAllocsGrowWithUsers: NewSplit allocates the Split, its three
// instance lists and one history array per user with at least two records —
// as many objects for logs of 5 records as for logs of 50.
func TestNewSplitAllocsGrowWithUsers(t *testing.T) {
	logs := func(users, length int) *Dataset {
		d := &Dataset{Name: "fixed-logs", Task: Ranking, NumUsers: users, NumObjects: 25}
		d.Users = make([][]Interaction, users)
		for u := range d.Users {
			for i := 0; i < length; i++ {
				d.Users[u] = append(d.Users[u], Interaction{Object: (u + i) % 25, Rating: 1, Time: int64(i)})
			}
		}
		return d
	}
	allocs := func(d *Dataset) float64 { return testing.AllocsPerRun(20, func() { NewSplit(d) }) }
	for _, users := range []int{10, 40} {
		short, long := allocs(logs(users, 5)), allocs(logs(users, 50))
		if want := float64(4 + users); short != want || long != want {
			t.Fatalf("NewSplit allocs over %d users: %v with 5 records each, %v with 50; want %v for both",
				users, short, long, want)
		}
	}
}

func TestSubsetTrain(t *testing.T) {
	d := tinyDataset()
	s := NewSplit(d)
	sub := s.SubsetTrain(0.5)
	if len(sub.Train) != 1 {
		t.Fatalf("subset train=%d", len(sub.Train))
	}
	if len(sub.Test) != len(s.Test) {
		t.Fatal("subset changed the test split")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic for frac>1")
			}
		}()
		s.SubsetTrain(1.5)
	}()
}

func TestNegativeSamplerAvoidsSeen(t *testing.T) {
	d := tinyDataset()
	ns := NewNegativeSampler(d, rand.New(rand.NewSource(1)))
	for i := 0; i < 200; i++ {
		o := ns.Sample(0) // user 0 saw {0,1,2,3}
		if o == 0 || o == 1 || o == 2 || o == 3 {
			t.Fatalf("sampled seen object %d", o)
		}
	}
	negs := ns.SampleN(0, 2)
	if len(negs) != 2 || negs[0] == negs[1] {
		t.Fatalf("SampleN: %v", negs)
	}
	if !ns.Seen(0, 2) || ns.Seen(0, 4) {
		t.Fatal("Seen bookkeeping wrong")
	}
}

// TestSampleNExceedingVocabulary pins the regression where asking for more
// distinct negatives than the object vocabulary holds looped forever: the
// sampler must fall back to duplicates and terminate.
func TestSampleNExceedingVocabulary(t *testing.T) {
	d := tinyDataset() // 6 objects
	ns := NewNegativeSampler(d, rand.New(rand.NewSource(2)))
	done := make(chan []int, 1)
	go func() { done <- ns.SampleN(0, 50) }()
	select {
	case negs := <-done:
		if len(negs) != 50 {
			t.Fatalf("SampleN returned %d of 50", len(negs))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SampleN hung when n exceeds the vocabulary")
	}
}

func TestWithTargetObject(t *testing.T) {
	d := tinyDataset()
	d.NumItemAttrs = 2
	d.ItemAttr = []int{0, 1, 0, 1, 0, 1}
	s := NewSplit(d)
	inst := s.Test[0]
	re := d.WithTargetObject(inst, 4)
	if re.Target != 4 || re.TargetAttr != 0 {
		t.Fatalf("retarget: %+v", re)
	}
	if re.User != inst.User || len(re.Hist) != len(inst.Hist) {
		t.Fatal("retarget disturbed other fields")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	d := tinyDataset()
	d.Users[0][0].Object = 99
	if err := d.Validate(); err == nil {
		t.Fatal("out-of-range object not caught")
	}
	d = tinyDataset()
	d.Users[0][0].Time = 5 // out of order vs Time=1 next
	if err := d.Validate(); err == nil {
		t.Fatal("time disorder not caught")
	}
	d = tinyDataset()
	d.NumUserAttrs = 1
	if err := d.Validate(); err == nil {
		t.Fatal("missing attr table not caught")
	}
}

func TestSpaceFromDataset(t *testing.T) {
	d := tinyDataset()
	sp := d.Space()
	if sp.NumUsers != 3 || sp.NumObjects != 6 {
		t.Fatalf("space: %+v", sp)
	}
	if sp.StaticDim() != 9 || sp.DynamicDim() != 6 {
		t.Fatal("space dims")
	}
}

func TestInstanceAttrs(t *testing.T) {
	d := tinyDataset()
	d.NumUserAttrs = 2
	d.UserAttr = []int{1, 0, 1}
	d.NumItemAttrs = 3
	d.ItemAttr = []int{0, 1, 2, 0, 1, 2}
	s := NewSplit(d)
	inst := s.Test[0] // user 0, target 3
	if inst.UserAttr != 1 || inst.TargetAttr != 0 {
		t.Fatalf("attrs: %+v", inst)
	}
}

func TestInstanceWithoutAttrsUsesPad(t *testing.T) {
	s := NewSplit(tinyDataset())
	if s.Test[0].UserAttr != feature.Pad || s.Test[0].TargetAttr != feature.Pad {
		t.Fatal("absent attrs should be Pad")
	}
}

func TestObjectsEnumeratesCatalog(t *testing.T) {
	d := &Dataset{NumUsers: 1, NumObjects: 4, Users: [][]Interaction{{{Object: 2, Rating: 1, Time: 1}}}}
	got := d.Objects()
	if len(got) != 4 {
		t.Fatalf("Objects() len = %d, want NumObjects = 4 (uninteracted objects are still candidates)", len(got))
	}
	for i, o := range got {
		if o != i {
			t.Fatalf("Objects()[%d] = %d, want %d", i, o, i)
		}
	}
	got[0] = 99
	if d.Objects()[0] != 0 {
		t.Fatal("Objects() does not return a fresh slice")
	}
}

func TestSortUsersByLength(t *testing.T) {
	d := tinyDataset()
	ids := SortUsersByLength(d)
	if ids[0] != 0 || ids[2] != 2 {
		t.Fatalf("order: %v", ids)
	}
}

func TestTaskString(t *testing.T) {
	if Ranking.String() != "ranking" || Classification.String() != "classification" ||
		Regression.String() != "regression" {
		t.Fatal("task names")
	}
	if Task(9).String() == "" {
		t.Fatal("unknown task name empty")
	}
}
