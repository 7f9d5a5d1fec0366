package data

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// eagerSampler is the reference NegativeSampler: it indexes every user's log
// up front, as the sampler did before its sets were built on first touch.
// The lazy sampler must reproduce it draw for draw.
type eagerSampler struct {
	numObjects int
	seen       []map[int]bool
	rng        *rand.Rand
}

func newEagerSampler(d *Dataset, rng *rand.Rand) *eagerSampler {
	ns := &eagerSampler{numObjects: d.NumObjects, rng: rng}
	ns.seen = make([]map[int]bool, d.NumUsers)
	for u, log := range d.Users {
		m := make(map[int]bool, len(log))
		for _, it := range log {
			m[it.Object] = true
		}
		ns.seen[u] = m
	}
	return ns
}

func (ns *eagerSampler) MarkSeen(u, o int) {
	if u < 0 || u >= len(ns.seen) {
		return
	}
	ns.seen[u][o] = true
}

func (ns *eagerSampler) Sample(u int) int {
	for tries := 0; tries < 64; tries++ {
		o := ns.rng.Intn(ns.numObjects)
		if !ns.seen[u][o] {
			return o
		}
	}
	return ns.rng.Intn(ns.numObjects)
}

func (ns *eagerSampler) SampleN(u, n int) []int {
	avail := ns.numObjects - len(ns.seen[u])
	if avail < 1 {
		avail = 1
	}
	out := make([]int, 0, n)
	used := make(map[int]bool, n)
	for len(out) < n {
		o := ns.Sample(u)
		if used[o] && len(used) < avail {
			continue
		}
		used[o] = true
		out = append(out, o)
	}
	return out
}

func (ns *eagerSampler) Seen(u, o int) bool { return ns.seen[u][o] }

// seenDelta is what checkpoints persisted before MarkSeen recorded its
// additions: each user's set minus the objects of the dataset log, sorted.
func (ns *eagerSampler) seenDelta(d *Dataset) map[int][]int {
	out := make(map[int][]int)
	for u, set := range ns.seen {
		base := make(map[int]bool, len(d.Users[u]))
		for _, it := range d.Users[u] {
			base[it.Object] = true
		}
		var objs []int
		for o := range set {
			if !base[o] {
				objs = append(objs, o)
			}
		}
		if len(objs) > 0 {
			sort.Ints(objs)
			out[u] = objs
		}
	}
	return out
}

// randomLogDataset builds a dataset whose users range from an empty log to
// one that revisits (nearly) every object, so both the rejection loop and
// its uniform fallback run.
func randomLogDataset(rng *rand.Rand, numUsers, numObjects int) *Dataset {
	d := &Dataset{Name: "random-logs", Task: Ranking, NumUsers: numUsers, NumObjects: numObjects}
	d.Users = make([][]Interaction, numUsers)
	for u := range d.Users {
		n := rng.Intn(2 * numObjects)
		if u%7 == 0 {
			n = 0
		}
		for i := 0; i < n; i++ {
			d.Users[u] = append(d.Users[u], Interaction{Object: rng.Intn(numObjects), Rating: 1, Time: int64(i)})
		}
	}
	return d
}

// TestLazySamplerMatchesEager drives random interleavings of every sampler
// call against the eager reference: outputs, random draws and the recorded
// MarkSeen additions must agree exactly.
func TestLazySamplerMatchesEager(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := randomLogDataset(rng, 30, 25)
		lazy := NewNegativeSampler(d, rand.New(rand.NewSource(seed*101)))
		eager := newEagerSampler(d, rand.New(rand.NewSource(seed*101)))
		for step := 0; step < 3000; step++ {
			u := rng.Intn(d.NumUsers)
			switch op := rng.Intn(6); op {
			case 0:
				if a, b := lazy.Sample(u), eager.Sample(u); a != b {
					t.Fatalf("seed %d step %d: Sample(%d) = %d, eager %d", seed, step, u, a, b)
				}
			case 1:
				n := 1 + rng.Intn(30)
				if a, b := lazy.SampleN(u, n), eager.SampleN(u, n); !reflect.DeepEqual(a, b) {
					t.Fatalf("seed %d step %d: SampleN(%d, %d) = %v, eager %v", seed, step, u, n, a, b)
				}
			case 2:
				o := rng.Intn(d.NumObjects)
				if a, b := lazy.Seen(u, o), eager.Seen(u, o); a != b {
					t.Fatalf("seed %d step %d: Seen(%d, %d) = %v, eager %v", seed, step, u, o, a, b)
				}
			case 3:
				o := rng.Intn(d.NumObjects)
				lazy.MarkSeen(u, o)
				eager.MarkSeen(u, o)
			case 4:
				// An object already in the user's dataset log.
				if log := d.Users[u]; len(log) > 0 {
					o := log[rng.Intn(len(log))].Object
					lazy.MarkSeen(u, o)
					eager.MarkSeen(u, o)
				}
			case 5:
				// A user outside the dataset is ignored.
				bad := []int{-1, d.NumUsers, d.NumUsers + 3}[rng.Intn(3)]
				o := rng.Intn(d.NumObjects)
				lazy.MarkSeen(bad, o)
				eager.MarkSeen(bad, o)
			}
		}
		if a, b := lazy.SeenDelta(), eager.seenDelta(d); !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: SeenDelta %v, eager set minus log %v", seed, a, b)
		}
	}
}

// TestNewNegativeSamplerAllocsIndependentOfUsers pins the constructor's cost
// model: it indexes nothing, so a dataset with ten times the users costs the
// same constant allocations.
func TestNewNegativeSamplerAllocsIndependentOfUsers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	small := randomLogDataset(rng, 40, 25)
	large := randomLogDataset(rng, 400, 25)
	allocs := func(d *Dataset) float64 {
		return testing.AllocsPerRun(20, func() { NewNegativeSampler(d, rng) })
	}
	a, b := allocs(small), allocs(large)
	if a != b || b > 2 {
		t.Fatalf("NewNegativeSampler allocs: %v at %d users, %v at %d users; want equal and at most 2",
			a, small.NumUsers, b, large.NumUsers)
	}
}
