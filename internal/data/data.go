// Package data provides the dataset substrate: chronologically ordered
// interaction logs, the leave-one-out evaluation split of §V-C, negative
// sampling, dataset statistics (Table I), and synthetic generators standing
// in for the paper's six public datasets (Gowalla, Foursquare, Trivago,
// Taobao, Amazon Beauty, Amazon Toys) — see DESIGN.md §1 for why each
// generator preserves the behaviour the paper measures.
package data

import (
	"fmt"
	"math/rand"
	"sort"

	"seqfm/internal/feature"
)

// Task identifies which of the paper's three application scenarios a dataset
// serves (§IV).
type Task int

// The three temporal predictive analytics tasks of the paper.
const (
	Ranking        Task = iota // next-POI recommendation, §IV-A
	Classification             // click-through rate prediction, §IV-B
	Regression                 // rating prediction, §IV-C
)

// String names the task.
func (t Task) String() string {
	switch t {
	case Ranking:
		return "ranking"
	case Classification:
		return "classification"
	case Regression:
		return "regression"
	default:
		return fmt.Sprintf("Task(%d)", int(t))
	}
}

// Interaction is one timestamped (implicit or explicit) user-object event.
type Interaction struct {
	Object int
	Rating float64 // 1 for implicit feedback; 1..5 for ratings
	Time   int64
}

// Dataset is a per-user chronologically sorted interaction log plus optional
// static side information.
type Dataset struct {
	Name string
	Task Task

	NumUsers   int
	NumObjects int

	// Users[u] lists user u's interactions in non-decreasing Time order.
	Users [][]Interaction

	// Optional static side features ("other static features" of Eq. 20/22/25).
	NumUserAttrs int
	NumItemAttrs int
	UserAttr     []int // len NumUsers when NumUserAttrs > 0
	ItemAttr     []int // len NumObjects when NumItemAttrs > 0
}

// Space returns the sparse feature space induced by the dataset.
func (d *Dataset) Space() feature.Space {
	return feature.Space{
		NumUsers:     d.NumUsers,
		NumObjects:   d.NumObjects,
		NumUserAttrs: d.NumUserAttrs,
		NumItemAttrs: d.NumItemAttrs,
	}
}

// Objects returns every object id in the catalog — 0 through NumObjects-1
// in ascending order — as a fresh slice the caller may keep. It is the
// candidate universe: index builds and full-catalog serving paths iterate
// it instead of re-deriving the catalog by scanning interaction logs (an
// object with no interactions yet is still a valid candidate).
func (d *Dataset) Objects() []int {
	out := make([]int, d.NumObjects)
	for i := range out {
		out[i] = i
	}
	return out
}

// NumInstances returns the total interaction count (Table I "#Instance").
func (d *Dataset) NumInstances() int {
	n := 0
	for _, u := range d.Users {
		n += len(u)
	}
	return n
}

// Validate checks internal consistency: chronological ordering, index
// ranges, and attribute table sizes. Generators call it before returning.
func (d *Dataset) Validate() error {
	if len(d.Users) != d.NumUsers {
		return fmt.Errorf("data: %s: %d user logs for %d users", d.Name, len(d.Users), d.NumUsers)
	}
	for u, log := range d.Users {
		for i, it := range log {
			if it.Object < 0 || it.Object >= d.NumObjects {
				return fmt.Errorf("data: %s: user %d object %d outside [0,%d)", d.Name, u, it.Object, d.NumObjects)
			}
			if i > 0 && it.Time < log[i-1].Time {
				return fmt.Errorf("data: %s: user %d interactions out of order at %d", d.Name, u, i)
			}
		}
	}
	if d.NumUserAttrs > 0 && len(d.UserAttr) != d.NumUsers {
		return fmt.Errorf("data: %s: %d user attrs for %d users", d.Name, len(d.UserAttr), d.NumUsers)
	}
	if d.NumItemAttrs > 0 && len(d.ItemAttr) != d.NumObjects {
		return fmt.Errorf("data: %s: %d item attrs for %d objects", d.Name, len(d.ItemAttr), d.NumObjects)
	}
	return nil
}

// instance builds the feature.Instance for predicting position pos of user
// u's log from everything before it. objs holds the log's object ids; the
// instance's history is its first pos entries, capped so that an append
// copies instead of writing into objs.
func (d *Dataset) instance(u, pos int, objs []int) feature.Instance {
	log := d.Users[u]
	inst := feature.Instance{
		User:       u,
		Target:     log[pos].Object,
		Hist:       objs[:pos:pos],
		Label:      log[pos].Rating,
		UserAttr:   feature.Pad,
		TargetAttr: feature.Pad,
	}
	if d.NumUserAttrs > 0 {
		inst.UserAttr = d.UserAttr[u]
	}
	if d.NumItemAttrs > 0 {
		inst.TargetAttr = d.ItemAttr[log[pos].Object]
	}
	return inst
}

// WithTargetObject returns a copy of inst re-targeted at object (used to
// score ranking candidates and sampled negatives against the same history).
func (d *Dataset) WithTargetObject(inst feature.Instance, object int) feature.Instance {
	out := inst
	out.Target = object
	if d.NumItemAttrs > 0 {
		out.TargetAttr = d.ItemAttr[object]
	}
	return out
}

// Split is the leave-one-out protocol of §V-C: within each user's
// transaction the last record is the test ground truth, the second-last the
// validation record, and the rest train the models. Users with fewer than
// three interactions contribute only training positions.
//
// The instances of one user share one array of that user's object ids: each
// Hist is a prefix of it, capped at its own length. Split histories are
// therefore read-only; appending to one copies it.
type Split struct {
	ds    *Dataset
	Train []feature.Instance
	Val   []feature.Instance
	Test  []feature.Instance
}

// NewSplit materialises the leave-one-out split. Training instances are
// built from every in-log position (each object predicted from its prefix),
// skipping position 0, which has no history to condition on. It copies each
// user's object ids once, however many instances the user yields, and sizes
// the three instance lists up front.
func NewSplit(d *Dataset) *Split {
	var nTrain, nHeldOut int
	for _, log := range d.Users {
		if n := len(log); n >= 3 {
			nTrain += n - 3
			nHeldOut++
		} else if n > 1 {
			nTrain += n - 1
		}
	}
	s := &Split{
		ds:    d,
		Train: make([]feature.Instance, 0, nTrain),
		Val:   make([]feature.Instance, 0, nHeldOut),
		Test:  make([]feature.Instance, 0, nHeldOut),
	}
	for u, log := range d.Users {
		n := len(log)
		if n < 2 {
			continue
		}
		objs := make([]int, n-1) // the last record is never history
		for i := range objs {
			objs[i] = log[i].Object
		}
		trainEnd := n
		if n >= 3 {
			trainEnd = n - 2
			s.Val = append(s.Val, d.instance(u, n-2, objs))
			s.Test = append(s.Test, d.instance(u, n-1, objs))
		}
		for pos := 1; pos < trainEnd; pos++ {
			s.Train = append(s.Train, d.instance(u, pos, objs))
		}
	}
	return s
}

// Dataset returns the dataset the split was built from.
func (s *Split) Dataset() *Dataset { return s.ds }

// SubsetTrain returns a copy of the split with only the first fraction of
// training instances retained (per Figure 4's scalability protocol of
// varying the training data proportion). frac must be in (0, 1].
func (s *Split) SubsetTrain(frac float64) *Split {
	if frac <= 0 || frac > 1 {
		panic(fmt.Sprintf("data: SubsetTrain fraction %v", frac))
	}
	n := int(float64(len(s.Train)) * frac)
	if n < 1 {
		n = 1
	}
	return &Split{ds: s.ds, Train: s.Train[:n], Val: s.Val, Test: s.Test}
}

// NegativeSampler draws objects a given user has never interacted with,
// uniformly — used both to build BPR triples (§IV-A), to sample unobserved
// negatives for classification training (§IV-B), and to assemble the J
// ranking candidates of the evaluation protocol (§V-C).
//
// Cost is per user touched: the constructor indexes nothing, and the first
// Sample, SampleN, Seen or MarkSeen that names user u builds u's seen set
// from the dataset log, which the sampler then keeps. Evaluating a handful
// of users therefore costs their logs, not the whole dataset's. Because even
// a read may build a set, a sampler belongs to one goroutine; parallel
// callers hold one per worker.
type NegativeSampler struct {
	ds         *Dataset
	numObjects int
	seen       []map[int]bool // nil until the user is first touched
	added      map[int][]int  // MarkSeen objects beyond the dataset log
	rng        *rand.Rand
}

// NewNegativeSampler returns a sampler over the dataset's interactions. It
// makes a constant number of allocations whatever the dataset's size; each
// user's seen set is built on first touch. The dataset's logs must not
// change while the sampler is in use — record new interactions with
// MarkSeen.
func NewNegativeSampler(d *Dataset, rng *rand.Rand) *NegativeSampler {
	return &NegativeSampler{ds: d, numObjects: d.NumObjects, seen: make([]map[int]bool, d.NumUsers), rng: rng}
}

// userSeen returns user u's seen set, building it from the dataset log the
// first time u is touched.
func (ns *NegativeSampler) userSeen(u int) map[int]bool {
	if m := ns.seen[u]; m != nil {
		return m
	}
	log := ns.ds.Users[u]
	m := make(map[int]bool, len(log))
	for _, it := range log {
		m[it.Object] = true
	}
	ns.seen[u] = m
	return m
}

// Reseed replaces the sampler's random stream, keeping the indexed
// interaction sets. The incremental trainer (train.Stepper) rederives each
// worker's sampling stream from the step counter before every minibatch so
// that checkpoint-restored runs draw the same negatives.
func (ns *NegativeSampler) Reseed(rng *rand.Rand) { ns.rng = rng }

// MarkSeen records that user u has now interacted with object o, so later
// Sample calls stop proposing it as a negative. The online trainer feeds
// ingested events through this before fine-tuning on them — without it, a
// freshly trending object would keep being sampled as its own negative. An
// object not already in u's set is also recorded for SeenDelta. Users
// outside the dataset are ignored.
func (ns *NegativeSampler) MarkSeen(u, o int) {
	if u < 0 || u >= len(ns.seen) {
		return
	}
	m := ns.userSeen(u)
	if m[o] {
		return
	}
	m[o] = true
	if ns.added == nil {
		ns.added = make(map[int][]int)
	}
	ns.added[u] = append(ns.added[u], o)
}

// Sample returns one object user u has never interacted with. It falls back
// to a uniform object if the user has seen (nearly) everything.
func (ns *NegativeSampler) Sample(u int) int {
	seen := ns.userSeen(u)
	for tries := 0; tries < 64; tries++ {
		o := ns.rng.Intn(ns.numObjects)
		if !seen[o] {
			return o
		}
	}
	return ns.rng.Intn(ns.numObjects)
}

// SampleN returns n negatives for user u, distinct from each other and
// unseen by the user when possible. When n exceeds the number of objects
// the vocabulary can supply, duplicates are admitted rather than looping
// forever — small synthetic datasets can have fewer objects than the J
// candidates the ranking protocol asks for.
func (ns *NegativeSampler) SampleN(u, n int) []int {
	// The user's unvisited objects bound how many distinct negatives exist.
	avail := ns.numObjects - len(ns.userSeen(u))
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

// Seen reports whether user u has interacted with object o.
func (ns *NegativeSampler) Seen(u, o int) bool { return ns.userSeen(u)[o] }

// SeenDelta returns, per user, the objects MarkSeen added beyond the dataset
// log, each list sorted and copied. Checkpointing persists it: it is the
// exclusion state a compacted event log can no longer rebuild.
func (ns *NegativeSampler) SeenDelta() map[int][]int {
	out := make(map[int][]int, len(ns.added))
	for u, objs := range ns.added {
		objs = append([]int(nil), objs...)
		sort.Ints(objs)
		out[u] = objs
	}
	return out
}

// SortUsersByLength orders user ids by descending log length; useful for
// inspection tooling.
func SortUsersByLength(d *Dataset) []int {
	ids := make([]int, d.NumUsers)
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool { return len(d.Users[ids[a]]) > len(d.Users[ids[b]]) })
	return ids
}
