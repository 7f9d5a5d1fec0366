package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"seqfm/internal/data"
)

// The generator turns --seed into everything the program will see: a
// dataset from the repo's own Gowalla stand-in, its leave-one-out split
// (the SeqFM paper's §V-C protocol), and per workload a plan of requests
// with the time each is due. The program only ever sees these generated
// inputs; the seed itself never reaches it.

// Sizing shared by every serving workload. The catalog is the largest whose
// HNSW build leaves room for three set-ups, warm-up and the measured phases
// inside the driver's per-run budget (see README, "Sizing").
const (
	servingScale = 0.1 // 3,479 users × 5,744 POIs, ~186k check-ins
	recK         = 10
	recN         = 100
	topkJ        = 200 // the issue's 500 makes a 12 ms request, whose fast edge drifted 14 % with the host; 5 ms requests hold
	topkContexts = 64
	holdOut      = 1 // mixed_online: each user's last interaction is held out and replayed as feedback
)

type opKind uint8

const (
	opRecommend opKind = iota
	opTopK
	opFeedback
)

func (k opKind) String() string { return [...]string{"recommend", "topk", "feedback"}[k] }

func (k opKind) path() string { return "/v1/" + k.String() }

// op is one request of a plan.
type op struct {
	Kind opKind
	// Due is when the request should be sent, measured from the start of its
	// phase. Closed-loop (filler) ops carry 0 and are sent as soon as a
	// sender is free.
	Due  time.Duration
	User int
	// Hist is the explicit history sent with the request; nil means the
	// server resolves the user's live history.
	Hist   []int
	Cands  []int // opTopK: caller-supplied candidates
	Object int   // opFeedback: the interacted object
	Body   []byte
}

// phase is one stretch of load: scheduled ops are sent at their due times
// (open loop); filler ops, if any, are sent back to back by whichever sender
// is free until the phase's duration has passed (closed loop).
type phase struct {
	Name string
	// Group pools the results of like stretches ("open", "closed"); empty
	// for warm-up.
	Group    string
	Duration time.Duration
	Sched    []op
	Filler   []op
	// Discard marks warm-up: driven and checked like any phase, never timed.
	Discard bool
}

// hash fingerprints a plan: every op's kind, due time and body in order.
// Two runs at the same seed must produce the same hash.
func planHash(phases []phase) string {
	h := sha256.New()
	var buf [9]byte
	put := func(o op) {
		buf[0] = byte(o.Kind)
		binary.LittleEndian.PutUint64(buf[1:], uint64(o.Due))
		h.Write(buf[:])
		h.Write(o.Body)
		h.Write([]byte{0})
	}
	for _, p := range phases {
		h.Write([]byte(p.Name))
		for _, o := range p.Sched {
			put(o)
		}
		for _, o := range p.Filler {
			put(o)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func appendInts(b []byte, xs []int) []byte {
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}

func recommendBody(user int, hist []int) []byte {
	b := append([]byte(`{"user":`), strconv.Itoa(user)...)
	if hist != nil {
		b = appendInts(append(b, `,"hist":`...), hist)
	}
	return append(b, fmt.Sprintf(`,"k":%d,"n":%d}`, recK, recN)...)
}

func topkBody(user int, hist, cands []int) []byte {
	b := append([]byte(`{"user":`), strconv.Itoa(user)...)
	b = appendInts(append(b, `,"hist":`...), hist)
	b = appendInts(append(b, `,"candidates":`...), cands)
	return append(b, fmt.Sprintf(`,"k":%d}`, recK)...)
}

func feedbackBody(user, object int) []byte {
	return []byte(fmt.Sprintf(`{"user":%d,"object":%d}`, user, object))
}

// objects lists a user's interaction log as object ids.
func objects(log []data.Interaction) []int {
	out := make([]int, len(log))
	for i, it := range log {
		out[i] = it.Object
	}
	return out
}

// servingDataset generates the serving workloads' dataset for a seed.
func servingDataset(seed int64) (*data.Dataset, error) {
	return data.GeneratePOI(data.GowallaConfig(servingScale, seed))
}

// withoutTails returns a copy of ds whose every user log lacks its last n
// interactions — the state a live system is in before those interactions
// arrive as feedback.
func withoutTails(ds *data.Dataset, n int) *data.Dataset {
	live := *ds
	live.Users = make([][]data.Interaction, len(ds.Users))
	for u, log := range ds.Users {
		live.Users[u] = log[:len(log)-n]
	}
	return &live
}

// spaced stamps ops[i].Due = i/rate and returns those that fall inside dur.
func spaced(ops []op, rate float64, dur time.Duration) []op {
	gap := time.Duration(float64(time.Second) / rate)
	n := 0
	for i := range ops {
		due := time.Duration(i) * gap
		if due >= dur {
			break
		}
		ops[i].Due = due
		n++
	}
	return ops[:n]
}

// coldRecommends yields distinct (user, history-prefix) recommend requests:
// pass p sends every user's log minus its last p interactions, users in a
// seeded order, so no request repeats a history and the dynamic-state cache
// never hits — the read a user triggers right after acting.
type coldRecommends struct {
	ds    *data.Dataset
	order []int
	next  int
}

func newColdRecommends(ds *data.Dataset, rng *rand.Rand) *coldRecommends {
	return &coldRecommends{ds: ds, order: rng.Perm(ds.NumUsers)}
}

func (c *coldRecommends) take(n int) []op {
	out := make([]op, 0, n)
	for len(out) < n {
		pass, u := c.next/len(c.order)+1, c.order[c.next%len(c.order)]
		c.next++
		log := c.ds.Users[u]
		if len(log)-pass < 1 {
			continue
		}
		hist := objects(log[:len(log)-pass])
		out = append(out, op{Kind: opRecommend, User: u, Hist: hist, Body: recommendBody(u, hist)})
	}
	return out
}

// load is the shape of one serving workload: open-loop stretches at Rate
// alternate with closed-loop stretches, `segments` of each, sharing --seconds
// Open:Closed. Alternating (rather than one long phase of each) gives both
// measurements the whole run's share of the host's quiet moments.
type load struct {
	Rate         float64 // open-loop requests (and, for mixed_online, events) per second
	Open, Closed float64 // shares of --seconds
}

const (
	warmup   = 2 * time.Second
	segments = 8
	// maxClosedRate bounds how many filler ops a closed-loop stretch prepares
	// per second of its duration; far above what two cores complete.
	maxClosedRate = 1500
)

// Phase groups: results of every stretch of a group are pooled.
const (
	groupOpen   = "open"
	groupClosed = "closed"
)

// durations returns the length of one open and one closed stretch.
func (l load) durations(seconds float64) (open, closed time.Duration) {
	total := time.Duration(seconds * float64(time.Second) / segments)
	open = time.Duration(float64(total) * l.Open / (l.Open + l.Closed))
	return open, total - open
}

// alternate lays out warm-up and then `segments` open/closed pairs; mk fills
// in one stretch's ops given its group and duration.
func alternate(l load, seconds float64, mk func(group string, d time.Duration) phase) []phase {
	open, closed := l.durations(seconds)
	w := mk(groupOpen, warmup)
	w.Name, w.Duration, w.Discard = "warmup", warmup, true
	phases := []phase{w}
	for i := 1; i <= segments; i++ {
		for _, g := range []struct {
			group string
			d     time.Duration
		}{{groupOpen, open}, {groupClosed, closed}} {
			ph := mk(g.group, g.d)
			ph.Name, ph.Group, ph.Duration = fmt.Sprintf("%s%d", g.group, i), g.group, g.d
			phases = append(phases, ph)
		}
	}
	return phases
}

// recColdPlan: read-only /v1/recommend with an explicit history per request.
func recColdPlan(ds *data.Dataset, seed int64, l load, seconds float64) []phase {
	src := newColdRecommends(ds, rand.New(rand.NewSource(seed)))
	return alternate(l, seconds, func(group string, d time.Duration) phase {
		if group == groupClosed {
			return phase{Filler: src.take(int(d.Seconds() * maxClosedRate))}
		}
		return phase{Sched: spaced(src.take(int(d.Seconds()*l.Rate)+1), l.Rate, d)}
	})
}

// topkWarmPlan: read-only /v1/topk over a fixed set of (user, history,
// candidates) contexts, cycled, so every dynamic state and static view is
// cached once the pre-warm pass has touched each context.
func topkWarmPlan(ds *data.Dataset, seed int64, l load, seconds float64) []phase {
	rng := rand.New(rand.NewSource(seed))
	contexts := make([]op, topkContexts)
	for i, u := range rng.Perm(ds.NumUsers)[:topkContexts] {
		log := ds.Users[u]
		hist := objects(log[:len(log)-1])
		cands := rng.Perm(ds.NumObjects)[:topkJ]
		contexts[i] = op{Kind: opTopK, User: u, Hist: hist, Cands: cands, Body: topkBody(u, hist, cands)}
	}
	next := 0
	take := func(n int) []op {
		out := make([]op, n)
		for i := range out {
			out[i] = contexts[next%topkContexts]
			next++
		}
		return out
	}
	prewarm := phase{Name: "prewarm", Discard: true, Sched: take(topkContexts)}
	return append([]phase{prewarm}, alternate(l, seconds, func(group string, d time.Duration) phase {
		if group == groupClosed {
			return phase{Filler: take(int(d.Seconds() * maxClosedRate))}
		}
		return phase{Sched: spaced(take(int(d.Seconds()*l.Rate)+1), l.Rate, d)}
	})...)
}

// mixedOnlinePlan: one open-loop /v1/feedback stream at Rate events/s for
// the whole run — each user's held-out tail replayed in order, users
// interleaved — beside /v1/recommend reads that use the server's live
// histories. In an open stretch a read follows each event half a gap later,
// for the user who just acted; in a closed stretch the senders fill every
// moment no event is due with reads for users the event stream never
// reaches (cycled through, when the senders outrun their number), so those
// reads never race a write to the same history.
func mixedOnlinePlan(full *data.Dataset, seed int64, l load, seconds float64) ([]phase, error) {
	open, closed := l.durations(seconds)
	order := rand.New(rand.NewSource(seed)).Perm(full.NumUsers)
	total := warmup + segments*(open+closed)
	nEvents := int(total.Seconds()*l.Rate) + segments + 1
	if nEvents >= len(order) {
		return nil, fmt.Errorf("mixed_online: %d events leave no untouched users among %d for closed-loop reads", nEvents, len(order))
	}
	gap := time.Duration(float64(time.Second) / l.Rate)
	readers := order[nEvents:]
	nextEvent, nextReader := 0, 0
	return alternate(l, seconds, func(group string, d time.Duration) phase {
		var ph phase
		for due := time.Duration(0); due < d; due += gap {
			u := order[nextEvent]
			nextEvent++
			log := full.Users[u]
			o := log[len(log)-holdOut].Object
			ph.Sched = append(ph.Sched, op{Kind: opFeedback, Due: due, User: u, Object: o, Body: feedbackBody(u, o)})
			if group == groupOpen && due+gap/2 < d {
				ph.Sched = append(ph.Sched, op{Kind: opRecommend, Due: due + gap/2, User: u, Body: recommendBody(u, nil)})
			}
		}
		if group == groupClosed {
			for n := int(d.Seconds() * maxClosedRate); n > 0; n-- {
				u := readers[nextReader%len(readers)]
				nextReader++
				ph.Filler = append(ph.Filler, op{Kind: opRecommend, User: u, Body: recommendBody(u, nil)})
			}
		}
		return ph
	}), nil
}
