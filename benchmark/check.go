package main

import (
	"encoding/json"
	"fmt"
	"slices"
	"sync"

	"seqfm/internal/ag"
	"seqfm/internal/core"
	"seqfm/internal/feature"
)

// checker validates every response while the load runs and collects what it
// finds; any violation makes the run incorrect. It is shared by the senders.
type checker struct {
	mu         sync.Mutex
	checked    int
	violations []string
	fiveXX     int
	responses  int
	// rescore holds the sampled items whose served score is recomputed with
	// core.Model.Score after the phase, off the senders' clock.
	rescore []rescoreItem
	// verified counts rescored items; skipped those whose generation had
	// been replaced before the sample could pin its weights.
	verified, skipped int
}

type rescoreItem struct {
	model *core.Model
	// hists are the histories the server may have used: one for an explicit
	// history, two when a feedback event for the user was in flight.
	hists  [][]int
	user   int
	object int
	score  float64
	what   string
}

// rescoreEvery samples one returned item per this many responses: with K=10
// items per response that is 1 % of the scored items the client sees.
const rescoreEvery = 10

const maxViolations = 20

func (c *checker) fail(format string, args ...any) {
	if len(c.violations) < maxViolations {
		c.violations = append(c.violations, fmt.Sprintf(format, args...))
	} else if len(c.violations) == maxViolations {
		c.violations = append(c.violations, "… further violations suppressed")
	}
}

func (c *checker) ok() bool { return len(c.violations) == 0 }

type rankedResponse struct {
	Items []struct {
		Object int     `json:"object"`
		Score  float64 `json:"score"`
	} `json:"items"`
	Generation      uint64  `json:"generation"`
	IndexGeneration *uint64 `json:"index_generation"`
}

// onResponse is the drive callback: status classes for every op, and for
// ranked reads the ordering, length, exclusion and generation invariants.
func (c *checker) onResponse(st *stack, o *op, status int, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.responses++
	if status >= 500 {
		c.fiveXX++
		c.fail("%s user %d: status %d: %s", o.Kind, o.User, status, body)
		return
	}
	if status < 200 || status >= 300 {
		return // shed or refused: counted as a failed op by the caller
	}
	if o.Kind == opFeedback {
		return
	}
	var resp rankedResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		c.fail("%s user %d: undecodable response: %v", o.Kind, o.User, err)
		return
	}
	c.checked++
	if len(resp.Items) != recK {
		c.fail("%s user %d: %d items, want %d", o.Kind, o.User, len(resp.Items), recK)
		return
	}
	for i := 1; i < len(resp.Items); i++ {
		a, b := resp.Items[i-1], resp.Items[i]
		if a.Score < b.Score || (a.Score == b.Score && a.Object >= b.Object) {
			c.fail("%s user %d: items %d,%d out of order (%v@%d then %v@%d)", o.Kind, o.User, i-1, i, a.Score, a.Object, b.Score, b.Object)
		}
	}
	hists := [][]int{o.Hist}
	if o.Hist == nil {
		// Live history: the dataset log the server booted with, and — when
		// the user's own feedback may still be in flight — that log plus it.
		base := objects(st.live.Users[o.User])
		hists = [][]int{base}
		if tail := st.full.Users[o.User][len(base):]; len(tail) > 0 {
			hists = append(hists, append(append([]int(nil), base...), tail[0].Object))
		}
	}
	switch o.Kind {
	case opRecommend:
		if resp.IndexGeneration == nil || *resp.IndexGeneration != resp.Generation {
			c.fail("recommend user %d: generation %d served with another generation's index", o.User, resp.Generation)
		}
		seen := map[int]bool{}
		for _, h := range hists[0] {
			seen[h] = true
		}
		for _, it := range resp.Items {
			if seen[it.Object] {
				c.fail("recommend user %d: object %d is in the user's history", o.User, it.Object)
			}
		}
	case opTopK:
		for _, it := range resp.Items {
			if !slices.Contains(o.Cands, it.Object) {
				c.fail("topk user %d: object %d was not a candidate", o.User, it.Object)
			}
		}
	}
	if c.checked%rescoreEvery == 0 {
		// Pin the generation's weights now; published weights are immutable,
		// so the recomputation can wait until the phase is over.
		m, _ := st.eng.Model().(*core.Model)
		if m == nil || st.eng.Generation() != resp.Generation {
			c.skipped++
			return
		}
		it := resp.Items[c.checked/rescoreEvery%recK]
		c.rescore = append(c.rescore, rescoreItem{model: m, hists: hists, user: o.User, object: it.Object, score: it.Score,
			what: fmt.Sprintf("%s user %d gen %d", o.Kind, o.User, resp.Generation)})
	}
}

// verifyScores recomputes every sampled item with the reference forward
// pass, core.Model.Score on a fresh tape, and demands the served score
// bit for bit.
func (c *checker) verifyScores() {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := ag.NewTape()
	for _, r := range c.rescore {
		match := false
		var got float64
		for _, h := range r.hists {
			t.Reset()
			got = r.model.Score(t, feature.Instance{User: r.user, Target: r.object, Hist: h,
				UserAttr: feature.Pad, TargetAttr: feature.Pad}).Value.ScalarValue()
			if got == r.score {
				match = true
				break
			}
		}
		if !match {
			c.fail("%s object %d: served score %v, core.Model.Score gives %v", r.what, r.object, r.score, got)
		}
		c.verified++
	}
	c.rescore = nil
}
