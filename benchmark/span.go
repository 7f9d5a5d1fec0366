package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer's public entry point, recorded from
// the harness (spans inside the program are a later issue). Spans of one
// request share Req; Parent names the span that caused this one ("" for a
// root).
//
// Only the root span (the handler call) runs in its real place. The layer
// spans under it are the same request re-executed as direct calls against a
// twin stack, so they are laid back to back from their parent's start: the
// file then reads as one tree per request and self time (below) means the
// same thing at every level.
type span struct {
	Req     int    `json:"req"`
	Name    string `json:"name"`
	Parent  string `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory and writes them once, when the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// root times f in place and records it as request req's root span.
func (t *tracer) root(req int, name string, f func()) span {
	start := time.Now()
	f()
	end := time.Now()
	s := span{Req: req, Name: name, StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds()}
	t.spans = append(t.spans, s)
	return s
}

// child times f (a re-execution of part of parent's work) and records it
// under parent, starting where parent's previously recorded children end.
func (t *tracer) child(parent span, offset *time.Duration, name string, f func()) span {
	start := time.Now()
	f()
	return t.lay(parent, offset, name, time.Since(start))
}

// lay records a child of parent lasting d, measured elsewhere, at *offset
// from parent's start, and advances the offset past it.
func (t *tracer) lay(parent span, offset *time.Duration, name string, d time.Duration) span {
	s := span{Req: parent.Req, Name: name, Parent: parent.Name,
		StartNS: parent.StartNS + offset.Nanoseconds(), EndNS: parent.StartNS + (*offset + d).Nanoseconds()}
	*offset += d
	t.spans = append(t.spans, s)
	return s
}

// selfTime is a span's duration minus the part of its interval its children
// cover: overlapping children are counted once (union), and a child reaching
// outside the parent is clipped to it.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := c.StartNS, c.EndNS
		if lo < parent.StartNS {
			lo = parent.StartNS
		}
		if hi > parent.EndNS {
			hi = parent.EndNS
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var covered, end int64
	end = parent.StartNS
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			covered += v.hi - end
			end = v.hi
		}
	}
	return time.Duration(parent.EndNS - parent.StartNS - covered)
}

// selfTimes returns, for every recorded span called name, its self time
// given the spans that name it as parent within the same request.
func (t *tracer) selfTimes(name string) []time.Duration {
	type key struct {
		req    int
		parent string
	}
	kids := map[key][]span{}
	for _, s := range t.spans {
		if s.Parent != "" {
			k := key{s.Req, s.Parent}
			kids[k] = append(kids[k], s)
		}
	}
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, selfTime(s, kids[key{s.Req, s.Name}]))
		}
	}
	return out
}

// durations returns the duration of every span called name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
