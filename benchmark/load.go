package main

import (
	"bytes"
	"net/http"
	"runtime"
	"sync"
	"time"
)

// senders is how many goroutines generate load: the box's cores up to 4.
// Load is generated from this one process, beside the program under test, so
// more senders than cores would only measure the Go scheduler.
func senders() int {
	if n := runtime.GOMAXPROCS(0); n < 4 {
		return n
	}
	return 4
}

// recorder is the in-process http.ResponseWriter: requests go through
// Routes().ServeHTTP, no sockets.
type recorder struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.hdr }
func (r *recorder) WriteHeader(c int) {
	if r.code == 0 {
		r.code = c
	}
}
func (r *recorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.body.Write(p)
}
func (r *recorder) reset() {
	r.hdr = http.Header{}
	r.code = 0
	r.body.Reset()
}

// do sends one op through h and returns the status and response body (valid
// until rec's next use).
func do(h http.Handler, rec *recorder, o *op) (int, []byte) {
	req, err := http.NewRequest(http.MethodPost, o.Kind.path(), bytes.NewReader(o.Body))
	if err != nil {
		panic(err) // static method and path: only a harness bug can get here
	}
	rec.reset()
	h.ServeHTTP(rec, req)
	if rec.code == 0 {
		rec.code = http.StatusOK
	}
	return rec.code, rec.body.Bytes()
}

// sample is one executed op's timing, offsets from the phase start.
type sample struct {
	kind   opKind
	sender int
	filler bool
	due    time.Duration // == start for filler ops
	start  time.Duration
	end    time.Duration
	// idle: a sender was waiting for this op's due time and nothing else was
	// in flight when it woke, so start-due is the generator's own wake-up
	// lateness. Otherwise the op waited for a sender or for a core the
	// program was using — queueing the open loop is meant to show, and part
	// of its latency.
	idle bool
	// probe is how long the host-speed probe this sender ran right after the
	// op took (after end was stamped); 0 when it ran none.
	probe  time.Duration
	status int
	bytes  int
}

func (s sample) ok() bool { return s.status >= 200 && s.status < 300 }

// latency is due → response complete for scheduled ops.
func (s sample) latency() time.Duration { return s.end - s.due }

// phaseResult is what driving one phase produced.
type phaseResult struct {
	phase   *phase
	samples []sample
	wall    time.Duration
	// fillerExhausted: the closed loop ran out of prepared ops before its
	// time was up, so its throughput is understated.
	fillerExhausted bool
}

// counts returns how many ops the phase attempted and how many of them
// failed (a shed or refused request counts as failed).
func (r phaseResult) counts() (attempted, failed int) {
	for _, s := range r.samples {
		if !s.ok() {
			failed++
		}
	}
	return len(r.samples), failed
}

// latencies collects due→done of the successful scheduled ops of one kind.
func (r phaseResult) latencies(kind opKind) []time.Duration {
	var out []time.Duration
	for _, s := range r.samples {
		if s.kind == kind && !s.filler && s.ok() {
			out = append(out, s.latency())
		}
	}
	return out
}

// fillerDone counts the closed-loop ops that completed successfully inside
// the phase's duration.
func (r phaseResult) fillerDone() int {
	n := 0
	for _, s := range r.samples {
		if s.filler && s.ok() && s.end <= r.phase.Duration {
			n++
		}
	}
	return n
}

// cycles lists the closed-loop cycle times: from one filler op's start to
// the same sender's next start, so the harness's own work between two
// requests is inside the cycle. A cycle containing a scheduled op, a failure
// or a host-speed probe is dropped. samples holds each sender's ops in the
// order it ran them.
func (r phaseResult) cycles() []time.Duration {
	last := map[int]sample{}
	var out []time.Duration
	for _, s := range r.samples {
		if prev, ok := last[s.sender]; ok && prev.filler && prev.ok() && prev.probe == 0 && s.filler {
			out = append(out, s.start-prev.start)
		}
		last[s.sender] = s
	}
	return out
}

// hostFactor is how much slower than nominal the host ran during the phase:
// the median of the probes its senders ran between ops.
func (r phaseResult) hostFactor() float64 {
	var probes []time.Duration
	for _, s := range r.samples {
		if s.probe > 0 {
			probes = append(probes, s.probe)
		}
	}
	return hostFactor(probes)
}

// idleLags lists the generator's wake-up lateness per op it was waiting for.
func (r phaseResult) idleLags() []time.Duration {
	var out []time.Duration
	for _, s := range r.samples {
		if s.idle {
			out = append(out, s.start-s.due)
		}
	}
	return out
}

// spinMargin is how much of a wait is spent yielding in a loop instead of
// sleeping: this sandbox's timers overshoot a sleep by 0.25 ms at the median
// and 1 ms at p95, a tenth of the latencies being measured.
const spinMargin = 600 * time.Microsecond

// awaitDue waits d, sleeping for all but the last spinMargin.
func awaitDue(d time.Duration) {
	until := time.Now().Add(d)
	if d > spinMargin {
		time.Sleep(d - spinMargin)
	}
	for time.Now().Before(until) {
		runtime.Gosched()
	}
}

// probeEvery: a sender runs the host-speed probe after every scheduled op
// (the open loop leaves the cores idle between requests) and after every
// probeEvery-th filler op (3 % of a closed loop's time).
const probeEvery = 8

// drive runs one phase: n senders claim scheduled ops in due order, sleeping
// until the next is due, and fill the gaps with filler ops while the phase's
// duration lasts. onResp sees every response on the sender's goroutine after
// the op's end time is stamped and the probe, if one is due, has run.
func drive(h http.Handler, ph *phase, n int, onResp func(o *op, status int, body []byte)) phaseResult {
	var (
		mu     sync.Mutex
		si, fi int
		wg     sync.WaitGroup
		all    = make([][]sample, n)
		// inflight counts requests inside ServeHTTP; read under mu at claim
		// time, which is when a woken sender learns whether it had the box
		// to itself.
		inflight int
	)
	start := time.Now()
	// claim hands out the next op, or how long to sleep before asking again;
	// ok=false ends the sender.
	claim := func() (o *op, filler, quiet bool, wait time.Duration, ok bool) {
		mu.Lock()
		defer mu.Unlock()
		now := time.Since(start)
		quiet = inflight == 0
		if si < len(ph.Sched) && ph.Sched[si].Due <= now {
			o = &ph.Sched[si]
			si++
			inflight++
			return o, false, quiet, 0, true
		}
		if fi < len(ph.Filler) && now < ph.Duration {
			o = &ph.Filler[fi]
			fi++
			inflight++
			return o, true, quiet, 0, true
		}
		if si < len(ph.Sched) {
			return nil, false, false, ph.Sched[si].Due - now, true
		}
		return nil, false, false, 0, false
	}
	done := func() {
		mu.Lock()
		inflight--
		mu.Unlock()
	}
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rec := &recorder{}
			slept := false
			fillers := 0
			for {
				o, filler, quiet, wait, ok := claim()
				if !ok {
					return
				}
				if o == nil {
					awaitDue(wait)
					slept = true
					continue
				}
				s := sample{kind: o.Kind, sender: w, filler: filler, idle: slept && quiet && !filler}
				slept = false
				s.start = time.Since(start)
				s.due = o.Due
				if filler {
					s.due = s.start
				}
				status, body := do(h, rec, o)
				s.end = time.Since(start)
				done()
				s.status, s.bytes = status, len(body)
				if filler {
					fillers++
				}
				if !filler || fillers%probeEvery == 0 {
					s.probe = probe()
				}
				all[w] = append(all[w], s)
				if onResp != nil {
					onResp(o, status, body)
				}
			}
		}(w)
	}
	wg.Wait()
	res := phaseResult{phase: ph, wall: time.Since(start)}
	for _, ss := range all {
		res.samples = append(res.samples, ss...)
	}
	res.fillerExhausted = len(ph.Filler) > 0 && fi >= len(ph.Filler)
	return res
}
