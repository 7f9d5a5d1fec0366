package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"seqfm/internal/core"
	"seqfm/internal/data"
	"seqfm/internal/feature"
	"seqfm/internal/httpapi"
	"seqfm/internal/index"
	"seqfm/internal/online"
	"seqfm/internal/serve"
	"seqfm/internal/train"
	"seqfm/internal/wal"
)

// warmSteps fine-tune minibatches give the served weights a non-initial
// state (Adam moments, trained projection) before anything is timed. The
// issue's 200 steps cost ~20 s on two cores; 8 is what the per-run budget
// leaves. Scoring cost does not depend on the weights' values.
const (
	warmSteps     = 8
	warmBatch     = 64
	trainWorkers  = 2 // fixed, not GOMAXPROCS: weights are a function of the seed alone
	trainNegs     = 5
	stateCkptName = "state.ckpt"
)

// stack is the production serving stack assembled in-process from the public
// constructors, mirroring `seqfm-serve -index -online -wal DIR -wal-sync
// group` with admission control on.
type stack struct {
	seed int64
	// full is the generated dataset; live is what the server was booted
	// with (full minus held-out tails when the workload replays feedback).
	full, live *data.Dataset
	split      *data.Split
	model      *core.Model // generation 1's weights
	eng        *serve.Engine
	learner    *online.Learner // nil without online
	wal        *wal.Log
	srv        *httpapi.Server
	mux        *http.ServeMux
	dir        string // scratch directory (WAL, checkpoints); "" without online

	generate, splitT time.Duration // data.generate_s, data.split_s of the traced run
}

type stackConfig struct {
	Seed   int64
	Online bool   // learner + WAL under group commit, background trainer started
	Dir    string // scratch directory, required with Online; emptied first
}

func trainConfig(seed int64) train.Config {
	return train.Config{Seed: seed, Workers: trainWorkers, Negatives: trainNegs, Engine: train.EngineCompiled}
}

func engineConfig(ds *data.Dataset, seed int64) serve.Config {
	return serve.Config{Index: &serve.IndexConfig{
		Objects: ds.Objects(),
		Backend: index.BackendHNSW,
		ANN:     index.Config{Seed: seed, BuildWorkers: -1},
	}}
}

// admission mirrors the issue's limits: reads 2·P in flight, 4·P queued;
// feedback P in flight, 4·P queued; 25 ms wait.
func admission() (read, feedback *serve.AdmissionConfig) {
	p := runtime.GOMAXPROCS(0)
	return &serve.AdmissionConfig{MaxConcurrent: 2 * p, MaxQueue: 4 * p, MaxWait: 25 * time.Millisecond},
		&serve.AdmissionConfig{MaxConcurrent: p, MaxQueue: 4 * p, MaxWait: 25 * time.Millisecond}
}

func learnerConfig(seed int64, log *wal.Log) online.Config {
	return online.Config{Train: trainConfig(seed), Log: log}
}

// buildStack is one full set-up: dataset, split, model, warm steps, index
// build, engine, and (with Online) WAL, learner and background trainer.
func buildStack(cfg stackConfig) (*stack, error) {
	s := &stack{seed: cfg.Seed}
	start := time.Now()
	full, err := servingDataset(cfg.Seed)
	if err != nil {
		return nil, err
	}
	s.full, s.live = full, full
	if cfg.Online {
		s.live = withoutTails(full, holdOut)
	}
	s.generate = time.Since(start)

	start = time.Now()
	s.split = data.NewSplit(s.live)
	s.splitT = time.Since(start)

	mc := core.DefaultConfig(s.live.Space())
	mc.Seed = cfg.Seed
	if s.model, err = core.New(mc); err != nil {
		return nil, err
	}
	stepper, err := train.NewStepper(s.model, s.live, data.Ranking, nil, trainConfig(cfg.Seed))
	if err != nil {
		return nil, err
	}
	pick := rand.New(rand.NewSource(cfg.Seed))
	insts := make([]feature.Instance, warmBatch)
	for i := 0; i < warmSteps; i++ {
		for j := range insts {
			insts[j] = s.split.Train[pick.Intn(len(s.split.Train))]
		}
		stepper.Step(insts)
	}
	s.eng = serve.NewEngine(s.model, engineConfig(s.live, cfg.Seed))

	if cfg.Online {
		s.dir = cfg.Dir
		if err := os.RemoveAll(s.dir); err != nil {
			return nil, err
		}
		if s.wal, err = wal.Open(filepath.Join(s.dir, "wal"), wal.Options{Policy: wal.SyncGroup}); err != nil {
			s.close()
			return nil, err
		}
		if s.learner, err = online.NewLearner(s.model, s.live, s.eng, learnerConfig(cfg.Seed, s.wal)); err != nil {
			s.close()
			return nil, err
		}
		s.learner.Start()
	}
	if err := s.serve(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// serve builds the HTTP layer over the stack's current engine and learner.
func (s *stack) serve() error {
	read, feedback := admission()
	srv, err := httpapi.New(httpapi.Config{
		Engine: s.eng, Dataset: s.live, Model: s.model,
		Learner: s.learner, WAL: s.wal,
		ReadAdmission: read, FeedbackAdmission: feedback,
	})
	if err != nil {
		return fmt.Errorf("httpapi: %w", err)
	}
	s.srv, s.mux = srv, srv.Routes()
	return nil
}

// close stops the trainer and releases the engine and log. The scratch
// directory stays: recovery reads it.
func (s *stack) close() {
	if s.learner != nil {
		s.learner.Close()
	}
	if s.wal != nil {
		s.wal.Close()
	}
	if s.eng != nil {
		s.eng.Close()
	}
	s.learner, s.wal, s.eng = nil, nil, nil
}

// settle collects what a torn-down stack left behind and hands the memory
// back, so peak RSS is the peak of one stack at work, not of three stacks'
// garbage piling up at whatever pace the collector happened to run.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// setups is how many times a run assembles its stack; setup_s is the median.
const setups = 3

// setupProbes is how many host-speed probes run before and after each build,
// so that even a build of a few milliseconds has some beside it.
const setupProbes = 10

// setupTime is the median build time of a run: raw, and host-corrected (each
// build divided by the host factor of the probes sampled while it ran and on
// either side of it).
type setupTime struct{ hc, raw time.Duration }

func (t setupTime) record(r *report, n int) {
	r.set("setup_s", "s", t.hc.Seconds(), n)
	r.set("setup_raw_s", "s", t.raw.Seconds(), n)
}

// setupN runs build n times, tearing down all but the last, and returns the
// last result with the median wall time of the builds.
func setupN[T any](n int, build func() (T, error), teardown func(T)) (T, setupTime, error) {
	var last T
	var raw, hc []time.Duration
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown(last)
			var zero T
			last = zero
			settle()
		}
		before := probeBurst(setupProbes)
		stop := sampleHost()
		start := time.Now()
		v, err := build()
		took := time.Since(start)
		during := stop().between(start, start.Add(took))
		if err != nil {
			return last, setupTime{}, err
		}
		raw = append(raw, took)
		hc = append(hc, time.Duration(float64(took)/hostFactor(before, during, probeBurst(setupProbes))))
		last = v
	}
	return last, setupTime{hc: medianDur(hc), raw: medianDur(raw)}, nil
}
