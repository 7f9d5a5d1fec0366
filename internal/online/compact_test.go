package online

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"seqfm/internal/ckpt"
	"seqfm/internal/core"
	"seqfm/internal/feature"
	"seqfm/internal/serve"
	"seqfm/internal/train"
	"seqfm/internal/wal"
)

// compactWALOpts uses tiny segments so a short test stream spans enough
// files for compaction to actually unlink some.
func compactWALOpts() wal.Options {
	return wal.Options{SegmentBytes: 512, FlushInterval: 200 * time.Microsecond}
}

// copyDir copies a flat directory (a WAL dir) for crash-state replays.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompactedRecoveryBitIdentical is the compaction acceptance pin: a
// state checkpoint plus the compacted log suffix recovers bit-identically to
// the uninterrupted run — parameters, served scores, generation ids, stats —
// with dropout and negative sampling active. The compacted prefix is gone
// from disk; everything it would have rebuilt comes from the checkpoint.
func TestCompactedRecoveryBitIdentical(t *testing.T) {
	ds := testDataset(t)
	events := makeRCEvents(ds, 4242, 60)
	syncAt := map[int]bool{13: true, 26: true, 39: true, 52: true, 60: true}
	cfg := func(log *wal.Log) Config {
		return Config{
			Train:     train.Config{Seed: 23, Workers: 2, LR: 0.03, Negatives: 2},
			BatchSize: 8,
			Log:       log,
		}
	}
	const compactAt, crashAt = 26, 45

	// Uninterrupted reference run.
	logU, err := wal.Open(filepath.Join(t.TempDir(), "walU"), compactWALOpts())
	if err != nil {
		t.Fatal(err)
	}
	engU := serve.NewEngine(testModel(t, ds, 0.8).Clone(), serve.Config{Workers: 1})
	defer engU.Close()
	lU, err := NewLearner(testModel(t, ds, 0.8), ds, engU, cfg(logU))
	if err != nil {
		t.Fatal(err)
	}
	driveRun(t, lU, events, 0, len(events), syncAt, 0)
	logU.Close()

	// Compacted run: identical stream, but at compactAt a state checkpoint
	// is written and the log compacted below its cut; then the process dies
	// at crashAt.
	dirC := filepath.Join(t.TempDir(), "walC")
	snapPath := filepath.Join(t.TempDir(), "state.ckpt")
	logC, err := wal.Open(dirC, compactWALOpts())
	if err != nil {
		t.Fatal(err)
	}
	engC := serve.NewEngine(testModel(t, ds, 0.8).Clone(), serve.Config{Workers: 1})
	defer engC.Close()
	lC, err := NewLearner(testModel(t, ds, 0.8), ds, engC, cfg(logC))
	if err != nil {
		t.Fatal(err)
	}
	driveRun(t, lC, events, 0, compactAt, syncAt, 0)
	st, err := lC.CheckpointAndCompact(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if st.Removed == 0 {
		t.Fatal("compaction removed nothing; the test no longer exercises the compacted path")
	}
	if logC.FirstSeq() == 1 {
		t.Fatal("log still starts at seq 1 after compaction")
	}
	driveRun(t, lC, events, compactAt, crashAt, syncAt, 0)
	logC.Close() // crash

	// Recovery: the full-log prefix no longer exists anywhere on disk; the
	// state checkpoint plus the suffix must reproduce the run exactly.
	logR, err := wal.Open(dirC, compactWALOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer logR.Close()
	mR, fR, err := ckpt.LoadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if fR.State == nil {
		t.Fatal("state checkpoint carries no LiveState")
	}
	engR := serve.NewEngine(mR.Clone(), serve.Config{Workers: 1})
	defer engR.Close()
	lR, err := NewLearnerFromSnapshot(mR, fR, ds, engR, cfg(logR))
	if err != nil {
		t.Fatal(err)
	}
	rst, err := lR.ReplayLog()
	if err != nil {
		t.Fatal(err)
	}
	if rst.FirstSeq <= 1 {
		t.Fatalf("replay saw FirstSeq %d; expected a compacted log", rst.FirstSeq)
	}
	if rst.SkippedSteps != 0 {
		// Everything at or below the cut is inside the checkpoint, not the
		// log; every surviving step marker re-trains.
		t.Fatalf("replay of a compacted suffix skipped %d steps", rst.SkippedSteps)
	}
	// Recovery replays exactly the suffix past the checkpoint's cut, which is
	// strictly fewer records than a full-log replay of the same stream.
	// Records between FirstSeq and the cut survive on disk (compaction
	// unlinks whole sealed segments) but are covered by the checkpoint.
	if last, cut := logR.Pos().Seq, fR.Log.Seq; uint64(rst.Records) != last-cut || uint64(rst.Records) >= last {
		t.Fatalf("replayed %d records; want the %d past cut %d of a log ending at seq %d", rst.Records, last-cut, cut, last)
	}
	driveRun(t, lR, events, crashAt, len(events), syncAt, 0)

	assertParamsEqual(t, lU.model, lR.model, "compacted recovery vs uninterrupted")
	if gu, gr := engU.Generation(), engR.Generation(); gu != gr {
		t.Fatalf("generation diverged: uninterrupted %d, compacted-recovered %d", gu, gr)
	}
	inst := feature.Instance{User: 2, Target: 5, Hist: []int{1, 2, 3}, UserAttr: feature.Pad, TargetAttr: feature.Pad}
	if a, b := engU.ScoreBatch([]feature.Instance{inst})[0], engR.ScoreBatch([]feature.Instance{inst})[0]; a != b {
		t.Fatalf("served scores diverge: %v != %v", a, b)
	}
	su, sr := lU.Stats(), lR.Stats()
	if su.Steps != sr.Steps || su.Ingested != sr.Ingested || su.AppliedSeq != sr.AppliedSeq {
		t.Fatalf("stats diverge: uninterrupted %+v, recovered %+v", su, sr)
	}
	// Histories agree user by user — the checkpoint's store import plus
	// suffix replay equals the uninterrupted store.
	for u := 0; u < ds.NumUsers; u++ {
		hu, hr := lU.History(u), lR.History(u)
		if len(hu) != len(hr) {
			t.Fatalf("user %d history length %d != %d", u, len(hu), len(hr))
		}
		for i := range hu {
			if hu[i] != hr[i] {
				t.Fatalf("user %d history diverges at %d", u, i)
			}
		}
	}
}

// TestCompactionCrashInterleavingsStayRecoverable enumerates the crash
// points of CheckpointAndCompact — after the checkpoint is durable but
// before, between, and after each segment unlink — and asserts every one of
// them recovers bit-identically to the uninterrupted run. (A crash *before*
// the checkpoint rename leaves the old snapshot + full log, which is the
// ordinary recovery path pinned elsewhere.)
func TestCompactionCrashInterleavingsStayRecoverable(t *testing.T) {
	ds := testDataset(t)
	events := makeRCEvents(ds, 909, 40)
	syncAt := map[int]bool{10: true, 20: true, 30: true, 40: true}
	// Even tinier segments than compactWALOpts: the cut must cover several
	// sealed files so the unlink loop has distinct crash points.
	opts := wal.Options{SegmentBytes: 256, FlushInterval: 200 * time.Microsecond}
	cfg := func(log *wal.Log) Config {
		return Config{
			Train:     train.Config{Seed: 7, Workers: 1, LR: 0.02, Negatives: 1},
			BatchSize: 8,
			Log:       log,
		}
	}
	const cutAt = 30

	// Reference run, uninterrupted and uncompacted.
	logU, err := wal.Open(filepath.Join(t.TempDir(), "walU"), opts)
	if err != nil {
		t.Fatal(err)
	}
	engU := serve.NewEngine(testModel(t, ds, 1).Clone(), serve.Config{Workers: 1})
	defer engU.Close()
	lU, err := NewLearner(testModel(t, ds, 1), ds, engU, cfg(logU))
	if err != nil {
		t.Fatal(err)
	}
	driveRun(t, lU, events, 0, len(events), syncAt, 0)
	logU.Close()

	// Victim run: checkpoint at the cut (no compaction yet — the unlinks
	// are simulated per crash state below), then run to the end and "crash".
	dirV := filepath.Join(t.TempDir(), "walV")
	snapV := filepath.Join(t.TempDir(), "state.ckpt")
	logV, err := wal.Open(dirV, opts)
	if err != nil {
		t.Fatal(err)
	}
	engV := serve.NewEngine(testModel(t, ds, 1).Clone(), serve.Config{Workers: 1})
	defer engV.Close()
	lV, err := NewLearner(testModel(t, ds, 1), ds, engV, cfg(logV))
	if err != nil {
		t.Fatal(err)
	}
	driveRun(t, lV, events, 0, cutAt, syncAt, 0)
	if err := lV.CheckpointStateFile(snapV); err != nil {
		t.Fatal(err)
	}
	cut := lV.Stats().SnapshotSeq
	driveRun(t, lV, events, cutAt, len(events), syncAt, 0)
	logV.Close()

	// Probe how many segments a completed Compact(cut) would unlink.
	probeDir := t.TempDir()
	copyDir(t, dirV, probeDir)
	lp, err := wal.Open(probeDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	cst, err := lp.Compact(cut)
	if err != nil {
		t.Fatal(err)
	}
	lp.Close()
	if cst.Removed < 2 {
		t.Fatalf("probe removed %d segments; need >= 2 to cover distinct interleavings", cst.Removed)
	}

	// k = 0: crash right after the checkpoint fsync, before any unlink.
	// 0 < k < Removed: crash mid-loop. k = Removed: crash after the last
	// unlink (before or after the dir fsync — same visible state once the
	// names are gone).
	for k := 0; k <= cst.Removed; k++ {
		k := k
		t.Run(fmt.Sprintf("unlinked=%d", k), func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, dirV, dir)
			names, err := filepath.Glob(filepath.Join(dir, "*.wal"))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < k; i++ {
				if err := os.Remove(names[i]); err != nil {
					t.Fatal(err)
				}
			}
			logR, err := wal.Open(dir, opts)
			if err != nil {
				t.Fatalf("recovery open: %v", err)
			}
			defer logR.Close()
			mR, fR, err := ckpt.LoadFile(snapV)
			if err != nil {
				t.Fatal(err)
			}
			engR := serve.NewEngine(mR.Clone(), serve.Config{Workers: 1})
			defer engR.Close()
			lR, err := NewLearnerFromSnapshot(mR, fR, ds, engR, cfg(logR))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := lR.ReplayLog(); err != nil {
				t.Fatal(err)
			}
			assertParamsEqual(t, lU.model, lR.model, fmt.Sprintf("crash state k=%d", k))
			if gu, gr := engU.Generation(), engR.Generation(); gu != gr {
				t.Fatalf("generation diverged: %d != %d", gu, gr)
			}
			inst := feature.Instance{User: 1, Target: 9, Hist: []int{2, 4}, UserAttr: feature.Pad, TargetAttr: feature.Pad}
			if a, b := engU.ScoreBatch([]feature.Instance{inst})[0], engR.ScoreBatch([]feature.Instance{inst})[0]; a != b {
				t.Fatalf("served scores diverge: %v != %v", a, b)
			}
		})
	}
}

// TestReplayRefusesOvercompactedLog pins the loud-failure contract: a log
// whose surviving records start beyond what the snapshot covers must be
// rejected, not silently replayed with a hole.
func TestReplayRefusesOvercompactedLog(t *testing.T) {
	ds := testDataset(t)
	events := makeRCEvents(ds, 31, 30)
	syncAt := map[int]bool{10: true, 20: true, 30: true}
	dir := filepath.Join(t.TempDir(), "wal")
	log1, err := wal.Open(dir, compactWALOpts())
	if err != nil {
		t.Fatal(err)
	}
	eng1 := serve.NewEngine(testModel(t, ds, 1).Clone(), serve.Config{Workers: 1})
	defer eng1.Close()
	l1, err := NewLearner(testModel(t, ds, 1), ds, eng1, Config{BatchSize: 8, Log: log1})
	if err != nil {
		t.Fatal(err)
	}
	// Plain (stateless) checkpoint early, then much more traffic, then
	// compact far beyond what the plain snapshot's position covers.
	driveRun(t, l1, events, 0, 10, syncAt, 0)
	snapPath := filepath.Join(t.TempDir(), "plain.ckpt")
	if err := l1.CheckpointFile(snapPath); err != nil {
		t.Fatal(err)
	}
	driveRun(t, l1, events, 10, len(events), syncAt, 0)
	statePath := filepath.Join(t.TempDir(), "state.ckpt")
	if _, err := l1.CheckpointAndCompact(statePath); err != nil {
		t.Fatal(err)
	}
	if log1.FirstSeq() == 1 {
		t.Skip("stream too short to compact; nothing to assert")
	}
	log1.Close()

	log2, err := wal.Open(dir, compactWALOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	m2, f2, err := ckpt.LoadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	eng2 := serve.NewEngine(m2.Clone(), serve.Config{Workers: 1})
	defer eng2.Close()
	l2, err := NewLearnerFromSnapshot(m2, f2, ds, eng2, Config{BatchSize: 8, Log: log2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l2.ReplayLog(); err == nil {
		t.Fatal("replay accepted a log compacted beyond the snapshot's coverage")
	} else if !strings.Contains(err.Error(), "snapshot covers only") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestFollowerBootstrapsFromCompactedPrimary pins the snapshot+suffix
// bootstrap: after the primary compacts its log, a brand-new follower can
// still be built purely over HTTP — the state snapshot covers the discarded
// prefix and the tail loop starts beyond it.
func TestFollowerBootstrapsFromCompactedPrimary(t *testing.T) {
	ds := testDataset(t)
	// Small segments so the checkpoint-compact below actually drops files;
	// otherwise the test degrades to the uncompacted bootstrap path.
	logP, err := wal.Open(filepath.Join(t.TempDir(), "wal"), compactWALOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer logP.Close()
	engP := serve.NewEngine(testModel(t, ds, 0.9).Clone(), serve.Config{Workers: 1})
	defer engP.Close()
	lP, err := NewLearner(testModel(t, ds, 0.9), ds, engP, Config{
		Train:     train.Config{Seed: 11, Workers: 1, LR: 0.03, Negatives: 2},
		BatchSize: 8,
		Log:       logP,
	})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/replica/snapshot", lP.ServeReplicaSnapshot)
	mux.HandleFunc("GET /v1/replica/log", lP.ServeReplicaLog)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	for i := 0; i < 30; i++ {
		if err := lP.Ingest(i%ds.NumUsers, (i*5)%ds.NumObjects, 1); err != nil {
			t.Fatal(err)
		}
		if (i+1)%10 == 0 {
			lP.Sync()
		}
	}
	snap := filepath.Join(t.TempDir(), "state.ckpt")
	st, err := lP.CheckpointAndCompact(snap)
	if err != nil {
		t.Fatal(err)
	}
	if st.Removed == 0 {
		t.Fatal("nothing compacted; bootstrap path not exercised")
	}
	// Post-compaction traffic the follower must tail from the suffix.
	for i := 0; i < 5; i++ {
		if err := lP.Ingest(i, 20, 1); err != nil {
			t.Fatal(err)
		}
	}
	lP.Sync()

	m, f, bootGen, err := FetchSnapshot(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	engF := serve.NewEngine(m, serve.Config{Workers: 1})
	defer engF.Close()
	lF, err := NewLearnerFromSnapshot(m, f, ds, engF, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReplica(lF, &HTTPLogSource{Base: srv.URL}, bootGen, ReplicaConfig{})
	if _, err := rep.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if p, f := engP.Generation(), engF.Generation(); p != f {
		t.Fatalf("generation diverged: primary %d, follower %d", p, f)
	}
	assertParamsEqual(t, lP.model, lF.model, "follower of compacted primary")
	for u := 0; u < 5; u++ {
		hp, hf := lP.History(u), lF.History(u)
		if len(hp) != len(hf) {
			t.Fatalf("user %d history length %d != %d", u, len(hp), len(hf))
		}
	}
}

// TestStateCheckpointSeenDeltasRoundTrip pins the two seen deltas a state
// checkpoint carries: they list only objects beyond the dataset logs, each
// once, and restoring them into a fresh learner captures them unchanged.
func TestStateCheckpointSeenDeltasRoundTrip(t *testing.T) {
	ds := testDataset(t)
	dir := filepath.Join(t.TempDir(), "wal")
	cfg := func(log *wal.Log) Config {
		return Config{Train: train.Config{Seed: 5, Workers: 2, LR: 0.03, Negatives: 2}, BatchSize: 8, Log: log}
	}
	capture := func(l *Learner) (*core.Model, *ckpt.File) {
		t.Helper()
		var buf bytes.Buffer
		if err := l.CheckpointState(&buf); err != nil {
			t.Fatal(err)
		}
		m, f, err := ckpt.Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return m, f
	}

	log, err := wal.Open(dir, compactWALOpts())
	if err != nil {
		t.Fatal(err)
	}
	eng := serve.NewEngine(testModel(t, ds, 0.8).Clone(), serve.Config{Workers: 1})
	defer eng.Close()
	l, err := NewLearner(testModel(t, ds, 0.8), ds, eng, cfg(log))
	if err != nil {
		t.Fatal(err)
	}
	// User 2's log holds object 6; users 1 and 4 have never seen 0, 1 or 7.
	for _, ev := range []rcEvent{{2, 6}, {1, 0}, {1, 0}, {4, 1}} {
		if err := l.Ingest(ev.user, ev.object, 1); err != nil {
			t.Fatal(err)
		}
	}
	l.Sync()
	// Ingested but not trained: serving excludes it at once, the sampler
	// only once it is trained.
	if err := l.Ingest(4, 7, 1); err != nil {
		t.Fatal(err)
	}
	m, f := capture(l)
	log.Close()
	first := f.State
	if want := map[int][]int{1: {0}, 4: {1, 7}}; !reflect.DeepEqual(first.SeenDelta, want) {
		t.Fatalf("SeenDelta %v, want %v", first.SeenDelta, want)
	}
	if want := map[int][]int{1: {0}, 4: {1}}; !reflect.DeepEqual(first.SamplerSeenDelta, want) {
		t.Fatalf("SamplerSeenDelta %v, want %v", first.SamplerSeenDelta, want)
	}

	logR, err := wal.Open(dir, compactWALOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer logR.Close()
	engR := serve.NewEngine(m.Clone(), serve.Config{Workers: 1})
	defer engR.Close()
	lR, err := NewLearnerFromSnapshot(m, f, ds, engR, cfg(logR))
	if err != nil {
		t.Fatal(err)
	}
	_, fR := capture(lR)
	if second := fR.State; !reflect.DeepEqual(second.SeenDelta, first.SeenDelta) ||
		!reflect.DeepEqual(second.SamplerSeenDelta, first.SamplerSeenDelta) {
		t.Fatalf("deltas after restore: seen %v sampler %v; captured seen %v sampler %v",
			second.SeenDelta, second.SamplerSeenDelta, first.SeenDelta, first.SamplerSeenDelta)
	}
}
