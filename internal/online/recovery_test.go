package online

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"seqfm/internal/core"
	"seqfm/internal/data"
	"seqfm/internal/feature"
	"seqfm/internal/serve"
	"seqfm/internal/train"
	"seqfm/internal/wal"
)

// walOpts keeps group-commit latency negligible in tests.
func walOpts() wal.Options {
	return wal.Options{FlushInterval: 200 * time.Microsecond}
}

type rcEvent struct{ user, object int }

func makeRCEvents(ds *data.Dataset, seed int64, n int) []rcEvent {
	rng := rand.New(rand.NewSource(seed))
	evs := make([]rcEvent, n)
	for i := range evs {
		evs[i] = rcEvent{rng.Intn(ds.NumUsers), rng.Intn(ds.NumObjects)}
	}
	return evs
}

// driveRun ingests events[from:to] into l, calling Sync at every boundary in
// syncAt (1-based event counts). Returns the checkpoint stream captured at
// snapAfter (0 disables), so the caller can recover from mid-run state.
func driveRun(t *testing.T, l *Learner, events []rcEvent, from, to int, syncAt map[int]bool, snapAfter int) *bytes.Buffer {
	t.Helper()
	var snap *bytes.Buffer
	for i := from; i < to; i++ {
		if err := l.Ingest(events[i].user, events[i].object, 1); err != nil {
			t.Fatal(err)
		}
		if syncAt[i+1] {
			l.Sync()
			if i+1 == snapAfter {
				snap = &bytes.Buffer{}
				if err := l.Checkpoint(snap); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return snap
}

func assertParamsEqual(t *testing.T, a, b *core.Model, label string) {
	t.Helper()
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		for j, v := range pa[i].Value.Data {
			if pb[i].Value.Data[j] != v {
				t.Fatalf("%s: param %s[%d]: %v != %v", label, pa[i].Name, j, pb[i].Value.Data[j], v)
			}
		}
	}
}

// TestCrashRecoveryBitIdentical is the acceptance pin: killing a WAL-backed
// learner mid-stream and recovering from snapshot + log-suffix replay must
// reproduce the uninterrupted run exactly — parameters, served scores and
// generation ids — at multiple worker counts, with dropout and negative
// sampling active.
func TestCrashRecoveryBitIdentical(t *testing.T) {
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ds := testDataset(t)
			events := makeRCEvents(ds, 777, 60)
			syncAt := map[int]bool{13: true, 26: true, 39: true, 52: true, 60: true}
			cfg := func(log *wal.Log) Config {
				return Config{
					Train:     train.Config{Seed: 19, Workers: workers, LR: 0.03, Negatives: 2},
					BatchSize: 8,
					Log:       log,
				}
			}
			const crashAt, snapAfter = 45, 26

			// Uninterrupted reference run.
			logU, err := wal.Open(filepath.Join(t.TempDir(), "walU"), walOpts())
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

			// Crashed run: identical prefix, then the process dies. Every
			// Ingest that returned is durable by contract; Close flushes the
			// marker tail the same way the group-commit window would have
			// within FlushInterval.
			dirC := filepath.Join(t.TempDir(), "walC")
			logC, err := wal.Open(dirC, walOpts())
			if err != nil {
				t.Fatal(err)
			}
			engC := serve.NewEngine(testModel(t, ds, 0.8).Clone(), serve.Config{Workers: 1})
			defer engC.Close()
			lC, err := NewLearner(testModel(t, ds, 0.8), ds, engC, cfg(logC))
			if err != nil {
				t.Fatal(err)
			}
			snap := driveRun(t, lC, events, 0, crashAt, syncAt, snapAfter)
			if snap == nil {
				t.Fatal("no snapshot captured")
			}
			logC.Close() // crash

			// Recovery: reopen the log, restore the snapshot, replay the
			// suffix through the normal ingest path, then continue the
			// stream exactly as the uninterrupted run did.
			logR, err := wal.Open(dirC, walOpts())
			if err != nil {
				t.Fatal(err)
			}
			defer logR.Close()
			if logR.Truncated() {
				t.Fatal("clean crash reported a torn tail")
			}
			engR := serve.NewEngine(testModel(t, ds, 0.8).Clone(), serve.Config{Workers: 1})
			defer engR.Close()
			lR, err := NewLearnerFromCheckpoint(bytes.NewReader(snap.Bytes()), ds, engR, cfg(logR))
			if err != nil {
				t.Fatal(err)
			}
			st, err := lR.ReplayLog()
			if err != nil {
				t.Fatal(err)
			}
			if st.Events != crashAt {
				t.Fatalf("replayed %d events, want %d", st.Events, crashAt)
			}
			if st.SkippedSteps == 0 || st.Steps == 0 {
				t.Fatalf("replay should both skip snapshot-covered steps and re-train the suffix: %+v", st)
			}
			driveRun(t, lR, events, crashAt, len(events), syncAt, 0)

			assertParamsEqual(t, lU.model, lR.model, "recovered vs uninterrupted")
			if gu, gr := engU.Generation(), engR.Generation(); gu != gr {
				t.Fatalf("generation diverged: uninterrupted %d, recovered %d", gu, gr)
			}
			inst := feature.Instance{User: 2, Target: 5, Hist: []int{1, 2, 3}, UserAttr: feature.Pad, TargetAttr: feature.Pad}
			if a, b := engU.ScoreBatch([]feature.Instance{inst})[0], engR.ScoreBatch([]feature.Instance{inst})[0]; a != b {
				t.Fatalf("served scores diverge: %v != %v", a, b)
			}
			// The learners agree on durability accounting too.
			su, sr := lU.Stats(), lR.Stats()
			if su.Steps != sr.Steps || su.Ingested != sr.Ingested || su.AppliedSeq != sr.AppliedSeq {
				t.Fatalf("stats diverge: uninterrupted %+v, recovered %+v", su, sr)
			}
		})
	}
}

// TestRecoveryWithoutSnapshotRetrainsWholeLog pins the no-snapshot path: a
// fresh learner replaying the full log from scratch reproduces the original
// run exactly (every step marker re-trains).
func TestRecoveryWithoutSnapshotRetrainsWholeLog(t *testing.T) {
	ds := testDataset(t)
	events := makeRCEvents(ds, 55, 30)
	syncAt := map[int]bool{10: true, 21: true, 30: true}
	mk := func(log *wal.Log) (*Learner, *serve.Engine) {
		eng := serve.NewEngine(testModel(t, ds, 0.9).Clone(), serve.Config{Workers: 1})
		l, err := NewLearner(testModel(t, ds, 0.9), ds, eng, Config{
			Train: train.Config{Seed: 5, Workers: 2, LR: 0.02, Negatives: 1}, BatchSize: 4, Log: log,
		})
		if err != nil {
			t.Fatal(err)
		}
		return l, eng
	}
	dir := filepath.Join(t.TempDir(), "wal")
	log1, err := wal.Open(dir, walOpts())
	if err != nil {
		t.Fatal(err)
	}
	l1, eng1 := mk(log1)
	defer eng1.Close()
	driveRun(t, l1, events, 0, len(events), syncAt, 0)
	log1.Close()

	log2, err := wal.Open(dir, walOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	l2, eng2 := mk(log2)
	defer eng2.Close()
	st, err := l2.ReplayLog()
	if err != nil {
		t.Fatal(err)
	}
	if st.SkippedSteps != 0 || st.Steps == 0 {
		t.Fatalf("full replay stats %+v", st)
	}
	assertParamsEqual(t, l1.model, l2.model, "full-log replay")
	if eng1.Generation() != eng2.Generation() {
		t.Fatalf("generations diverge: %d != %d", eng1.Generation(), eng2.Generation())
	}
}

// TestTornTailRecoveryIsDeterministicAndReported pins the torn-write
// contract end to end: chop the crashed log mid-frame, recover twice — both
// recoveries must agree bit-for-bit with each other, report the same
// recovered position, and leave a fully functional learner.
func TestTornTailRecoveryIsDeterministicAndReported(t *testing.T) {
	ds := testDataset(t)
	events := makeRCEvents(ds, 99, 40)
	syncAt := map[int]bool{11: true, 23: true, 34: true}
	dir := filepath.Join(t.TempDir(), "wal")
	log1, err := wal.Open(dir, walOpts())
	if err != nil {
		t.Fatal(err)
	}
	eng1 := serve.NewEngine(testModel(t, ds, 1).Clone(), serve.Config{Workers: 1})
	defer eng1.Close()
	l1, err := NewLearner(testModel(t, ds, 1), ds, eng1, Config{
		Train: train.Config{Seed: 3, Workers: 1, LR: 0.05, Negatives: 1}, BatchSize: 8, Log: log1,
	})
	if err != nil {
		t.Fatal(err)
	}
	driveRun(t, l1, events, 0, len(events), syncAt, 0)
	log1.Close()

	// Tear the tail mid-frame (the last segment file; skip wal.lock).
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var tail string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".wal") {
			tail = filepath.Join(dir, e.Name())
		}
	}
	if tail == "" {
		t.Fatal("no segment files")
	}
	info, err := os.Stat(tail)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(tail, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	recover := func(wantTorn bool) (*Learner, *wal.Log, ReplayStats, wal.Pos) {
		log, err := wal.Open(dir, walOpts())
		if err != nil {
			t.Fatal(err)
		}
		if log.Truncated() != wantTorn {
			t.Fatalf("Truncated() = %v, want %v", log.Truncated(), wantTorn)
		}
		eng := serve.NewEngine(testModel(t, ds, 1).Clone(), serve.Config{Workers: 1})
		t.Cleanup(eng.Close)
		l, err := NewLearner(testModel(t, ds, 1), ds, eng, Config{
			Train: train.Config{Seed: 3, Workers: 1, LR: 0.05, Negatives: 1}, BatchSize: 8, Log: log,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := l.ReplayLog()
		if err != nil {
			t.Fatal(err)
		}
		return l, log, st, log.Recovered()
	}
	// The first recovery reports the damage and repairs the directory
	// (truncate-at-first-bad-frame); the second — after the first releases
	// the directory lock — starts from the repaired state and must land on
	// the identical position and parameters.
	lA, logA, stA, posA := recover(true)
	logA.Close() // release the single-owner lock for the next recovery
	lB, logB, stB, posB := recover(false)
	defer logB.Close()
	if posA != posB {
		t.Fatalf("recovered positions differ: %+v vs %+v", posA, posB)
	}
	if stA != stB {
		t.Fatalf("replay stats differ: %+v vs %+v", stA, stB)
	}
	if stA.Events >= len(events) {
		t.Fatalf("truncation lost nothing? replayed %d of %d events", stA.Events, len(events))
	}
	assertParamsEqual(t, lA.model, lB.model, "repeated torn-tail recovery")

	// The recovered learner stays fully usable: ingest and train onward.
	if err := lB.Ingest(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	if n, _ := lB.Sync(); n == 0 {
		t.Fatal("post-recovery Sync trained nothing")
	}
}

// TestWALDropMarkersReplayQueueOverflow pins the Drop-marker path: a run
// whose queue overflowed (dropping untrained events) replays to the same
// state, even though replay itself never applies the live MaxPending policy.
func TestWALDropMarkersReplayQueueOverflow(t *testing.T) {
	ds := testDataset(t)
	events := makeRCEvents(ds, 31, 30)
	dir := filepath.Join(t.TempDir(), "wal")
	log1, err := wal.Open(dir, walOpts())
	if err != nil {
		t.Fatal(err)
	}
	mk := func(log *wal.Log) (*Learner, *serve.Engine) {
		eng := serve.NewEngine(testModel(t, ds, 1).Clone(), serve.Config{Workers: 1})
		t.Cleanup(eng.Close)
		l, err := NewLearner(testModel(t, ds, 1), ds, eng, Config{
			Train:      train.Config{Seed: 9, Workers: 1, LR: 0.05, Negatives: 1},
			BatchSize:  4,
			MaxPending: 6, // force overflow drops before the first Sync
			Log:        log,
		})
		if err != nil {
			t.Fatal(err)
		}
		return l, eng
	}
	l1, eng1 := mk(log1)
	for _, ev := range events[:20] {
		if err := l1.Ingest(ev.user, ev.object, 1); err != nil {
			t.Fatal(err)
		}
	}
	l1.Sync()
	for _, ev := range events[20:] {
		if err := l1.Ingest(ev.user, ev.object, 1); err != nil {
			t.Fatal(err)
		}
	}
	l1.Sync()
	if l1.Stats().Dropped == 0 {
		t.Fatal("precondition: no drops happened")
	}
	log1.Close()

	log2, err := wal.Open(dir, walOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	l2, eng2 := mk(log2)
	st, err := l2.ReplayLog()
	if err != nil {
		t.Fatal(err)
	}
	if st.Drops == 0 {
		t.Fatal("replay applied no drop markers")
	}
	assertParamsEqual(t, l1.model, l2.model, "overflow replay")
	if s1, s2 := l1.Stats(), l2.Stats(); s1.Dropped != s2.Dropped || s1.Steps != s2.Steps {
		t.Fatalf("stats diverge: %+v vs %+v", s1, s2)
	}
	if eng1.Generation() != eng2.Generation() {
		t.Fatalf("generations diverge: %d != %d", eng1.Generation(), eng2.Generation())
	}
}

// TestReplayLogRefusesAfterLiveTraffic pins the misuse guard: replaying
// onto a learner that already ingested or trained would double-apply the
// log, so it must fail loudly instead.
func TestReplayLogRefusesAfterLiveTraffic(t *testing.T) {
	ds := testDataset(t)
	log, err := wal.Open(filepath.Join(t.TempDir(), "wal"), walOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	eng := serve.NewEngine(testModel(t, ds, 1).Clone(), serve.Config{Workers: 1})
	defer eng.Close()
	l, err := NewLearner(testModel(t, ds, 1), ds, eng, Config{
		Train: train.Config{Seed: 1, Workers: 1, LR: 0.01, Negatives: 1}, Log: log,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Ingest(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := l.ReplayLog(); err == nil {
		t.Fatal("ReplayLog after live Ingest accepted")
	}

	// A fresh learner replays once; a second replay is refused.
	log2, err := wal.Open(filepath.Join(t.TempDir(), "wal2"), walOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	eng2 := serve.NewEngine(testModel(t, ds, 1).Clone(), serve.Config{Workers: 1})
	defer eng2.Close()
	l2, err := NewLearner(testModel(t, ds, 1), ds, eng2, Config{
		Train: train.Config{Seed: 1, Workers: 1, LR: 0.01, Negatives: 1}, Log: log2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l2.ReplayLog(); err != nil {
		t.Fatal(err)
	}
	if _, err := l2.ReplayLog(); err == nil {
		t.Fatal("second ReplayLog accepted")
	}
}

// TestDropMarkerRacingInFlightStepReplays pins the ordering fix for drops
// that race an in-flight training batch: the trainer drains a batch, a
// concurrent ingest overflows the queue (logging the Drop marker *before*
// the batch's Step marker), and replay must still reconstruct the exact
// state — the Drop's explicit [From, Through] range keeps it from evicting
// the in-flight batch's events.
func TestDropMarkerRacingInFlightStepReplays(t *testing.T) {
	ds := testDataset(t)
	dir := filepath.Join(t.TempDir(), "wal")
	mk := func(log *wal.Log) (*Learner, *serve.Engine) {
		eng := serve.NewEngine(testModel(t, ds, 1).Clone(), serve.Config{Workers: 1})
		t.Cleanup(eng.Close)
		l, err := NewLearner(testModel(t, ds, 1), ds, eng, Config{
			Train:      train.Config{Seed: 13, Workers: 1, LR: 0.05, Negatives: 1},
			BatchSize:  2,
			MaxPending: 4,
			Log:        log,
		})
		if err != nil {
			t.Fatal(err)
		}
		return l, eng
	}
	log1, err := wal.Open(dir, walOpts())
	if err != nil {
		t.Fatal(err)
	}
	l1, eng1 := mk(log1)
	// Two events enter and are drained by the "trainer" — but its Step has
	// not run (no marker yet).
	for i := 0; i < 2; i++ {
		if err := l1.Ingest(i, i+1, 1); err != nil {
			t.Fatal(err)
		}
	}
	inFlight := l1.drain(2)
	// Concurrent ingest overflows MaxPending: Drop markers are logged now,
	// sequenced before the in-flight batch's Step marker.
	for i := 0; i < 7; i++ {
		if err := l1.Ingest((i+3)%ds.NumUsers, (i*5)%ds.NumObjects, 1); err != nil {
			t.Fatal(err)
		}
	}
	if l1.Stats().Dropped == 0 {
		t.Fatal("precondition: queue never overflowed")
	}
	// The in-flight batch completes: its Step marker lands after the Drops.
	l1.trainMu.Lock()
	l1.stepBatch(inFlight)
	l1.trainMu.Unlock()
	l1.Sync() // train the remaining queue
	log1.Close()

	log2, err := wal.Open(dir, walOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	l2, eng2 := mk(log2)
	st, err := l2.ReplayLog()
	if err != nil {
		t.Fatalf("replay failed on drop/step interleaving: %v", err)
	}
	if st.Drops == 0 {
		t.Fatal("no drop markers replayed")
	}
	assertParamsEqual(t, l1.model, l2.model, "drop-race replay")
	s1, s2 := l1.Stats(), l2.Stats()
	if s1.Dropped != s2.Dropped || s1.Steps != s2.Steps || s1.Pending != s2.Pending {
		t.Fatalf("stats diverge: %+v vs %+v", s1, s2)
	}
	if eng1.Generation() != eng2.Generation() {
		t.Fatalf("generations diverge: %d vs %d", eng1.Generation(), eng2.Generation())
	}
}

// TestIngestBatchMatchesSequentialIngest pins the batch path: IngestBatch
// must produce exactly the state (and WAL) of the equivalent sequential
// Ingests, acking the whole batch on one durability wait.
func TestIngestBatchMatchesSequentialIngest(t *testing.T) {
	ds := testDataset(t)
	events := makeRCEvents(ds, 41, 20)
	mk := func(dir string) (*Learner, *serve.Engine, *wal.Log) {
		log, err := wal.Open(dir, walOpts())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { log.Close() })
		eng := serve.NewEngine(testModel(t, ds, 1).Clone(), serve.Config{Workers: 1})
		t.Cleanup(eng.Close)
		l, err := NewLearner(testModel(t, ds, 1), ds, eng, Config{
			Train: train.Config{Seed: 2, Workers: 1, LR: 0.05, Negatives: 1}, BatchSize: 8, Log: log,
		})
		if err != nil {
			t.Fatal(err)
		}
		return l, eng, log
	}
	lSeq, engSeq, logSeq := mk(filepath.Join(t.TempDir(), "a"))
	for _, ev := range events {
		if err := lSeq.Ingest(ev.user, ev.object, 1); err != nil {
			t.Fatal(err)
		}
	}
	lSeq.Sync()

	lBat, engBat, logBat := mk(filepath.Join(t.TempDir(), "b"))
	batch := make([]Event, len(events))
	for i, ev := range events {
		batch[i] = Event{User: ev.user, Object: ev.object, Label: 1}
	}
	if err := lBat.IngestBatch(batch); err != nil {
		t.Fatal(err)
	}
	if d, p := logBat.DurableSeq(), logBat.Pos().Seq; d != p {
		t.Fatalf("batch not durable through the tail: durable %d, last %d", d, p)
	}
	lBat.Sync()

	assertParamsEqual(t, lSeq.model, lBat.model, "batch vs sequential ingest")
	if a, b := logSeq.Pos().Seq, logBat.Pos().Seq; a != b {
		t.Fatalf("log lengths differ: %d vs %d", a, b)
	}
	if engSeq.Generation() != engBat.Generation() {
		t.Fatalf("generations differ")
	}
	// A bad event rejects the whole batch before side effects.
	st := lBat.Stats()
	if err := lBat.IngestBatch([]Event{{User: 0, Object: 1, Label: 1}, {User: 999, Object: 0, Label: 1}}); err == nil {
		t.Fatal("invalid batch accepted")
	}
	if got := lBat.Stats(); got.Ingested != st.Ingested || got.Pending != st.Pending {
		t.Fatalf("failed batch left side effects: %+v vs %+v", got, st)
	}
}

// TestLostMarkerIsALogFault: a step, publish or drop marker the log refuses
// is not discarded. The log can no longer reproduce the learner, so the
// learner stops acknowledging: Ingest and Checkpoint return the fault, naming
// the first marker that was lost — here the step marker, which a closed log
// refuses before the publish marker. Sync itself must not hang on the dead
// log.
func TestLostMarkerIsALogFault(t *testing.T) {
	ds := testDataset(t)
	log, err := wal.Open(filepath.Join(t.TempDir(), "wal"), walOpts())
	if err != nil {
		t.Fatal(err)
	}
	eng := serve.NewEngine(testModel(t, ds, 1).Clone(), serve.Config{Workers: 1})
	defer eng.Close()
	l, err := NewLearner(testModel(t, ds, 1), ds, eng, Config{
		Train: train.Config{Seed: 1, Workers: 1, LR: 0.01, Negatives: 1}, Log: log,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Ingest(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if n, _ := l.Sync(); n != 1 { // trains and publishes; both marker appends fail
		t.Fatalf("Sync trained %d events, want 1", n)
	}
	for what, err := range map[string]error{
		"Ingest":     l.Ingest(1, 3, 1),
		"Checkpoint": l.Checkpoint(&bytes.Buffer{}),
	} {
		if err == nil || !strings.Contains(err.Error(), "step marker") {
			t.Errorf("%s after a lost step marker: %v, want the log fault", what, err)
		}
	}
}
