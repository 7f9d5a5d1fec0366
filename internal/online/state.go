package online

import (
	"fmt"
	"io"
	"sort"
	"time"

	"seqfm/internal/ckpt"
	"seqfm/internal/feature"
	"seqfm/internal/optim"
	"seqfm/internal/wal"
)

// This file is the self-contained checkpoint (ckpt.File.State) and the
// promotion primitive. A plain checkpoint records weights + optimizer + a log
// position and leans on full log replay to rebuild everything else; a *state*
// checkpoint additionally captures what that replay would have rebuilt — live
// histories, both seen indexes, the untrained pending queue, publish lineage
// and counters — so recovery needs only the log suffix beyond the cut. That
// is the invariant WAL compaction rests on: once a durable state checkpoint
// covers seq S, every record at or below S is dead weight and wal.Compact may
// discard whole segments below it.
//
// Cut semantics: the cut is the log's end position read while holding both
// trainMu and l.mu. Ingest appends (event records, drop markers) happen under
// l.mu; training appends (step and publish markers) under trainMu; so with
// both held the log cannot advance, and everything at or below the cut is
// already reflected in the captured state. Replay after restore starts at
// cut+1.

// seenDelta returns, per user, the serving-side seen objects beyond the
// dataset seed, sorted — the additions markSeen and restoreState recorded.
// Callers hold l.mu (the capture critical section); seenMu nests inside it
// on the ingest path too.
func (l *Learner) seenDelta() map[int][]int {
	l.seenMu.RLock()
	out := make(map[int][]int, len(l.seenAdded))
	for u, objs := range l.seenAdded {
		objs = append([]int(nil), objs...)
		sort.Ints(objs)
		out[u] = objs
	}
	l.seenMu.RUnlock()
	return out
}

// stateFileLocked captures a self-contained checkpoint file at the current
// cut. trainMu must be held. The log is fsynced before the file references
// the cut, so the snapshot never depends on records a crash could lose.
func (l *Learner) stateFileLocked() (*ckpt.File, error) {
	wlog := l.wlog()
	if wlog == nil {
		return nil, fmt.Errorf("online: state checkpoint requires a WAL (Config.Log)")
	}
	st := &ckpt.LiveState{}
	l.mu.Lock()
	cut := wlog.Pos()
	live := l.pending[l.head:]
	st.Pending = make([]ckpt.PendingRec, len(live))
	for i, ev := range live {
		st.Pending[i] = ckpt.PendingRec{
			User:   ev.inst.User,
			Object: ev.inst.Target,
			Label:  ev.inst.Label,
			Hist:   append([]int(nil), ev.inst.Hist...),
			Seq:    ev.seq,
			TS:     ev.ts,
		}
	}
	st.Histories = l.store.Export()
	st.SeenDelta = l.seenDelta()
	l.mu.Unlock()
	st.SamplerSeenDelta = l.stepper.SamplerSeenDelta()
	st.Generation = l.eng.Generation()
	st.StepsSincePublish = l.stepsSincePub
	st.TrainedThroughMS = l.trainedThroughTS.Load()
	st.Ingested = l.ingested.Load()
	st.Dropped = l.dropped.Load()
	st.Swaps = l.swaps.Load()
	for _, e := range l.Lineage() {
		st.Lineage = append(st.Lineage, ckpt.LineageRec{
			Gen:              e.Gen,
			PublishedAtMS:    e.PublishedAtMS,
			DataThroughMS:    e.DataThroughMS,
			FreshnessSeconds: e.FreshnessSeconds,
			FreshnessKnown:   e.FreshnessKnown,
		})
	}
	if err := wlog.Sync(); err != nil {
		return nil, fmt.Errorf("online: state checkpoint wal sync: %w", err)
	}
	f := &ckpt.File{Steps: l.stepper.Steps(), Log: &cut, Epoch: l.Epoch(), State: st}
	if adam, ok := l.stepper.Optimizer().(*optim.Adam); ok {
		s := adam.Export()
		f.Opt = &s
	}
	return f, nil
}

// CheckpointState writes a self-contained checkpoint: Checkpoint's stream
// plus the live state full replay would otherwise rebuild. Restoring it
// replays only the log records beyond the recorded cut — the precondition
// for compacting the log below it.
func (l *Learner) CheckpointState(w io.Writer) error {
	l.trainMu.Lock()
	defer l.trainMu.Unlock()
	f, err := l.stateFileLocked()
	if err != nil {
		return err
	}
	if err := ckpt.SaveV2(w, l.model, f); err != nil {
		return err
	}
	l.snapSeq.Store(f.Log.Seq)
	return nil
}

// CheckpointStateFile atomically writes CheckpointState's stream to path.
func (l *Learner) CheckpointStateFile(path string) error {
	l.trainMu.Lock()
	defer l.trainMu.Unlock()
	f, err := l.stateFileLocked()
	if err != nil {
		return err
	}
	if err := ckpt.SaveFileV2(path, l.model, f); err != nil {
		return err
	}
	l.snapSeq.Store(f.Log.Seq)
	return nil
}

// CheckpointAndCompact writes a self-contained checkpoint to path and then
// compacts the WAL below its cut, returning what compaction removed. The
// checkpoint is durable (fsynced file and directory) before any segment is
// unlinked, so a crash at any interleaving leaves a recoverable pair: either
// the old snapshot with the full log, or the new snapshot with a log whose
// surviving records start at or below cut+1.
func (l *Learner) CheckpointAndCompact(path string) (wal.CompactStats, error) {
	l.trainMu.Lock()
	f, err := l.stateFileLocked()
	if err == nil {
		err = ckpt.SaveFileV2(path, l.model, f)
	}
	l.trainMu.Unlock()
	if err != nil {
		return wal.CompactStats{}, err
	}
	l.snapSeq.Store(f.Log.Seq)
	return l.wlog().Compact(f.Log.Seq)
}

// restoreState applies a restored LiveState during construction (single
// threaded; no locks needed). The learner's store and seen sets are already
// dataset-seeded, so the deltas land on the baseline they were recorded
// against, and are recorded again as additions for the next capture.
func (l *Learner) restoreState(st *ckpt.LiveState) {
	l.store.Import(st.Histories)
	for u, objs := range st.SeenDelta {
		if u < 0 || u >= len(l.seen) {
			continue
		}
		for _, o := range objs {
			l.addSeenLocked(u, o)
		}
	}
	for u, objs := range st.SamplerSeenDelta {
		for _, o := range objs {
			l.stepper.MarkSeen(u, o)
		}
	}
	now := time.Now().UnixNano()
	l.pending = make([]pendingEvent, 0, len(st.Pending))
	for _, p := range st.Pending {
		inst := feature.Instance{
			User:       p.User,
			Target:     p.Object,
			Hist:       append([]int(nil), p.Hist...),
			Label:      p.Label,
			UserAttr:   feature.Pad,
			TargetAttr: feature.Pad,
		}
		if l.ds.NumUserAttrs > 0 {
			inst.UserAttr = l.ds.UserAttr[p.User]
		}
		if l.ds.NumItemAttrs > 0 {
			inst.TargetAttr = l.ds.ItemAttr[p.Object]
		}
		l.pending = append(l.pending, pendingEvent{inst: inst, seq: p.Seq, at: now, ts: p.TS})
	}
	l.ingested.Store(st.Ingested)
	l.dropped.Store(st.Dropped)
	l.swaps.Store(st.Swaps)
	l.trainedThroughTS.Store(st.TrainedThroughMS)
	for _, e := range st.Lineage {
		l.lineage = append(l.lineage, LineageEntry{
			Gen:              e.Gen,
			PublishedAtMS:    e.PublishedAtMS,
			DataThroughMS:    e.DataThroughMS,
			FreshnessSeconds: e.FreshnessSeconds,
			FreshnessKnown:   e.FreshnessKnown,
		})
	}
	l.stepsSincePub = st.StepsSincePublish
	l.restoredGen = st.Generation
	l.hasState = true
}

// BecomePrimary attaches a fresh write-ahead log to a learner that has none —
// the follower→primary transition. The log must have been created with
// wal.OpenAt at the follower's applied position + 1, so the global sequence
// numbering continues unbroken; epoch must exceed every epoch the learner has
// observed (the fencing token: anything the deposed primary appends under its
// older epoch is rejected by comparison, never merged). The first record of
// the new log is the epoch record, fsynced before the call returns; if the
// follower holds trained-but-unpublished steps they are published now, under
// the next generation id, exactly as the lost primary was about to.
//
// The caller must write a state checkpoint (CheckpointStateFile) immediately
// after: the pending events the follower restored or applied reference
// sequence numbers below the new log's first record, so only a self-contained
// snapshot can make them recoverable.
func (l *Learner) BecomePrimary(log *wal.Log, epoch uint64) error {
	if log == nil {
		return fmt.Errorf("online: BecomePrimary requires a log")
	}
	l.trainMu.Lock()
	defer l.trainMu.Unlock()
	if l.wlog() != nil {
		return fmt.Errorf("online: learner already owns a log")
	}
	if cur := l.Epoch(); epoch <= cur {
		return fmt.Errorf("online: promotion epoch %d does not advance observed epoch %d", epoch, cur)
	}
	l.mu.Lock()
	l.walLog.Store(log)
	l.cfg.Log = log
	l.mu.Unlock()
	l.adoptEpoch(epoch)
	if _, err := log.AppendRecord(wal.Record{Type: wal.RecEpoch, Epoch: epoch}); err != nil {
		return fmt.Errorf("online: promotion epoch record: %w", err)
	}
	if err := log.Sync(); err != nil {
		return fmt.Errorf("online: promotion epoch sync: %w", err)
	}
	if l.stepsSincePub > 0 {
		gen := l.publish()
		pubTS := time.Now().UnixMilli()
		dataThrough := l.trainedThroughTS.Load()
		l.notePublished(gen, pubTS, dataThrough)
		if _, err := log.AppendRecord(wal.Record{Type: wal.RecPublish, Gen: gen, TS: pubTS, EventTS: dataThrough}); err != nil {
			return fmt.Errorf("online: promotion publish marker: %w", err)
		}
	}
	l.live.Store(true)
	return nil
}
