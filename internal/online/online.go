// Package online closes SeqFM's train→serve loop at runtime: the subsystem
// that turns the offline training engine (internal/train) and the batched
// inference engine (internal/serve) into one live system that keeps adapting
// to an interaction stream, the deployment reality the sequence-aware
// recommender literature insists on — user preferences drift, so a frozen
// model decays.
//
// The pieces and their contracts:
//
//   - Ingest appends each interaction to a sharded, lock-striped per-user
//     HistoryStore (so the dynamic view of subsequent requests reflects the
//     newest behaviour immediately, before any retraining) and captures the
//     event as a training instance whose history is the user's state at
//     ingest time — exactly the next-item supervision the offline split
//     builds from frozen logs.
//   - A background incremental trainer drains captured events into
//     minibatches and fine-tunes a shadow clone of the model through
//     train.Stepper — the same sharded two-phase-forward engine as offline
//     training, warm-started from the deployed optimizer state. Serving
//     never reads the shadow: the weights an engine snapshot sees are
//     immutable by construction.
//   - Publishing clones the shadow and hot-swaps it into the serve.Engine
//     (RCU generation snapshot), so readers never block and in-flight
//     requests finish on the generation they started with.
//   - Checkpoint writes the shadow + optimizer state + step counter as a
//     self-describing ckpt v2 file; restoring it resumes fine-tuning
//     bit-identically (train.Stepper's restart-exact determinism).
//
// Staleness contract: served scores are always computed from a consistent
// generation (bit-identical to a fresh-tape Score under that generation's
// weights) but may lag Ingest by up to one publish interval; histories, by
// contrast, are read live at request time. Determinism contract: for a fixed
// {Seed, Workers} and the same ingest order, the sequence of published
// weights is bit-reproducible.
package online

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"seqfm/internal/ckpt"
	"seqfm/internal/core"
	"seqfm/internal/data"
	"seqfm/internal/feature"
	"seqfm/internal/obs"
	"seqfm/internal/optim"
	"seqfm/internal/serve"
	"seqfm/internal/train"
	"seqfm/internal/wal"
)

// Defaults for Config's zero fields.
const (
	DefaultBatchSize  = 64
	DefaultMaxPending = 1 << 16
	DefaultInterval   = 250 * time.Millisecond
)

// Config parameterises a Learner. The zero value takes every default.
type Config struct {
	// Train configures the fine-tuning steps: Seed and Workers fix the
	// determinism contract, LR/Negatives/GradClip the optimisation.
	// Train.BatchSize and Train.Epochs are ignored (batching is event-driven
	// here); BatchSize below is the knob.
	Train train.Config
	// BatchSize is the fine-tune minibatch size events are drained into.
	// 0 means DefaultBatchSize.
	BatchSize int
	// MaxPending bounds the buffered event queue; beyond it the oldest
	// events are dropped (counted in Stats.Dropped). 0 means
	// DefaultMaxPending.
	MaxPending int
	// HistoryLen bounds each user's live history. 0 derives 4× the model's
	// MaxSeqLen — enough slack that the dynamic view never truncates early
	// while the store stays O(users · n.).
	HistoryLen int
	// Interval is the background trainer's drain cadence. 0 means
	// DefaultInterval.
	Interval time.Duration
	// MinEvents defers background fine-tuning until at least this many
	// events are pending (a Sync call ignores it). 0 means 1.
	MinEvents int
	// Log, when non-nil, makes the event stream durable: Ingest appends
	// each interaction to this write-ahead log *before* enqueueing it (and
	// returns only once the record is durable under the log's sync policy),
	// and the trainer logs step/drop/publish markers recording exactly which
	// events each minibatch consumed and which generation each publish
	// installed. Together with a ckpt-v2 snapshot carrying its log position,
	// the log makes recovery exactly-once and bit-identical: see ReplayLog.
	// The learner does not close the log.
	Log *wal.Log
}

func (c Config) withDefaults(model *core.Model) Config {
	if c.BatchSize <= 0 {
		c.BatchSize = DefaultBatchSize
	}
	if c.MaxPending <= 0 {
		c.MaxPending = DefaultMaxPending
	}
	if c.HistoryLen <= 0 {
		c.HistoryLen = 4 * model.Config().MaxSeqLen
	}
	if c.Interval <= 0 {
		c.Interval = DefaultInterval
	}
	if c.MinEvents <= 0 {
		c.MinEvents = 1
	}
	return c
}

// Stats is a snapshot of the learner's counters.
type Stats struct {
	// Ingested counts accepted events; Dropped counts events evicted from a
	// full pending queue before training saw them.
	Ingested, Dropped int64
	// Pending is the current backlog of untrained events.
	Pending int
	// Steps counts applied fine-tune minibatches; Swaps counts published
	// generations.
	Steps, Swaps int64
	// LastLoss is the mean loss of the most recent fine-tune batch.
	LastLoss float64
	// Generation is the serving engine's current generation id.
	Generation uint64
	// HistoryUsers is the number of users with a live history.
	HistoryUsers int
	// BacklogRejects counts whole batches TryIngestBatch refused with
	// ErrBacklog — the admission valve firing, as opposed to Dropped's
	// silent evictions.
	BacklogRejects int64
	// TrainLagSeconds is how long the oldest untrained event has been
	// queued — the train-behind-ingest lag in wall-clock terms (0 when the
	// queue is empty). TrainLagEvents is the same lag in events (== Pending).
	TrainLagSeconds float64
	TrainLagEvents  int

	// Durability state; all zero unless the learner was built with a WAL
	// (Config.Log).

	// LogSeq is the last sequence number appended to the log; LogDurableSeq
	// the last one fsynced. LogSegments counts live segment files.
	LogSeq, LogDurableSeq uint64
	LogSegments           int
	// AppliedSeq is the log sequence number of the last step marker whose
	// training effect is in the current shadow weights — the position a
	// checkpoint taken now would record.
	AppliedSeq uint64
	// SnapshotSeq is the AppliedSeq of the last checkpoint written through
	// this learner; the replay a crash would need covers (SnapshotSeq,
	// LogDurableSeq].
	SnapshotSeq uint64
	// LogFirstSeq is the first sequence number still present in the log — 1
	// until compaction has discarded a prefix.
	LogFirstSeq uint64
	// Epoch is the writer epoch the learner operates under (1 until a
	// promotion or a restored/replayed epoch record raised it).
	Epoch uint64
}

// pendingEvent is one queued training instance plus the WAL sequence number
// of its event record (0 without a WAL). The queue is FIFO and drops only at
// the head, so the queued seqs are always a contiguous ascending range —
// which is why a step marker's "trained through seq X" pins a batch exactly.
type pendingEvent struct {
	inst feature.Instance
	seq  uint64
	// at is the enqueue wall-clock (UnixNano); the head event's age is the
	// train-behind-ingest lag Stats reports.
	at int64
	// ts is the event's origin ingest stamp (unix ms, always the primary's
	// clock: the WAL record's TS on durable and replayed paths, the local
	// clock otherwise). 0 = unknown (pre-stamp log records), in which case
	// the event contributes no freshness observation.
	ts int64
}

// Learner is the online-learning subsystem: one per served model. Its public
// methods are safe for concurrent use.
type Learner struct {
	cfg Config
	ds  *data.Dataset
	eng *serve.Engine

	store *HistoryStore

	// seenMu guards seen, the serving-side exclusion index: one set per
	// user, seeded from the dataset logs and extended at *ingest* time.
	// It is deliberately separate from the trainer's negative-sampling
	// index (which marks events only when they are trained, under
	// trainMu, to keep checkpoint resume bit-exact): exclusion must see
	// an interaction immediately and must never block on — or be lost by
	// — training, so pending events that age out of the bounded live
	// history, or are dropped from a full queue, stay excluded. seenAdded
	// lists, per user, the objects added beyond the dataset seed — what a
	// state checkpoint persists.
	seenMu    sync.RWMutex
	seen      []map[int]bool
	seenAdded map[int][]int

	// mu guards the pending event queue (the ingest path). The queue is a
	// slice with a head index: drains and drop-oldest advance head instead
	// of memmoving the buffer, so ingest stays O(1) amortised even when the
	// queue is saturated; the live region is compacted down only when the
	// dead prefix outgrows it. With a WAL, mu also serialises the log append
	// against the history-store append, so log order is exactly ingest order
	// — the property replay depends on.
	mu      sync.Mutex
	pending []pendingEvent
	head    int
	// reserved counts queue slots promised to in-flight TryIngestBatch
	// calls that have passed admission but not yet enqueued, so concurrent
	// admitted batches cannot jointly oversubscribe MaxPending.
	reserved int

	// trainMu serialises fine-tuning, publishing and checkpointing (the
	// trainer path). Never held while scoring.
	trainMu sync.Mutex
	model   *core.Model // shadow copy; serving never reads it
	stepper *train.Stepper
	// stepsSincePub counts steps applied since the last publish (guarded by
	// trainMu). Always 0 on a primary after Sync (training and publishing
	// are atomic there), but a follower applies step markers as they arrive
	// and publishes only at its primary's publish markers — a promotion or
	// state checkpoint in that window must know the shadow is ahead of the
	// serving engine.
	stepsSincePub int
	// restoredGen is the published generation a restored self-contained
	// snapshot recorded; with hasState it seeds ReplayLog's publish
	// numbering exactly where full replay's loop would have stood at the
	// cut.
	restoredGen uint64
	hasState    bool

	// walLog, when non-nil, is the durable event log (Config.Log). Replay
	// (ApplyLogRecord/ReplayLog) bypasses it: replayed records are not
	// re-appended, and queue-overflow drops are driven by the logged Drop
	// markers instead of the live MaxPending policy. An atomic pointer
	// because promotion (BecomePrimary) attaches a log to a running
	// follower while Stats/handlers read it concurrently.
	walLog atomic.Pointer[wal.Log]
	// logFault is the first marker append or commit the log failed; see
	// noteLogFault.
	logFault atomic.Pointer[error]
	// epoch is the writer epoch the learner has observed (wal.RecEpoch,
	// snapshot restore, or promotion); 0 reads as 1 — the pre-cluster
	// implicit epoch.
	epoch atomic.Uint64
	// snapApplied is the snapshot's log position (ckpt File.Log.Seq): step
	// markers at or below it replay without re-training. Fixed at
	// construction.
	snapApplied uint64
	// appliedPos is the position of the last step marker whose effect is in
	// the shadow weights; guarded by trainMu, mirrored in appliedSeq for
	// lock-free Stats.
	appliedPos wal.Pos
	appliedSeq atomic.Uint64
	snapSeq    atomic.Uint64

	// live flips once the learner has seen live traffic (Ingest/Sync) or
	// completed a replay; ReplayLog refuses to run after that — replaying
	// on top of live state would silently double-apply the log.
	live atomic.Bool

	ingested atomic.Int64
	dropped  atomic.Int64
	steps    atomic.Int64
	swaps    atomic.Int64
	lastLoss atomic.Uint64 // math.Float64bits

	// Telemetry: stepHist times stepper.Step minibatches, publishHist the
	// clone+Swap of each publish; backlogRejects counts ErrBacklog
	// admissions refused. Live histograms — register, don't copy.
	stepHist       obs.Histogram
	publishHist    obs.Histogram
	backlogRejects atomic.Int64

	// Freshness lineage. Both histograms observe deltas between two stamps
	// from the *same* (primary) clock, so a follower replaying stamped
	// records reports the identical values as its primary — clock skew never
	// enters the arithmetic. freshTrained is ingest → trained-through (one
	// observation per trained event); freshServable is ingest → servable
	// swap (one per publish, anchored at the newest trained event's stamp).
	// trainedThroughTS is that anchor: the origin stamp of the newest event
	// the shadow has trained on. lineage is a bounded ring of per-generation
	// provenance entries behind GET /v1/debug/freshness.
	freshTrained     obs.Histogram
	freshServable    obs.Histogram
	trainedThroughTS atomic.Int64
	lineageMu        sync.Mutex
	lineage          []LineageEntry

	bg struct {
		sync.Mutex
		stop chan struct{}
		done chan struct{}
	}
}

// NewLearner builds a learner that fine-tunes a shadow clone of m on events
// ingested for ds's feature space and publishes snapshots to eng. m itself
// is never mutated or served: the learner clones it once at construction and
// clones the shadow again on every publish. The loss follows ds.Task. The
// live history store is seeded from ds's interaction logs.
func NewLearner(m *core.Model, ds *data.Dataset, eng *serve.Engine, cfg Config) (*Learner, error) {
	return newLearner(m.Clone(), nil, 0, ds, eng, cfg)
}

// NewLearnerFromCheckpoint restores the shadow model, optimizer state and
// step counter from a ckpt v2 stream, then continues exactly where the saved
// run stopped: subsequent fine-tuning is bit-identical to the run that wrote
// the checkpoint fed the same event batches (fixed {Seed, Workers}). The
// restored model is also published to eng so serving starts on the saved
// weights.
func NewLearnerFromCheckpoint(r io.Reader, ds *data.Dataset, eng *serve.Engine, cfg Config) (*Learner, error) {
	m, f, err := ckpt.Load(r)
	if err != nil {
		return nil, err
	}
	return NewLearnerFromSnapshot(m, f, ds, eng, cfg)
}

// NewLearnerFromSnapshot is NewLearnerFromCheckpoint for an already-decoded
// checkpoint: m must be the model ckpt.Load returned for f. Callers that
// load a checkpoint once for serving (cmd/seqfm-serve) use it to warm-start
// the trainer without re-reading and re-decoding the file. m is cloned for
// the shadow, so it may keep serving as an immutable generation; if the
// engine is not already serving m, the restored weights are published so
// serving starts on the saved state.
//
// The optimizer's moments and step count always come from the snapshot, but
// a non-zero cfg.Train.LR overrides the saved learning rate — the LR is an
// operator choice for the new run, not run state, and silently resuming at
// the old rate would contradict what the caller configured.
func NewLearnerFromSnapshot(m *core.Model, f *ckpt.File, ds *data.Dataset, eng *serve.Engine, cfg Config) (*Learner, error) {
	if m.Config().Space != ds.Space() {
		return nil, fmt.Errorf("online: checkpoint space %+v does not match dataset space %+v",
			m.Config().Space, ds.Space())
	}
	shadow := m.Clone()
	var opt *optim.Adam
	if f.Opt != nil {
		var err error
		if opt, err = optim.NewAdamFromState(shadow.Params(), *f.Opt); err != nil {
			return nil, err
		}
		if cfg.Train.LR > 0 {
			opt.SetLR(cfg.Train.LR)
		}
	}
	l, err := newLearner(shadow, opt, f.Steps, ds, eng, cfg)
	if err != nil {
		return nil, err
	}
	if f.Log != nil {
		// The snapshot is consistent with the log up to this position: a
		// subsequent ReplayLog re-trains only the markers beyond it.
		l.snapApplied = f.Log.Seq
		l.appliedPos = *f.Log
		l.appliedSeq.Store(f.Log.Seq)
	}
	if f.Epoch > 0 {
		l.epoch.Store(f.Epoch)
	}
	if f.State != nil {
		l.restoreState(f.State)
	}
	// Publish the restored weights — unless the engine is already serving
	// exactly this model (the common flow builds the engine from the loaded
	// model and then warm-starts the learner with it). Skipping the
	// redundant publish does more than save an index rebuild: it keeps the
	// engine's generation counter un-advanced, so recovery and follower
	// bootstrap can re-align it to the logged/primary numbering even when
	// that numbering is still small (SwapAs only installs ids that advance
	// the counter).
	if eng.Model() != serve.Scorer(m) {
		l.publish()
	}
	return l, nil
}

func newLearner(shadow *core.Model, opt *optim.Adam, steps int64, ds *data.Dataset, eng *serve.Engine, cfg Config) (*Learner, error) {
	if shadow.Config().Space != ds.Space() {
		return nil, fmt.Errorf("online: model space %+v does not match dataset space %+v",
			shadow.Config().Space, ds.Space())
	}
	cfg = cfg.withDefaults(shadow)
	var optIface optim.Optimizer
	if opt != nil {
		optIface = opt
	}
	stepper, err := train.NewStepper(shadow, ds, ds.Task, optIface, cfg.Train)
	if err != nil {
		return nil, err
	}
	stepper.SetSteps(steps)
	l := &Learner{cfg: cfg, ds: ds, eng: eng, model: shadow, stepper: stepper}
	if cfg.Log != nil {
		l.walLog.Store(cfg.Log)
	}
	// Stats.Steps counts lifetime minibatches on this weight lineage, like
	// stepper.Steps(): a warm start resumes the saved counter, so the number
	// survives restarts the same way the weights do.
	l.steps.Store(steps)
	l.store = NewHistoryStore(0, cfg.HistoryLen)
	l.store.SeedFromDataset(ds)
	l.seen = make([]map[int]bool, ds.NumUsers)
	for u, log := range ds.Users {
		m := make(map[int]bool, len(log))
		for _, it := range log {
			m[it.Object] = true
		}
		l.seen[u] = m
	}
	l.seenAdded = make(map[int][]int)
	return l, nil
}

// wlog returns the learner's current write-ahead log (nil without one).
func (l *Learner) wlog() *wal.Log { return l.walLog.Load() }

// Epoch returns the writer epoch the learner operates under — 1 until a
// newer epoch is observed via snapshot restore, replayed epoch record, or
// promotion.
func (l *Learner) Epoch() uint64 {
	if e := l.epoch.Load(); e > 0 {
		return e
	}
	return 1
}

// adoptEpoch raises the observed epoch to e; epochs never move backwards.
func (l *Learner) adoptEpoch(e uint64) {
	for {
		cur := l.epoch.Load()
		if e <= cur || l.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// markSeen records an interaction in the serving-side exclusion index.
func (l *Learner) markSeen(user, object int) {
	l.seenMu.Lock()
	l.addSeenLocked(user, object)
	l.seenMu.Unlock()
}

// addSeenLocked adds object to user's seen set, listing it in seenAdded when
// it is new. seenMu must be held for writing, or the learner not yet shared.
func (l *Learner) addSeenLocked(user, object int) {
	if set := l.seen[user]; !set[object] {
		set[object] = true
		l.seenAdded[user] = append(l.seenAdded[user], object)
	}
}

// Ingest records one interaction: user interacted with object, with the
// task's label (1 for implicit feedback, a rating for regression, a click
// bit for classification). The user's live history is extended immediately;
// the event joins the pending fine-tune queue with the history as it stood
// before this interaction — the same next-item supervision offline training
// uses. Attrs are filled from the dataset's side-information tables.
func (l *Learner) Ingest(user, object int, label float64) error {
	if err := l.checkEvent(user, object); err != nil {
		return err
	}
	seq, _, err := l.ingestOne(user, object, label)
	if err != nil {
		return err
	}
	return l.waitCommitted(seq)
}

// Event is one interaction for batch ingestion.
type Event struct {
	User, Object int
	Label        float64
}

// IngestBatch ingests the events in order and waits for durability once, on
// the last record: under group commit the whole batch stacks into shared
// fsync cycles instead of paying one cycle per event, so a bulk /v1/feedback
// body commits at log bandwidth rather than ack-latency × events. The batch
// is validated up front — a bad event rejects the whole batch before any
// side effects.
func (l *Learner) IngestBatch(events []Event) error {
	for i, ev := range events {
		if err := l.checkEvent(ev.User, ev.Object); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
	}
	var last uint64
	for _, ev := range events {
		seq, _, err := l.ingestOne(ev.User, ev.Object, ev.Label)
		if err != nil {
			return err
		}
		last = seq
	}
	return l.waitCommitted(last)
}

// ErrBacklog reports that the learner's pending queue cannot absorb a batch
// without evicting untrained events. It is the admission-control signal: the
// serving layer maps it to 503 + Retry-After, and because the rejection
// happens before any side effect (no WAL record, no history growth, no seen
// mark), the client can retry the identical batch later.
var ErrBacklog = errors.New("online: pending queue backlog full")

// Room returns how many more events the pending queue can absorb before the
// drop-oldest overflow policy starts evicting untrained events. Slots
// promised to in-flight admitted batches count as occupied.
func (l *Learner) Room() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.roomLocked()
}

// roomLocked is Room under an already-held l.mu.
func (l *Learner) roomLocked() int {
	r := l.cfg.MaxPending - (len(l.pending) - l.head) - l.reserved
	if r < 0 {
		r = 0
	}
	return r
}

// TryIngestBatch is IngestBatch behind admission control: the whole batch is
// admitted only if the pending queue has room for every event, and rejected
// with ErrBacklog otherwise — before any side effect. Admission reserves the
// batch's slots under l.mu, so concurrent admitted batches cannot jointly
// oversubscribe MaxPending and trigger the drop-oldest policy that plain
// IngestBatch tolerates. Reservations are conservative: a batch's events
// count against room twice (reservation + queue slot) while it is mid-flight,
// which can shed slightly early under heavy concurrency — the cheap side of
// the error to be on for an overload valve.
func (l *Learner) TryIngestBatch(events []Event) error {
	return l.TryIngestBatchCtx(context.Background(), events)
}

// TryIngestBatchCtx is TryIngestBatch with per-stage tracing: when ctx
// carries an obs.Trace, the batch's summed WAL-append time lands in the
// "wal_append" stage and the group-commit wait in "durable_wait" — the
// write path's answer to "is feedback latency the disk or the queue". The
// context carries only the trace; cancellation is not consulted (the batch
// is already durable or not by the time it could matter).
func (l *Learner) TryIngestBatchCtx(ctx context.Context, events []Event) error {
	for i, ev := range events {
		if err := l.checkEvent(ev.User, ev.Object); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
	}
	n := len(events)
	if n == 0 {
		return nil
	}
	l.mu.Lock()
	if l.roomLocked() < n {
		l.mu.Unlock()
		l.backlogRejects.Add(1)
		return ErrBacklog
	}
	l.reserved += n
	l.mu.Unlock()
	defer func() {
		l.mu.Lock()
		l.reserved -= n
		l.mu.Unlock()
	}()
	tr := obs.FromContext(ctx)
	var last uint64
	var appendTotal time.Duration
	for _, ev := range events {
		seq, appendDur, err := l.ingestOne(ev.User, ev.Object, ev.Label)
		if err != nil {
			return err
		}
		appendTotal += appendDur
		last = seq
	}
	wlog := l.wlog()
	if wlog != nil {
		tr.Stage("wal_append", appendTotal)
	}
	waitStart := time.Now()
	err := l.waitCommitted(last)
	if wlog != nil && wlog.Policy() != wal.SyncNone {
		tr.Stage("durable_wait", time.Since(waitStart))
	}
	return err
}

// checkEvent validates one interaction's ids.
func (l *Learner) checkEvent(user, object int) error {
	if user < 0 || user >= l.ds.NumUsers {
		return fmt.Errorf("online: user %d outside [0,%d)", user, l.ds.NumUsers)
	}
	if object < 0 || object >= l.ds.NumObjects {
		return fmt.Errorf("online: object %d outside [0,%d)", object, l.ds.NumObjects)
	}
	return nil
}

// ingestOne applies one interaction's side effects and returns its WAL
// sequence number (0 without a WAL) plus the buffered-append duration,
// without waiting for durability.
func (l *Learner) ingestOne(user, object int, label float64) (uint64, time.Duration, error) {
	l.live.Store(true)
	wlog := l.wlog()
	if wlog == nil {
		// Snapshot-and-append atomically (one stripe-lock critical section),
		// so concurrent events for the same user each see exactly the history
		// their predecessors produced.
		inst := l.makeInstance(user, object, label)
		l.markSeen(user, object)
		l.mu.Lock()
		l.enqueueLocked(inst, 0, time.Now().UnixMilli(), true)
		l.mu.Unlock()
		l.ingested.Add(1)
		return 0, 0, nil
	}
	// Durable path: the WAL append, the history-store append and the queue
	// insert happen in one critical section, so the log's record order is
	// exactly the order in which histories grew and the queue filled —
	// replaying the log single-threaded then reconstructs the identical
	// state. Only the *buffered* append happens under the lock; the fsync
	// wait is outside it, so concurrent ingests stack their records into one
	// group commit instead of serialising on the disk.
	if err := l.logFaultErr(); err != nil {
		return 0, 0, err
	}
	rec := wal.Record{Type: wal.RecEvent, User: user, Object: object, Label: label, TS: time.Now().UnixMilli()}
	l.mu.Lock()
	appendStart := time.Now()
	pos, err := wlog.AppendRecord(rec)
	appendDur := time.Since(appendStart)
	if err != nil {
		l.mu.Unlock()
		return 0, appendDur, fmt.Errorf("online: wal append: %w", err)
	}
	inst := l.makeInstance(user, object, label)
	l.markSeen(user, object)
	l.enqueueLocked(inst, pos.Seq, rec.TS, true)
	l.mu.Unlock()
	l.ingested.Add(1)
	// The event is logged and applied, but if the eviction it caused could
	// not be logged the caller must treat it as unacknowledged.
	return pos.Seq, appendDur, l.logFaultErr()
}

// waitCommitted blocks until seq is durable under the log's policy; a no-op
// without a WAL and under SyncNone (which promises nothing beyond the page
// cache — blocking on the OS-flush timer would make the weakest policy the
// slowest ingest path).
func (l *Learner) waitCommitted(seq uint64) error {
	wlog := l.wlog()
	if wlog == nil || seq == 0 || wlog.Policy() == wal.SyncNone {
		return nil
	}
	if err := wlog.WaitDurable(seq); err != nil {
		// The events are applied in memory but their durability is unknown;
		// the caller must treat them as unacknowledged (a recovered process
		// may or may not replay them).
		return fmt.Errorf("online: wal commit: %w", err)
	}
	return nil
}

// makeInstance builds the training instance for one interaction, extending
// the user's live history and snapshotting its prior state as supervision.
func (l *Learner) makeInstance(user, object int, label float64) feature.Instance {
	inst := feature.Instance{
		User:       user,
		Target:     object,
		Hist:       l.store.AppendSnapshot(user, object),
		Label:      label,
		UserAttr:   feature.Pad,
		TargetAttr: feature.Pad,
	}
	if l.ds.NumUserAttrs > 0 {
		inst.UserAttr = l.ds.UserAttr[user]
	}
	if l.ds.NumItemAttrs > 0 {
		inst.TargetAttr = l.ds.ItemAttr[object]
	}
	return inst
}

// enqueueLocked appends one event to the pending queue and, when allowDrop,
// applies the MaxPending overflow policy (logging a Drop marker when the
// learner is durable). During replay drops are disabled — the logged Drop
// markers are replayed instead, so recovery reproduces the original run even
// if MaxPending changed between runs. l.mu must be held.
func (l *Learner) enqueueLocked(inst feature.Instance, seq uint64, ts int64, allowDrop bool) {
	l.pending = append(l.pending, pendingEvent{inst: inst, seq: seq, at: time.Now().UnixNano(), ts: ts})
	if !allowDrop {
		return
	}
	if over := len(l.pending) - l.head - l.cfg.MaxPending; over > 0 {
		from := l.pending[l.head].seq
		through := l.pending[l.head+over-1].seq
		l.head += over // drop oldest by advancing the head: O(1), no memmove
		l.dropped.Add(int64(over))
		if wlog := l.wlog(); wlog != nil {
			// The marker names the exact evicted range: a concurrently
			// in-flight training batch's events are older than From and no
			// longer queued here, but their Step marker lands after this
			// record — replay must not evict them on its behalf.
			if _, err := wlog.AppendRecord(wal.Record{Type: wal.RecDrop, From: from, Through: through}); err != nil {
				l.noteLogFault(fmt.Errorf("online: wal drop marker: %w", err))
			}
		}
	}
	l.compactLocked()
}

// compactLocked copies the live queue region down and releases the dead
// prefix once it outgrows the live part — amortised O(1) per event, and the
// backing array stays bounded by ~2×MaxPending. l.mu must be held.
func (l *Learner) compactLocked() {
	if l.head == 0 {
		return
	}
	if live := len(l.pending) - l.head; l.head >= live {
		n := copy(l.pending, l.pending[l.head:])
		// Zero the vacated tail so dropped instances' Hist slices are not
		// pinned by the backing array.
		tail := l.pending[n:]
		for i := range tail {
			tail[i] = pendingEvent{}
		}
		l.pending = l.pending[:n]
		l.head = 0
	}
}

// History returns a copy of the user's live history — the frozen dataset log
// extended by every ingested event. Serving layers use it to default the
// dynamic view of a request.
func (l *Learner) History(user int) []int { return l.store.History(user) }

// Replay applies an already-trained event's side effects — extend the user's
// live history, mark the object seen for negative sampling — without queueing
// it for training. After restoring a checkpoint, replay the events the saved
// run had consumed (they are not checkpoint state; persist them in your own
// event log) to reconstruct the exact history-store and sampler state, which
// is what makes subsequent fine-tuning bit-identical to the original run.
func (l *Learner) Replay(user, object int) error {
	if user < 0 || user >= l.ds.NumUsers {
		return fmt.Errorf("online: user %d outside [0,%d)", user, l.ds.NumUsers)
	}
	if object < 0 || object >= l.ds.NumObjects {
		return fmt.Errorf("online: object %d outside [0,%d)", object, l.ds.NumObjects)
	}
	l.trainMu.Lock()
	l.stepper.MarkSeen(user, object)
	l.trainMu.Unlock()
	l.markSeen(user, object)
	l.store.Append(user, object)
	return nil
}

// TopK ranks candidates for user against their live history on the serving
// engine, filling side attributes from the dataset tables. K <= 0 returns
// every candidate ranked. Out-of-range ids are rejected with an error, like
// Ingest — library callers feed untrusted ids here, and an index panic deep
// in the engine is not an acceptable failure mode for bad input.
func (l *Learner) TopK(user int, candidates []int, k int) ([]serve.Item, error) {
	if user < 0 || user >= l.ds.NumUsers {
		return nil, fmt.Errorf("online: user %d outside [0,%d)", user, l.ds.NumUsers)
	}
	for _, c := range candidates {
		if c < 0 || c >= l.ds.NumObjects {
			return nil, fmt.Errorf("online: candidate %d outside [0,%d)", c, l.ds.NumObjects)
		}
	}
	base := feature.Instance{User: user, Hist: l.store.History(user), UserAttr: feature.Pad, TargetAttr: feature.Pad}
	if l.ds.NumUserAttrs > 0 {
		base.UserAttr = l.ds.UserAttr[user]
	}
	req := serve.TopKRequest{Base: base, Candidates: candidates, K: k}
	if l.ds.NumItemAttrs > 0 {
		req.AttrOf = func(o int) int { return l.ds.ItemAttr[o] }
	}
	return l.eng.TopK(req), nil
}

// Recommend ranks the K best objects for user from the whole catalog on
// the serving engine: ANN retrieval over the current generation's index,
// seen-object exclusion, exact re-rank — all against the user's live
// history, so a just-ingested event steers the very next recommendation
// even before the trainer has republished. The engine must have been built
// with an IndexConfig; because the learner publishes through Swap, every
// generation it ships rebuilds the index from the fine-tuned weights
// automatically. k <= 0 returns every retrieved candidate ranked; n <= 0
// takes the engine default retrieval depth.
//
// Exclusion is complete, not history-bounded: the live history store keeps
// only the last HistoryLen interactions (that bound exists for the dynamic
// view, not for exclusion semantics), so the request also excludes the
// learner's seen index — the dataset logs plus every ingested event, which
// never forgets and never blocks on training — and therefore never
// recommends an object the user interacted with, however long ago.
func (l *Learner) Recommend(user, k, n int) ([]serve.Item, error) {
	if user < 0 || user >= l.ds.NumUsers {
		return nil, fmt.Errorf("online: user %d outside [0,%d)", user, l.ds.NumUsers)
	}
	base := feature.Instance{User: user, Hist: l.store.History(user), UserAttr: feature.Pad, TargetAttr: feature.Pad}
	if l.ds.NumUserAttrs > 0 {
		base.UserAttr = l.ds.UserAttr[user]
	}
	req := serve.RecommendRequest{
		Base:        base,
		K:           k,
		N:           n,
		ExcludeFunc: func(o int) bool { return l.Seen(user, o) },
		ExcludeHint: l.SeenCount(user),
	}
	if l.ds.NumItemAttrs > 0 {
		req.AttrOf = func(o int) int { return l.ds.ItemAttr[o] }
	}
	return l.eng.Recommend(req)
}

// Seen reports whether the user has interacted with the object — dataset
// logs plus every ingested (and replayed) event, recorded at ingest time.
// It reads the learner's own index under a read lock, never the training
// lock: a background fine-tune round (which holds trainMu across training
// and the publish's index rebuild) cannot stall it. Serving layers use it
// as a Recommend exclusion predicate, so the user's full interaction set
// is never materialised per request.
func (l *Learner) Seen(user, object int) bool {
	if user < 0 || user >= l.ds.NumUsers {
		return false
	}
	l.seenMu.RLock()
	s := l.seen[user][object]
	l.seenMu.RUnlock()
	return s
}

// SeenCount returns the size of the user's seen set — the beam-headroom
// hint serving layers pass alongside the Seen predicate.
func (l *Learner) SeenCount(user int) int {
	if user < 0 || user >= l.ds.NumUsers {
		return 0
	}
	l.seenMu.RLock()
	n := len(l.seen[user])
	l.seenMu.RUnlock()
	return n
}

// drain detaches up to max pending events (all of them when max <= 0).
func (l *Learner) drain(max int) []pendingEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.pending) - l.head
	if n == 0 {
		return nil
	}
	if max > 0 && n > max {
		n = max
	}
	batch := make([]pendingEvent, n)
	copy(batch, l.pending[l.head:])
	l.head += n
	l.compactLocked()
	return batch
}

// drainThrough detaches every pending event whose log sequence number is at
// or below through — the replay-side counterpart of drain, sized by a Step
// marker instead of a batch budget.
func (l *Learner) drainThrough(through uint64) []pendingEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for l.head+n < len(l.pending) && l.pending[l.head+n].seq <= through {
		n++
	}
	if n == 0 {
		return nil
	}
	batch := make([]pendingEvent, n)
	copy(batch, l.pending[l.head:])
	l.head += n
	l.compactLocked()
	return batch
}

// removeRange detaches every pending event with sequence number in
// [from, through] — the replay-side form of a Drop marker. Unlike live
// drops, the range need not start at the queue head: events drained by a
// concurrently in-flight training batch were already gone when the live
// drop happened, but during replay they are still queued (their Step marker
// comes later in the log), so the evicted span can sit mid-queue.
func (l *Learner) removeRange(from, through uint64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	live := l.pending[l.head:]
	lo := 0
	for lo < len(live) && live[lo].seq < from {
		lo++
	}
	hi := lo
	for hi < len(live) && live[hi].seq <= through {
		hi++
	}
	if hi == lo {
		return 0
	}
	n := hi - lo
	kept := append(live[:lo], live[hi:]...)
	// Zero the vacated tail so removed instances' Hist slices are not
	// pinned by the backing array.
	tail := l.pending[l.head+len(kept):]
	for i := range tail {
		tail[i] = pendingEvent{}
	}
	l.pending = l.pending[:l.head+len(kept)]
	return n
}

// Sync drains the backlog as it stood when the call started, fine-tunes the
// shadow model on it in minibatches of Config.BatchSize, and — if any step
// ran — publishes the result to the serving engine. Bounding the round to
// the entry-time backlog keeps Sync terminating (and the publish cadence
// honest) even when ingest outpaces training throughput: later arrivals wait
// for the next round instead of starving publish, Checkpoint and Close. It
// returns the number of events trained on and the mean loss of the last
// minibatch. Safe to call concurrently with traffic and with the background
// loop.
//
// With a WAL, Sync does not return before its own publish marker is durable
// under the log's policy (SyncNone promises nothing, so nothing is waited
// for). Replication ships durable records only, so "Sync returned" implies
// "a follower that catches up now reaches this generation"; Replica.CatchUp
// keeps comparing against the primary's durable watermark. The wait happens
// after the training lock is released. A marker that cannot be appended or
// committed is a log fault (see logFault): it fails every later Ingest and
// Checkpoint.
func (l *Learner) Sync() (events int, loss float64) {
	l.live.Store(true)
	events, loss, marker := l.syncRound()
	if err := l.waitCommitted(marker); err != nil {
		l.noteLogFault(err)
	}
	return events, loss
}

// syncRound is Sync under the training lock; marker is the sequence number
// of the publish record it appended (0: none).
func (l *Learner) syncRound() (events int, loss float64, marker uint64) {
	l.trainMu.Lock()
	defer l.trainMu.Unlock()
	l.mu.Lock()
	backlog := len(l.pending) - l.head
	l.mu.Unlock()
	for events < backlog {
		max := l.cfg.BatchSize
		if rest := backlog - events; rest < max {
			max = rest
		}
		batch := l.drain(max)
		if len(batch) == 0 {
			break
		}
		loss = l.stepBatch(batch)
		events += len(batch)
	}
	if events > 0 {
		gen := l.publish()
		pubTS := time.Now().UnixMilli()
		dataThrough := l.trainedThroughTS.Load()
		l.notePublished(gen, pubTS, dataThrough)
		if wlog := l.wlog(); wlog != nil {
			// The publish marker is what lets a follower install the same
			// weights under the same generation id, and a recovery replay
			// restore the pre-crash generation numbering. Its stamps let a
			// follower report the identical servable freshness.
			pos, err := wlog.AppendRecord(wal.Record{Type: wal.RecPublish, Gen: gen, TS: pubTS, EventTS: dataThrough})
			if err != nil {
				l.noteLogFault(fmt.Errorf("online: wal publish marker: %w", err))
			}
			marker = pos.Seq
		}
	}
	return events, loss, marker
}

// noteLogFault records the first marker the log refused (or failed to
// commit). From then on the log no longer reproduces this learner — replay
// and followers would miss a step, a publish or a drop — so Ingest and
// Checkpoint return the fault instead of acknowledging work the log cannot
// back.
func (l *Learner) noteLogFault(err error) {
	l.logFault.CompareAndSwap(nil, &err)
}

// logFaultErr returns the recorded log fault, if any.
func (l *Learner) logFaultErr() error {
	if p := l.logFault.Load(); p != nil {
		return *p
	}
	return nil
}

// stepBatch fine-tunes the shadow on one drained batch and logs its step
// marker. Callers hold trainMu.
func (l *Learner) stepBatch(batch []pendingEvent) float64 {
	// An event becomes "seen" for negative sampling the moment it is
	// trained on — without this, a freshly trending object keeps being
	// drawn as its own users' negative, and the trainer fights the very
	// supervision the stream delivers. Marking here (not at Ingest)
	// keeps the seen index a pure function of the trained sequence, so
	// checkpoint restores that Replay the same events stay bit-exact.
	insts := make([]feature.Instance, len(batch))
	for i, ev := range batch {
		l.stepper.MarkSeen(ev.inst.User, ev.inst.Target)
		insts[i] = ev.inst
	}
	stepStart := time.Now()
	loss := l.stepper.Step(insts)
	l.stepHist.Record(time.Since(stepStart))
	l.lastLoss.Store(math.Float64bits(loss))
	l.steps.Add(1)
	l.stepsSincePub++
	stepTS := time.Now().UnixMilli()
	if wlog := l.wlog(); wlog != nil {
		// "Trained through this event, in this exact batch": the record that
		// makes replayed training bit-identical. Appended after the step so
		// a marker never promises training that did not happen; durability
		// rides the group commit (Checkpoint forces a Sync before recording
		// a position that depends on it). The TS stamp is lag accounting
		// only — followers subtract it from each event's ingest stamp, both
		// primary clocks.
		pos, err := wlog.AppendRecord(wal.Record{Type: wal.RecStep, Through: batch[len(batch)-1].seq, TS: stepTS})
		if err != nil {
			l.noteLogFault(fmt.Errorf("online: wal step marker: %w", err))
		} else {
			l.appliedPos = pos
			l.appliedSeq.Store(pos.Seq)
		}
	}
	l.noteTrained(batch, stepTS)
	return loss
}

// noteTrained records the ingest→trained freshness of one batch against the
// step's wall-clock stamp (both stamps from the primary's clock, on primary
// and follower alike) and advances the trained-through lineage anchor.
// Events or steps without a stamp — pre-stamp logs — contribute nothing:
// freshness is unknown there, not zero.
func (l *Learner) noteTrained(batch []pendingEvent, stepTS int64) {
	if stepTS == 0 {
		return
	}
	anchor := l.trainedThroughTS.Load()
	for _, ev := range batch {
		if ev.ts == 0 {
			continue
		}
		l.freshTrained.Record(time.Duration(stepTS-ev.ts) * time.Millisecond)
		if ev.ts > anchor {
			anchor = ev.ts
		}
	}
	for {
		cur := l.trainedThroughTS.Load()
		if anchor <= cur || l.trainedThroughTS.CompareAndSwap(cur, anchor) {
			break
		}
	}
}

// notePublished records one generation's servable freshness (swap stamp
// minus the trained-through ingest stamp, both primary clocks) and appends
// its lineage entry. Called at publish time on the primary and at publish-
// marker apply time on followers and recovery replays; unknown stamps yield
// a lineage entry with no histogram observation.
func (l *Learner) notePublished(gen uint64, tsMS, eventTS int64) {
	e := LineageEntry{Gen: gen, PublishedAtMS: tsMS, DataThroughMS: eventTS}
	if tsMS > 0 && eventTS > 0 {
		d := time.Duration(tsMS-eventTS) * time.Millisecond
		l.freshServable.Record(d)
		if d < 0 {
			d = 0
		}
		e.FreshnessSeconds = d.Seconds()
		e.FreshnessKnown = true
	}
	l.lineageMu.Lock()
	if n := len(l.lineage); n > 0 && l.lineage[n-1].Gen == gen {
		// Re-publish under the same id (snapshot republish) refreshes the
		// entry instead of duplicating it.
		l.lineage[n-1] = e
	} else {
		l.lineage = append(l.lineage, e)
		if len(l.lineage) > lineageRingSize {
			l.lineage = l.lineage[len(l.lineage)-lineageRingSize:]
		}
	}
	l.lineageMu.Unlock()
}

// publish clones the shadow and hot-swaps it into the engine, returning the
// installed generation. Callers hold trainMu (or are constructing the
// learner).
func (l *Learner) publish() uint64 {
	start := time.Now()
	gen := l.eng.Swap(l.model.Clone())
	l.publishHist.Record(time.Since(start))
	l.swaps.Add(1)
	l.stepsSincePub = 0
	return gen
}

// publishAs installs the shadow under an externally assigned generation id —
// the follower path, aligning replica generation numbering with the
// primary's publish markers. Callers hold trainMu.
func (l *Learner) publishAs(gen uint64) uint64 {
	start := time.Now()
	id := l.eng.SwapAs(l.model.Clone(), gen)
	l.publishHist.Record(time.Since(start))
	l.swaps.Add(1)
	l.stepsSincePub = 0
	return id
}

// Checkpoint writes the shadow model, optimizer state and step counter as a
// ckpt v2 stream. Taken under the training lock, so the snapshot is always a
// consistent post-step state. With a WAL, the stream also records the log
// position the snapshot is consistent with — after first fsyncing the log,
// so the snapshot never references markers a crash could lose.
func (l *Learner) Checkpoint(w io.Writer) error {
	l.trainMu.Lock()
	defer l.trainMu.Unlock()
	adam, _ := l.stepper.Optimizer().(*optim.Adam)
	pos, err := l.checkpointPosLocked()
	if err != nil {
		return err
	}
	if err := ckpt.SaveAt(w, l.model, adam, l.stepper.Steps(), pos); err != nil {
		return err
	}
	if pos != nil {
		l.snapSeq.Store(pos.Seq)
	}
	return nil
}

// CheckpointFile atomically writes Checkpoint's stream to path (temp file +
// rename).
func (l *Learner) CheckpointFile(path string) error {
	l.trainMu.Lock()
	defer l.trainMu.Unlock()
	adam, _ := l.stepper.Optimizer().(*optim.Adam)
	pos, err := l.checkpointPosLocked()
	if err != nil {
		return err
	}
	if err := ckpt.SaveFileAt(path, l.model, adam, l.stepper.Steps(), pos); err != nil {
		return err
	}
	if pos != nil {
		l.snapSeq.Store(pos.Seq)
	}
	return nil
}

// checkpointPosLocked returns the log position the snapshot should record
// (nil without a WAL), fsyncing the log first. trainMu must be held.
func (l *Learner) checkpointPosLocked() (*wal.Pos, error) {
	wlog := l.wlog()
	if wlog == nil {
		return nil, nil
	}
	if err := l.logFaultErr(); err != nil {
		return nil, err
	}
	if err := wlog.Sync(); err != nil {
		return nil, fmt.Errorf("online: checkpoint wal sync: %w", err)
	}
	pos := l.appliedPos
	return &pos, nil
}

// Start launches the background trainer: every Config.Interval it drains the
// backlog (when at least Config.MinEvents are pending), fine-tunes, and
// publishes. Start is idempotent while running.
func (l *Learner) Start() {
	l.bg.Lock()
	defer l.bg.Unlock()
	if l.bg.stop != nil {
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	l.bg.stop, l.bg.done = stop, done
	go func() {
		defer close(done)
		ticker := time.NewTicker(l.cfg.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				l.mu.Lock()
				n := len(l.pending) - l.head
				l.mu.Unlock()
				if n >= l.cfg.MinEvents {
					l.Sync()
				}
			}
		}
	}()
}

// Close stops the background trainer and runs one final Sync so no accepted
// event is left untrained. The learner remains usable (Ingest/Sync) after
// Close.
func (l *Learner) Close() {
	l.bg.Lock()
	stop, done := l.bg.stop, l.bg.done
	l.bg.stop, l.bg.done = nil, nil
	l.bg.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	l.Sync()
}

// Config returns the learner's resolved configuration — every zero field
// replaced by the default actually in effect.
func (l *Learner) Config() Config { return l.cfg }

// LR returns the learning rate the fine-tuning optimizer is actually using —
// on a warm start this is the checkpoint's saved rate unless the config
// overrode it, so it can differ from Config().Train.LR.
func (l *Learner) LR() float64 {
	l.trainMu.Lock()
	defer l.trainMu.Unlock()
	if adam, ok := l.stepper.Optimizer().(*optim.Adam); ok {
		return adam.LR()
	}
	return 0
}

// Stats returns a snapshot of the learner's counters.
func (l *Learner) Stats() Stats {
	l.mu.Lock()
	pending := len(l.pending) - l.head
	var oldestAt int64
	if pending > 0 {
		oldestAt = l.pending[l.head].at
	}
	l.mu.Unlock()
	st := Stats{
		Ingested:       l.ingested.Load(),
		Dropped:        l.dropped.Load(),
		Pending:        pending,
		Steps:          l.steps.Load(),
		Swaps:          l.swaps.Load(),
		LastLoss:       math.Float64frombits(l.lastLoss.Load()),
		Generation:     l.eng.Generation(),
		HistoryUsers:   l.store.Users(),
		BacklogRejects: l.backlogRejects.Load(),
		TrainLagEvents: pending,
	}
	if oldestAt > 0 {
		if lag := time.Since(time.Unix(0, oldestAt)); lag > 0 {
			st.TrainLagSeconds = lag.Seconds()
		}
	}
	st.Epoch = l.Epoch()
	if wlog := l.wlog(); wlog != nil {
		st.LogSeq = wlog.Pos().Seq
		st.LogDurableSeq = wlog.DurableSeq()
		st.LogSegments = wlog.Segments()
		st.LogFirstSeq = wlog.FirstSeq()
		st.AppliedSeq = l.appliedSeq.Load()
		st.SnapshotSeq = l.snapSeq.Load()
	}
	return st
}

// WAL returns the learner's durable event log, nil when the learner was
// built without one. The replica endpoints read it; the learner never closes
// it.
func (l *Learner) WAL() *wal.Log { return l.wlog() }

// Generation reports the serving engine's published generation.
func (l *Learner) Generation() uint64 { return l.eng.Generation() }

// StepLatency is the live histogram of fine-tune minibatch (stepper.Step)
// durations; PublishLatency times each publish's clone + engine hot-swap
// (including the index rebuild when retrieval is configured). Register them,
// don't copy them.
func (l *Learner) StepLatency() *obs.Histogram    { return &l.stepHist }
func (l *Learner) PublishLatency() *obs.Histogram { return &l.publishHist }

// lineageRingSize bounds the per-generation lineage ring: enough history to
// see a regression's onset across recent swaps, small enough to never matter.
const lineageRingSize = 32

// LineageEntry is one published generation's provenance: when it became
// servable and how fresh the data baked into it was, all in the primary's
// clock. It backs the /v1/debug/freshness breakdown on primary and follower.
type LineageEntry struct {
	Gen uint64 `json:"gen"`
	// PublishedAtMS is the primary wall clock at the swap; DataThroughMS the
	// ingest stamp of the newest event the generation was trained through
	// (0 = unknown: a pre-stamp log, or a generation published before any
	// stamped event trained).
	PublishedAtMS int64 `json:"published_at_ms"`
	DataThroughMS int64 `json:"data_through_ms,omitempty"`
	// FreshnessSeconds is their delta when both stamps are known.
	FreshnessSeconds float64 `json:"freshness_seconds"`
	FreshnessKnown   bool    `json:"freshness_known"`
}

// TrainedFreshness is the live histogram of ingest → trained-through deltas
// (one observation per trained stamped event); ServableFreshness of ingest →
// servable-swap deltas (one per publish). Both are primary-clock-only deltas,
// so primary and follower report identical values. Register them, don't copy
// them.
func (l *Learner) TrainedFreshness() *obs.Histogram  { return &l.freshTrained }
func (l *Learner) ServableFreshness() *obs.Histogram { return &l.freshServable }

// TrainedThroughTS returns the origin ingest stamp (unix ms, primary clock)
// of the newest event the shadow has trained on — 0 when unknown.
func (l *Learner) TrainedThroughTS() int64 { return l.trainedThroughTS.Load() }

// Lineage returns the recent published generations' provenance, oldest
// first.
func (l *Learner) Lineage() []LineageEntry {
	l.lineageMu.Lock()
	defer l.lineageMu.Unlock()
	out := make([]LineageEntry, len(l.lineage))
	copy(out, l.lineage)
	return out
}
