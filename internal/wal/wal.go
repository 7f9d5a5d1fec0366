// Package wal is the durable write-ahead log that turns the online
// subsystem's determinism contract into crash recovery and replication. The
// serving stack's only stochastic state is train.Stepper's step counter (its
// per-step RNG streams are rederived from {Seed, step, worker}), so a log of
// the ingested event stream — plus markers recording exactly which events
// each training step consumed — is a complete recipe for reconstructing the
// learner: replaying the same records from a snapshot is bit-identical to
// having never crashed, and a follower that tails the same log is a
// bit-identical read replica.
//
// The log is a directory of monotonically numbered segment files. Each
// segment starts with a fixed 24-byte header (magic, segment index, first
// record sequence number) and then holds length+CRC32C-framed records:
//
//	[4B length LE][4B crc32c(payload) LE][payload]
//
// Record sequence numbers are global, dense and implicit: the segment header
// carries the first, and every valid frame increments. Segments rotate at
// Options.SegmentBytes; rotation fsyncs the finished segment and the
// directory, so only the tail segment can ever be torn.
//
// Durability is group-commit by default: Append buffers the frame, and a
// dedicated flusher runs fsyncs back to back for as long as records are
// buffered — each fsync covers every record that accumulated while the
// previous one was on the disk, so N concurrent ingests share ~one flush
// per fsync latency instead of paying one each (pipelined group commit, the
// same discipline as etcd's WAL). WaitDurable parks a caller until the
// fsync covering its record completes; the added latency is at most one
// in-flight fsync. SyncEach fsyncs every record inline (the strictest,
// slowest policy; the benchmark baseline) and SyncNone never fsyncs
// explicitly (page-cache durability only; flushed to the OS on the
// FlushInterval/FlushBytes cadence).
//
// Recovery (Open) scans every segment, verifies headers, frame bounds, CRCs
// and sequence continuity, and truncates at the first bad frame — a torn
// tail, a flipped bit or a duplicated segment never panics and never
// silently skips a record; everything before the damage is kept, everything
// after is discarded, and the recovered position is reported.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"seqfm/internal/obs"
)

// Framing constants.
const (
	// segMagic opens every segment file.
	segMagic = "sqfmwal1"
	// segHeaderSize is the fixed segment header: magic + segment index +
	// first record sequence number.
	segHeaderSize = len(segMagic) + 8 + 8
	// frameHeaderSize prefixes every record: payload length + CRC32C.
	frameHeaderSize = 8
	// MaxRecord bounds a record payload; larger lengths in a frame header
	// are treated as corruption.
	MaxRecord = 1 << 20
	// hintEvery is the stride of the in-memory seq→offset index: one Pos
	// per this many records (collected during the recovery scan and as
	// appends happen) lets a reader seek near its target and scan at most
	// hintEvery-1 frames instead of the whole segment — the difference
	// between O(batch) and O(segment) work per follower long-poll.
	hintEvery = 256
)

// Defaults for Options' zero fields.
const (
	DefaultSegmentBytes  = 64 << 20
	DefaultFlushInterval = 2 * time.Millisecond
	DefaultFlushBytes    = 256 << 10
)

// castagnoli is the CRC32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy int

const (
	// SyncGroup batches fsyncs: a dedicated flusher pipelines them back to
	// back while records are buffered, and WaitDurable blocks until the
	// caller's record is covered. The default.
	SyncGroup SyncPolicy = iota
	// SyncEach fsyncs inside every Append — strictest, slowest.
	SyncEach
	// SyncNone flushes to the OS every FlushInterval (or FlushBytes) but
	// never fsyncs; durability is whatever the page cache survives.
	SyncNone
)

// String names the policy as seqfm-serve -wal-sync and /v1/model spell it.
func (p SyncPolicy) String() string {
	switch p {
	case SyncEach:
		return "each"
	case SyncNone:
		return "none"
	default:
		return "group"
	}
}

// ParsePolicy is String's inverse.
func ParsePolicy(s string) (SyncPolicy, error) {
	switch s {
	case "group":
		return SyncGroup, nil
	case "each":
		return SyncEach, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (group|each|none)", s)
}

// Options parameterises a Log. The zero value takes every default.
type Options struct {
	// SegmentBytes rotates the active segment once it reaches this size.
	// 0 means DefaultSegmentBytes.
	SegmentBytes int64
	// Policy selects the fsync discipline; the zero value is SyncGroup.
	Policy SyncPolicy
	// FlushInterval is SyncNone's OS-flush cadence (group commit pipelines
	// eagerly and does not wait on a timer). 0 means DefaultFlushInterval.
	FlushInterval time.Duration
	// FlushBytes flushes inline once this many bytes are buffered,
	// bounding buffer growth under any policy. 0 means DefaultFlushBytes.
	FlushBytes int
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.FlushInterval <= 0 {
		o.FlushInterval = DefaultFlushInterval
	}
	if o.FlushBytes <= 0 {
		o.FlushBytes = DefaultFlushBytes
	}
	return o
}

// Pos locates a record in the log: its global sequence number plus the
// physical (segment, byte offset) address of its frame. Seq is what replay
// and replication reason about; Segment/Offset are operator-facing
// provenance.
type Pos struct {
	Seq     uint64
	Segment uint64
	Offset  int64
}

// segment is one log file's identity.
type segment struct {
	index    uint64
	firstSeq uint64
	path     string
}

// Log is an append-only segmented record log. Append/WaitDurable/readers are
// safe for concurrent use; one process owns a directory at a time.
type Log struct {
	dir  string
	opts Options

	mu        sync.Mutex
	f         *os.File
	bw        *bufio.Writer
	segs      []segment // every live segment, in order; last is active
	hints     []Pos     // sparse seq→offset index, ascending (every hintEvery-th record)
	seq       uint64    // last assigned sequence number
	segOffset int64     // active segment size including buffered bytes
	pending   int       // buffered bytes awaiting flush
	bootSeq   uint64    // first sequence number when creating a fresh log
	timerOn   bool
	commitCh  chan struct{} // closed and replaced whenever durable advances
	closed    bool
	err       error // first I/O error; sticky

	// flushCh kicks the group-commit flusher (buffered, so kicks coalesce:
	// one token means "there is buffered work", however many appends put it
	// there); flusherDone closes when the flusher exits.
	flushCh     chan struct{}
	flusherDone chan struct{}

	durable atomic.Uint64 // last fsynced (SyncNone: flushed) sequence number

	// Telemetry. fsyncHist times every fsync that advances the durable
	// watermark; lastCommit is how many records the latest such fsync made
	// durable at once (the group-commit batch size — the ratio of ingest
	// throughput to disk fsync rate). Recorded inline with atomics, exposed
	// through FsyncLatency/Fsyncs/AppendedBytes/LastCommitRecords.
	fsyncHist     obs.Histogram
	fsyncs        atomic.Int64
	appendedBytes atomic.Int64
	lastCommit    atomic.Int64

	recovered Pos  // end of valid data found by Open
	truncated bool // Open discarded a bad tail

	// lockFile holds the directory's advisory flock for the life of the
	// log; the kernel releases it on process death, so a crashed owner
	// never wedges a restart.
	lockFile *os.File
}

// Open opens (creating if needed) the log directory, recovers it — scanning
// every segment, verifying headers, frame CRCs and sequence continuity, and
// truncating at the first bad frame — and positions the writer at the end of
// the valid data. The recovered position is available via Recovered, and
// Truncated reports whether a damaged tail was discarded. A compacted log
// (oldest segments removed below a checkpoint) opens normally; FirstSeq
// reports where the surviving records start.
func Open(dir string, opts Options) (*Log, error) {
	return open(dir, opts, 1, false)
}

// OpenAt creates a log in an empty directory whose first record will be
// assigned sequence number firstSeq — the promotion primitive: a follower
// that has applied its primary's log through seq N continues the global
// numbering in a log of its own starting at N+1. A directory that already
// holds segments is rejected (an existing log has its own numbering; use
// Open for that).
func OpenAt(dir string, firstSeq uint64, opts Options) (*Log, error) {
	if firstSeq == 0 {
		return nil, errors.New("wal: sequence numbers start at 1")
	}
	return open(dir, opts, firstSeq, true)
}

func open(dir string, opts Options, firstSeq uint64, mustBeEmpty bool) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, opts: opts.withDefaults(), bootSeq: firstSeq, commitCh: make(chan struct{})}
	// One process owns a log directory at a time: a second concurrent
	// writer would interleave frames under an independent sequence counter,
	// and the *next* recovery would silently truncate acknowledged data at
	// the resulting mismatch. An advisory flock turns that corruption into
	// a fast, loud startup error — and evaporates with the owner process,
	// so a crash never wedges the restart.
	lf, err := os.OpenFile(filepath.Join(dir, "wal.lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := syscall.Flock(int(lf.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lf.Close()
		return nil, fmt.Errorf("wal: %s is locked by another process: %w", dir, err)
	}
	l.lockFile = lf
	if mustBeEmpty {
		segs, err := listSegments(dir)
		if err != nil {
			lf.Close()
			return nil, err
		}
		if len(segs) > 0 {
			lf.Close()
			return nil, fmt.Errorf("wal: %s already holds %d segment(s); OpenAt requires an empty directory", dir, len(segs))
		}
	}
	if err := l.recover(); err != nil {
		lf.Close()
		return nil, err
	}
	l.durable.Store(l.seq)
	l.recovered = Pos{Seq: l.seq, Segment: l.activeSegment().index, Offset: l.segOffset}
	if l.opts.Policy == SyncGroup {
		l.flushCh = make(chan struct{}, 1)
		l.flusherDone = make(chan struct{})
		go l.flusher()
	}
	return l, nil
}

// flusher is the pipelined group-commit loop: as long as appends keep
// buffering records, it runs flush+fsync cycles back to back, each cycle
// committing everything that accumulated during the previous one. Appends
// arriving mid-fsync block only on the mutex, re-kick the channel (the
// buffered token coalesces any number of kicks), and are covered by the
// very next cycle — so the commit latency an Append observes is at most
// one in-flight fsync, and throughput scales with how many appenders share
// each cycle rather than with the disk's fsync rate.
func (l *Log) flusher() {
	defer close(l.flusherDone)
	for range l.flushCh {
		l.groupCycle()
	}
}

// groupCycle runs one pipelined commit cycle: push the buffer to the file
// under the lock, fsync *outside* it — so appenders keep buffering the next
// group while the disk works — then advance the durable watermark. The
// whole cycle's batch is everything that accumulated since the previous
// fsync, which is what makes group-commit throughput scale with the number
// of concurrent appenders instead of the disk's fsync rate.
func (l *Log) groupCycle() {
	l.mu.Lock()
	if l.pending == 0 || l.closed || l.err != nil {
		l.mu.Unlock()
		return
	}
	if err := l.bw.Flush(); err != nil {
		_ = l.fail(err)
		l.mu.Unlock()
		return
	}
	seq, f := l.seq, l.f
	l.pending = 0
	l.mu.Unlock()

	start := time.Now()
	serr := f.Sync()
	elapsed := time.Since(start)

	l.mu.Lock()
	switch {
	case serr != nil && f == l.f && !l.closed:
		_ = l.fail(serr)
	case serr != nil:
		// The segment rotated (or the log closed) mid-fsync and the file
		// was closed under us; rotation fsyncs the sealed segment itself
		// and advances durable, so the error is benign and the watermark
		// is already correct.
	case seq > l.durable.Load():
		l.fsyncHist.Record(elapsed)
		l.fsyncs.Add(1)
		l.lastCommit.Store(int64(seq - l.durable.Load()))
		l.durable.Store(seq)
		close(l.commitCh)
		l.commitCh = make(chan struct{})
	}
	l.mu.Unlock()
}

// kickFlusher schedules a group-commit cycle; the buffered channel makes it
// non-blocking and idempotent.
func (l *Log) kickFlusher() {
	select {
	case l.flushCh <- struct{}{}:
	default:
	}
}

// listSegments returns the directory's segment files sorted by index.
func listSegments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []segment
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		var idx uint64
		if _, err := fmt.Sscanf(e.Name(), "%016d.wal", &idx); err != nil || segName(idx) != e.Name() {
			continue
		}
		segs = append(segs, segment{index: idx, path: filepath.Join(dir, e.Name())})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].index < segs[j].index })
	return segs, nil
}

func segName(index uint64) string { return fmt.Sprintf("%016d.wal", index) }

// recover scans the directory and leaves the log positioned for appending
// after the last valid record.
func (l *Log) recover() error {
	segs, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	if len(segs) == 0 {
		return l.createSegment(1, l.bootSeq)
	}
	var (
		valid    []segment
		lastSeq  uint64
		validEnd int64
	)
	for i := range segs {
		s := &segs[i]
		firstSeq, end, nrecs, hints, ok, err := scanSegment(s.path, s.index)
		if err != nil {
			return err
		}
		// A segment is a valid continuation only if its header parses, its
		// embedded index matches its filename, and its first sequence number
		// continues the previous segment exactly. A duplicated or stale tail
		// segment fails here and is discarded with everything after it.
		if firstSeq == 0 || (len(valid) > 0 && firstSeq != lastSeq+1) {
			l.truncated = true
			for _, drop := range segs[i:] {
				if rmErr := os.Remove(drop.path); rmErr != nil {
					return fmt.Errorf("wal: drop invalid segment: %w", rmErr)
				}
			}
			break
		}
		s.firstSeq = firstSeq
		valid = append(valid, *s)
		l.hints = append(l.hints, hints...)
		lastSeq = firstSeq + nrecs - 1
		if nrecs == 0 {
			lastSeq = firstSeq - 1
		}
		validEnd = end
		if !ok {
			// Bad frame inside this segment: truncate it here and discard
			// every later segment.
			l.truncated = true
			if err := os.Truncate(s.path, end); err != nil {
				return fmt.Errorf("wal: truncate torn tail: %w", err)
			}
			for _, drop := range segs[i+1:] {
				if rmErr := os.Remove(drop.path); rmErr != nil {
					return fmt.Errorf("wal: drop invalid segment: %w", rmErr)
				}
			}
			break
		}
	}
	if len(valid) == 0 {
		// Nothing usable at all (first segment's header was damaged).
		return l.createSegment(1, l.bootSeq)
	}
	l.segs = valid
	l.seq = lastSeq
	l.segOffset = validEnd
	tail := valid[len(valid)-1]
	f, err := os.OpenFile(tail.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Truncate(validEnd); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Seek(validEnd, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	// Make the truncation itself durable before accepting new appends.
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.bw = bufio.NewWriterSize(f, 1<<16)
	return nil
}

// scanSegment validates one segment file. It returns the header's first
// sequence number (0 if the header is unusable or its index mismatches the
// filename), the byte offset just past the last valid frame, the number of
// valid records, the seq→offset hints for the valid prefix, and ok=false
// when the segment ends in a bad frame (torn, oversized or CRC-mismatched).
func scanSegment(path string, wantIndex uint64) (firstSeq uint64, end int64, nrecs uint64, hints []Pos, ok bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, nil, false, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return 0, 0, 0, nil, false, fmt.Errorf("wal: %w", err)
	}
	size := info.Size()
	header := make([]byte, segHeaderSize)
	if _, err := io.ReadFull(f, header); err != nil {
		return 0, 0, 0, nil, false, nil // header torn: segment unusable
	}
	if string(header[:len(segMagic)]) != segMagic {
		return 0, 0, 0, nil, false, nil
	}
	idx := binary.LittleEndian.Uint64(header[len(segMagic):])
	first := binary.LittleEndian.Uint64(header[len(segMagic)+8:])
	if idx != wantIndex || first == 0 {
		return 0, 0, 0, nil, false, nil
	}
	br := bufio.NewReaderSize(f, 1<<16)
	end = int64(segHeaderSize)
	var fh [frameHeaderSize]byte
	buf := make([]byte, 0, 4096)
	for {
		if _, err := io.ReadFull(br, fh[:]); err != nil {
			return first, end, nrecs, hints, true, nil // clean end
		}
		n := binary.LittleEndian.Uint32(fh[:4])
		if n == 0 || n > MaxRecord || end+frameHeaderSize+int64(n) > size {
			return first, end, nrecs, hints, false, nil // torn or corrupt length
		}
		if cap(buf) < int(n) {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(br, buf); err != nil {
			return first, end, nrecs, hints, false, nil
		}
		if crc32.Checksum(buf, castagnoli) != binary.LittleEndian.Uint32(fh[4:]) {
			return first, end, nrecs, hints, false, nil
		}
		if seq := first + nrecs; seq%hintEvery == 0 {
			hints = append(hints, Pos{Seq: seq, Segment: wantIndex, Offset: end})
		}
		nrecs++
		end += frameHeaderSize + int64(n)
	}
}

// createSegment starts a fresh segment file (the caller guarantees index and
// firstSeq continue the log) and fsyncs the directory so the file itself
// survives a crash.
func (l *Log) createSegment(index, firstSeq uint64) error {
	path := filepath.Join(l.dir, segName(index))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	header := make([]byte, segHeaderSize)
	copy(header, segMagic)
	binary.LittleEndian.PutUint64(header[len(segMagic):], index)
	binary.LittleEndian.PutUint64(header[len(segMagic)+8:], firstSeq)
	if _, err := f.Write(header); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.bw = bufio.NewWriterSize(f, 1<<16)
	l.segs = append(l.segs, segment{index: index, firstSeq: firstSeq, path: path})
	l.segOffset = int64(segHeaderSize)
	l.seq = firstSeq - 1
	return nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}

// activeSegment returns the segment currently appended to.
func (l *Log) activeSegment() segment { return l.segs[len(l.segs)-1] }

// Append buffers one record and returns its position, then waits for
// durability per the sync policy: SyncEach returns after its own fsync,
// SyncGroup after the group fsync covering it, SyncNone immediately.
func (l *Log) Append(payload []byte) (Pos, error) {
	pos, err := l.AppendAsync(payload)
	if err != nil {
		return pos, err
	}
	if l.opts.Policy == SyncGroup {
		if err := l.WaitDurable(pos.Seq); err != nil {
			return pos, err
		}
	}
	return pos, nil
}

// AppendAsync buffers one record and returns its position without waiting
// for durability (SyncEach still fsyncs inline). Callers that must not block
// inside their own critical section append here and WaitDurable after
// releasing it — the log preserves append order, which is what makes a
// replayed sequence match the live one.
func (l *Log) AppendAsync(payload []byte) (Pos, error) {
	if len(payload) == 0 || len(payload) > MaxRecord {
		return Pos{}, fmt.Errorf("wal: record size %d outside (0,%d]", len(payload), MaxRecord)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return Pos{}, errors.New("wal: log closed")
	}
	if l.err != nil {
		return Pos{}, l.err
	}
	if l.segOffset >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return Pos{}, err
		}
	}
	var fh [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(fh[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(fh[4:], crc32.Checksum(payload, castagnoli))
	if _, err := l.bw.Write(fh[:]); err != nil {
		return Pos{}, l.fail(err)
	}
	if _, err := l.bw.Write(payload); err != nil {
		return Pos{}, l.fail(err)
	}
	l.seq++
	pos := Pos{Seq: l.seq, Segment: l.activeSegment().index, Offset: l.segOffset}
	if l.seq%hintEvery == 0 {
		l.hints = append(l.hints, pos)
	}
	l.segOffset += frameHeaderSize + int64(len(payload))
	l.pending += frameHeaderSize + len(payload)
	l.appendedBytes.Add(frameHeaderSize + int64(len(payload)))
	switch l.opts.Policy {
	case SyncEach:
		if err := l.flushLocked(true); err != nil {
			return Pos{}, err
		}
	case SyncGroup:
		if l.pending >= l.opts.FlushBytes {
			// Bound buffer growth inline; the fsync still covers the group.
			if err := l.flushLocked(true); err != nil {
				return Pos{}, err
			}
		} else {
			l.kickFlusher()
		}
	case SyncNone: // flush to the OS on bytes threshold or timer
		if l.pending >= l.opts.FlushBytes {
			if err := l.flushLocked(false); err != nil {
				return Pos{}, err
			}
		} else if !l.timerOn {
			l.timerOn = true
			time.AfterFunc(l.opts.FlushInterval, l.flushTimer)
		}
	}
	return pos, nil
}

// fail records the first I/O error (sticky) and wakes every waiter so they
// observe it instead of blocking forever. l.mu must be held.
func (l *Log) fail(err error) error {
	if l.err == nil {
		l.err = fmt.Errorf("wal: %w", err)
		close(l.commitCh)
		l.commitCh = make(chan struct{})
	}
	return l.err
}

// flushTimer is SyncNone's OS-flush deadline path.
func (l *Log) flushTimer() {
	l.mu.Lock()
	l.timerOn = false
	if !l.closed && l.err == nil && l.pending > 0 {
		_ = l.flushLocked(false)
	}
	l.mu.Unlock()
}

// flushLocked pushes buffered frames to the file (and fsyncs when sync),
// advances the durable watermark and wakes waiters. l.mu must be held.
func (l *Log) flushLocked(sync bool) error {
	if err := l.bw.Flush(); err != nil {
		return l.fail(err)
	}
	if sync {
		start := time.Now()
		if err := l.f.Sync(); err != nil {
			return l.fail(err)
		}
		l.fsyncHist.Record(time.Since(start))
		l.fsyncs.Add(1)
	}
	l.pending = 0
	if l.seq > l.durable.Load() {
		if sync {
			l.lastCommit.Store(int64(l.seq - l.durable.Load()))
		}
		l.durable.Store(l.seq)
		close(l.commitCh)
		l.commitCh = make(chan struct{})
	}
	return nil
}

// rotateLocked finishes the active segment (flush + fsync, regardless of
// policy: a sealed segment must never be torn) and opens the next.
func (l *Log) rotateLocked() error {
	if err := l.flushLocked(true); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return l.fail(err)
	}
	next := l.activeSegment().index + 1
	if err := l.createSegment(next, l.seq+1); err != nil {
		return l.fail(err)
	}
	return nil
}

// WaitDurable blocks until every record up to seq is durable (per the
// policy) or the log fails.
func (l *Log) WaitDurable(seq uint64) error {
	for {
		if l.durable.Load() >= seq {
			return nil
		}
		l.mu.Lock()
		if l.err != nil {
			err := l.err
			l.mu.Unlock()
			return err
		}
		if l.closed {
			l.mu.Unlock()
			return errors.New("wal: log closed")
		}
		if l.durable.Load() >= seq {
			l.mu.Unlock()
			return nil
		}
		ch := l.commitCh
		l.mu.Unlock()
		<-ch
	}
}

// WaitAppend blocks until the durable watermark moves past seq, or the
// timeout elapses, or the log closes. It returns the current watermark —
// the long-poll primitive behind follower log shipping.
func (l *Log) WaitAppend(seq uint64, timeout time.Duration) uint64 {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		if d := l.durable.Load(); d > seq {
			return d
		}
		l.mu.Lock()
		if l.closed || l.err != nil {
			l.mu.Unlock()
			return l.durable.Load()
		}
		ch := l.commitCh
		l.mu.Unlock()
		select {
		case <-ch:
		case <-deadline.C:
			return l.durable.Load()
		}
	}
}

// Sync forces buffered records to disk (an fsync even under SyncNone) —
// called before a checkpoint references the log position.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: log closed")
	}
	if l.err != nil {
		return l.err
	}
	return l.flushLocked(true)
}

// Pos reports the end of the log: Seq is the last appended record's
// sequence number (the next Append gets Seq+1), Segment/Offset the byte
// position one past its frame — where the next frame lands.
func (l *Log) Pos() Pos {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Pos{Seq: l.seq, Segment: l.activeSegment().index, Offset: l.segOffset}
}

// DurableSeq returns the last durable sequence number.
func (l *Log) DurableSeq() uint64 { return l.durable.Load() }

// FirstSeq returns the first sequence number still present in the log — 1
// for a never-compacted log opened with Open, higher once Compact has
// removed sealed segments (or for a promotion log created with OpenAt).
func (l *Log) FirstSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segs[0].firstSeq
}

// CompactStats reports what a Compact call removed and where the log now
// starts.
type CompactStats struct {
	Removed  int    // segment files deleted
	FirstSeq uint64 // first sequence number still in the log
}

// Compact removes sealed segments whose records all have sequence numbers
// at or below through — the caller promises a durable checkpoint covers
// them, so replay will never need them again. The active segment and any
// segment straddling the boundary survive, so compaction never loses a
// record above through. Segments are unlinked oldest-first and the
// directory is fsynced once at the end: a crash at any point leaves a valid
// log whose prefix is merely shorter (recovery tolerates a first segment
// starting past seq 1), never a log with a hole.
func (l *Log) Compact(through uint64) (CompactStats, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return CompactStats{}, errors.New("wal: log closed")
	}
	if l.err != nil {
		return CompactStats{}, l.err
	}
	removed := 0
	for len(l.segs) > 1 && l.segs[1].firstSeq <= through+1 {
		if err := os.Remove(l.segs[0].path); err != nil {
			return CompactStats{Removed: removed, FirstSeq: l.segs[0].firstSeq}, fmt.Errorf("wal: compact: %w", err)
		}
		l.segs = l.segs[1:]
		removed++
	}
	first := l.segs[0].firstSeq
	if removed > 0 {
		if err := syncDir(l.dir); err != nil {
			return CompactStats{Removed: removed, FirstSeq: first}, err
		}
		// Drop hints that point into removed segments.
		keep := 0
		for keep < len(l.hints) && l.hints[keep].Seq < first {
			keep++
		}
		l.hints = append([]Pos(nil), l.hints[keep:]...)
	}
	return CompactStats{Removed: removed, FirstSeq: first}, nil
}

// Segments returns how many live segment files the log spans.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// Recovered reports where Open's scan ended: the last valid record's
// position. Truncated reports whether damaged data was discarded to get
// there.
func (l *Log) Recovered() Pos     { return l.recovered }
func (l *Log) Truncated() bool    { return l.truncated }
func (l *Log) Dir() string        { return l.dir }
func (l *Log) Policy() SyncPolicy { return l.opts.Policy }

// Err returns the log's sticky I/O error, if any — the health signal a
// readiness probe checks: once an append or fsync has failed, every further
// durability promise is void until the process restarts.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// FsyncLatency is the histogram of watermark-advancing fsync durations. The
// returned histogram is live (the log keeps recording into it); register it,
// don't copy it.
func (l *Log) FsyncLatency() *obs.Histogram { return &l.fsyncHist }

// Fsyncs returns how many fsyncs the log has issued.
func (l *Log) Fsyncs() int64 { return l.fsyncs.Load() }

// AppendedBytes returns the total framed bytes appended since Open —
// recovered data is not counted.
func (l *Log) AppendedBytes() int64 { return l.appendedBytes.Load() }

// LastCommitRecords returns how many records the most recent durable commit
// covered at once — the live group-commit batch size.
func (l *Log) LastCommitRecords() int64 { return l.lastCommit.Load() }

// Close flushes and fsyncs outstanding records, stops the flusher and
// closes the active segment. Further appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	err := l.flushLocked(true)
	l.closed = true
	close(l.commitCh)
	l.commitCh = make(chan struct{})
	if cerr := l.f.Close(); err == nil && cerr != nil {
		err = l.fail(cerr)
	}
	l.mu.Unlock()
	if l.flushCh != nil {
		close(l.flushCh)
		<-l.flusherDone
	}
	if cerr := l.lockFile.Close(); err == nil && cerr != nil { // releases the flock
		err = cerr
	}
	return err
}

// segmentFor locates the segment containing seq. ok is false when seq is
// outside the log.
func (l *Log) segmentFor(seq uint64) (segment, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq == 0 || seq > l.seq {
		return segment{}, false
	}
	for i := len(l.segs) - 1; i >= 0; i-- {
		if l.segs[i].firstSeq <= seq {
			return l.segs[i], true
		}
	}
	return segment{}, false
}

// hintFor returns the position of the latest indexed record at or before
// seq, if any.
func (l *Log) hintFor(seq uint64) (Pos, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	lo, hi := 0, len(l.hints)
	for lo < hi { // first hint with Seq > seq
		mid := (lo + hi) / 2
		if l.hints[mid].Seq <= seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return Pos{}, false
	}
	return l.hints[lo-1], true
}

// Reader iterates committed records in sequence order. It reads only up to
// the log's durable watermark — a record still waiting in the group-commit
// buffer is invisible, so a follower can never apply state its primary could
// lose. Next returns io.EOF at the watermark; the caller may retry after
// WaitAppend. A Reader is not safe for concurrent use.
type Reader struct {
	l       *Log
	f       *os.File
	br      *bufio.Reader
	seg     segment
	nextSeq uint64
	offset  int64
}

// ReaderAt opens a reader positioned at sequence number from (1 reads the
// whole log). from may exceed the durable watermark; the reader simply
// returns io.EOF until the log catches up.
func (l *Log) ReaderAt(from uint64) (*Reader, error) {
	if from == 0 {
		return nil, errors.New("wal: sequence numbers start at 1")
	}
	if first := l.FirstSeq(); from < first {
		// The records are gone, not merely unread: starting later silently
		// would hand the caller a stream with a hole at its head.
		return nil, fmt.Errorf("wal: seq %d predates the log's first surviving record %d (compacted)", from, first)
	}
	return &Reader{l: l, nextSeq: from}, nil
}

// open positions the reader's file handle at r.nextSeq, which must be
// durable. The sparse hint index bounds the skip-scan to under hintEvery
// frames, so re-opening a reader deep into a large segment (every follower
// long-poll does) costs O(batch), not O(segment).
func (r *Reader) open() error {
	seg, ok := r.l.segmentFor(r.nextSeq)
	if !ok {
		return fmt.Errorf("wal: seq %d not in log", r.nextSeq)
	}
	startSeq, startOff := seg.firstSeq, int64(segHeaderSize)
	if h, ok := r.l.hintFor(r.nextSeq); ok && h.Segment == seg.index && h.Seq >= startSeq {
		startSeq, startOff = h.Seq, h.Offset
	}
	f, err := os.Open(seg.path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Seek(startOff, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	r.f, r.br, r.seg, r.offset = f, bufio.NewReaderSize(f, 1<<16), seg, startOff
	// Skip records before the requested sequence number.
	for seq := startSeq; seq < r.nextSeq; seq++ {
		if _, _, err := r.readFrame(); err != nil {
			f.Close()
			r.f = nil
			return fmt.Errorf("wal: seek to seq %d: %w", r.nextSeq, err)
		}
	}
	return nil
}

// readFrame decodes one frame at the current offset; the caller has
// established that a durable record lives there.
func (r *Reader) readFrame() ([]byte, Pos, error) {
	var fh [frameHeaderSize]byte
	if _, err := io.ReadFull(r.br, fh[:]); err != nil {
		return nil, Pos{}, err
	}
	n := binary.LittleEndian.Uint32(fh[:4])
	if n == 0 || n > MaxRecord {
		return nil, Pos{}, fmt.Errorf("bad frame length %d", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r.br, payload); err != nil {
		return nil, Pos{}, err
	}
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(fh[4:]) {
		return nil, Pos{}, errors.New("crc mismatch")
	}
	pos := Pos{Seq: r.nextSeq, Segment: r.seg.index, Offset: r.offset}
	r.offset += frameHeaderSize + int64(n)
	return payload, pos, nil
}

// Next returns the next committed record, or io.EOF once the reader has
// consumed everything durable.
func (r *Reader) Next() ([]byte, Pos, error) {
	if r.nextSeq > r.l.durable.Load() {
		return nil, Pos{}, io.EOF
	}
	if r.f == nil {
		if err := r.open(); err != nil {
			return nil, Pos{}, err
		}
	}
	// The writer may have rotated past this segment: if the durable record
	// we want starts a later segment, advance.
	if seg, ok := r.l.segmentFor(r.nextSeq); ok && seg.index != r.seg.index {
		r.f.Close()
		r.f = nil
		if err := r.open(); err != nil {
			return nil, Pos{}, err
		}
	}
	payload, pos, err := r.readFrame()
	if err != nil {
		return nil, Pos{}, fmt.Errorf("wal: read seq %d: %w", r.nextSeq, err)
	}
	r.nextSeq++
	return payload, pos, nil
}

// Close releases the reader's file handle. The log itself is unaffected.
func (r *Reader) Close() error {
	if r.f != nil {
		err := r.f.Close()
		r.f = nil
		return err
	}
	return nil
}
