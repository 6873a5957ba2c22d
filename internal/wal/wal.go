package wal

import (
	"errors"
	"fmt"
	"path"
	"sync"
	"sync/atomic"
	"time"

	"skipvector/internal/chaos"
	"skipvector/internal/telemetry"
)

// SyncPolicy selects when appended records become durable.
type SyncPolicy int

const (
	// SyncEveryCommit fsyncs before acknowledging each commit. Concurrent
	// committers group-commit: whoever reaches the sync mutex first pays one
	// fsync for every record appended so far, and the others observe their
	// target already durable and return without syncing.
	SyncEveryCommit SyncPolicy = iota
	// SyncInterval acknowledges immediately and fsyncs on a background
	// ticker: a crash loses at most the last interval's acknowledged writes,
	// never a torn or reordered prefix.
	SyncInterval
	// SyncOS acknowledges immediately and never fsyncs (the OS page cache
	// decides); durability is only as strong as the host's crash behavior.
	SyncOS
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncEveryCommit:
		return "commit"
	case SyncInterval:
		return "interval"
	case SyncOS:
		return "os"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// Options tunes a Log.
type Options struct {
	// FS is the filesystem; nil selects the OS.
	FS FS
	// Policy is the fsync policy (default SyncEveryCommit).
	Policy SyncPolicy
	// Interval is the background fsync cadence under SyncInterval
	// (default 2ms).
	Interval time.Duration
	// SegmentBytes rotates the op segment past this size (default 64 MiB).
	SegmentBytes int64
}

func (o *Options) fill() {
	if o.FS == nil {
		o.FS = OSFS()
	}
	if o.Interval <= 0 {
		o.Interval = 2 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
}

// ErrClosed is returned by operations on a closed Log.
var ErrClosed = errors.New("wal: log closed")

// Log is the append-only chunk log. Appends are serialized by an internal
// mutex and may be issued from any goroutine — including from under the
// map's node locks, which is exactly how the commit hooks keep log order
// consistent with linearization order. Durability waits (Commit, Sync)
// never run under those locks.
type Log struct {
	fs   FS
	dir  string
	opts Options

	// appendMu serializes appends, rotation, and manifest replacement.
	appendMu sync.Mutex
	err      error // sticky failure; poisons all further appends
	closed   bool
	tailFile File
	tailSize int64
	mf       *manifest
	nextID   uint64
	encBuf   []byte
	frameBuf []byte
	// wbuf stages framed records in memory; they reach the tail file only on
	// an fsync path (Commit/Sync/flush ticker), rotation, or when the stage
	// exceeds flushThreshold. Commit hooks fire on the map's hot path under
	// chunk locks, so the per-record cost must be a memcpy, not a write
	// syscall — durability-wise the stage is equivalent to the page cache:
	// both are volatile until the fsync that acknowledgements wait on.
	wbuf []byte
	// retired keeps rotated-out segment handles open until pruned or closed,
	// so a concurrent group commit's captured handle is always syncable.
	retired map[string]File

	// tailLSN counts records appended; durableLSN trails it, advanced by
	// fsyncs. Group commit compares the two to skip redundant syncs.
	tailLSN    atomic.Uint64
	durableLSN atomic.Uint64
	syncMu     sync.Mutex // serializes fsyncs: the group-commit queue

	// unitMu drains batch commit units across the checkpoint boundary: every
	// open unit holds the read side for its whole ApplyBatch, and
	// BeginCheckpoint takes the write side so no unit's frames can straddle
	// the boundary (a checkpoint must never absorb half a batch).
	unitMu  sync.RWMutex
	unitSeq atomic.Uint64

	// flusher (SyncInterval only).
	stopFlush chan struct{}
	flushDone chan struct{}

	reg *telemetry.Registry
	c   counters
}

// counters are the log's telemetry sources; func-backed collectors in the
// registry read them at scrape time.
type counters struct {
	bytesAppended   atomic.Uint64
	recordsAppended atomic.Uint64
	fsyncs          atomic.Uint64
	checkpoints     atomic.Uint64
	ckptChunks      atomic.Uint64
	segsCreated     atomic.Uint64
	segsPruned      atomic.Uint64

	// Recovery results, set once at Open.
	recScanned    atomic.Uint64
	recReplayed   atomic.Uint64
	recDropped    atomic.Uint64
	recTruncs     atomic.Uint64
	recTruncBytes atomic.Uint64
}

// Open opens (or creates) the log directory, runs recovery, truncates any
// torn tail, and returns the log ready for appends together with what
// recovery found. The caller replays rec into its map before appending.
func Open(dir string, opts Options) (*Log, *Recovery, error) {
	opts.fill()
	l := &Log{
		fs:      opts.FS,
		dir:     dir,
		opts:    opts,
		retired: make(map[string]File),
	}
	if err := l.fs.MkdirAll(dir); err != nil {
		return nil, nil, err
	}
	rec, err := l.recover()
	if err != nil {
		return nil, nil, err
	}
	l.initMetrics()
	if opts.Policy == SyncInterval {
		l.stopFlush = make(chan struct{})
		l.flushDone = make(chan struct{})
		go l.flushLoop()
	}
	return l, rec, nil
}

func (l *Log) initMetrics() {
	r := telemetry.NewRegistry()
	l.reg = r
	r.CounterFunc("sv_wal_bytes_appended_total", "Frame bytes appended to op segments.", func() int64 { return int64(l.c.bytesAppended.Load()) })
	r.CounterFunc("sv_wal_records_appended_total", "Records appended to op segments.", func() int64 { return int64(l.c.recordsAppended.Load()) })
	r.CounterFunc("sv_wal_fsyncs_total", "fsync calls issued (group commit batches waiters behind one).", func() int64 { return int64(l.c.fsyncs.Load()) })
	r.CounterFunc("sv_wal_checkpoints_total", "Checkpoints committed by online compaction.", func() int64 { return int64(l.c.checkpoints.Load()) })
	r.CounterFunc("sv_wal_checkpoint_chunks_total", "Chunk images written by checkpoints.", func() int64 { return int64(l.c.ckptChunks.Load()) })
	r.CounterFunc("sv_wal_segments_created_total", "Op segments created (initial, rotation, checkpoint boundary).", func() int64 { return int64(l.c.segsCreated.Load()) })
	r.CounterFunc("sv_wal_segments_pruned_total", "Files deleted once a committed checkpoint unreferenced them.", func() int64 { return int64(l.c.segsPruned.Load()) })
	r.CounterFunc("sv_wal_records_scanned_total", "Intact records decoded by this open's recovery.", func() int64 { return int64(l.c.recScanned.Load()) })
	r.CounterFunc("sv_wal_records_replayed_total", "Scanned records applied by recovery (ops and committed batch frames).", func() int64 { return int64(l.c.recReplayed.Load()) })
	r.CounterFunc("sv_wal_records_dropped_total", "Scanned batch-part records dropped because their unit never committed.", func() int64 { return int64(l.c.recDropped.Load()) })
	r.CounterFunc("sv_wal_recovery_truncations_total", "Recoveries that truncated a torn or corrupt tail.", func() int64 { return int64(l.c.recTruncs.Load()) })
	r.CounterFunc("sv_wal_recovery_truncated_bytes_total", "Bytes discarded by recovery truncation.", func() int64 { return int64(l.c.recTruncBytes.Load()) })
	r.GaugeFunc("sv_wal_segments_live", "Files the manifest currently references.", func() float64 {
		l.appendMu.Lock()
		defer l.appendMu.Unlock()
		n := len(l.mf.segments)
		if l.mf.checkpoint != "" {
			n++
		}
		return float64(n)
	})
	r.GaugeFunc("sv_wal_durable_lag_records", "Appended records not yet known durable.", func() float64 {
		return float64(l.tailLSN.Load() - l.durableLSN.Load())
	})
}

// Registry exposes the log's metric catalog for view composition.
func (l *Log) Registry() *telemetry.Registry { return l.reg }

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// Err returns the sticky append failure, if any. Once an append or sync
// fails the log is poisoned: the in-memory map may be ahead of the durable
// log, so further appends are refused rather than leaving a gap. A closed
// log reports ErrClosed: no write issued after Close can be acknowledged,
// because none of it reached the log.
func (l *Log) Err() error {
	l.appendMu.Lock()
	defer l.appendMu.Unlock()
	if l.err != nil {
		return l.err
	}
	if l.closed {
		return ErrClosed
	}
	return nil
}

// appendRecord frames and appends one payload built by enc into the encode
// buffer. Called from commit hooks (under map node locks): it must never
// block on durability, only on the append mutex.
func (l *Log) appendRecord(enc func(dst []byte) []byte) error {
	l.appendMu.Lock()
	defer l.appendMu.Unlock()
	if l.err != nil {
		return l.err
	}
	if l.closed {
		return ErrClosed
	}
	l.encBuf = enc(l.encBuf[:0])
	l.frameBuf = appendFrame(l.frameBuf[:0], l.encBuf)
	l.wbuf = append(l.wbuf, l.frameBuf...)
	l.tailSize += int64(len(l.frameBuf))
	l.c.bytesAppended.Add(uint64(len(l.frameBuf)))
	l.c.recordsAppended.Add(1)
	l.tailLSN.Add(1)
	if len(l.wbuf) >= flushThreshold {
		if err := l.flushLocked(); err != nil {
			return err
		}
	}
	if l.tailSize >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			l.err = err
			return err
		}
	}
	return nil
}

// flushThreshold caps the staged-record buffer; one write syscall drains it.
const flushThreshold = 256 << 10

// flushLocked writes the staged records to the tail file. Caller holds
// appendMu. A failed flush poisons the log: the stage is dropped and every
// record in it was unacknowledged by definition (acks wait on fsync, which
// flushes first).
func (l *Log) flushLocked() error {
	if len(l.wbuf) == 0 {
		return nil
	}
	if _, err := l.tailFile.Write(l.wbuf); err != nil {
		l.err = fmt.Errorf("wal: append: %w", err)
		l.wbuf = l.wbuf[:0]
		return l.err
	}
	l.wbuf = l.wbuf[:0]
	return nil
}

// AppendOps appends one self-committed op record (a singleton write or a
// serializable range update).
func (l *Log) AppendOps(ops []Op) error {
	return l.appendRecord(func(dst []byte) []byte { return encodeOps(dst, ops) })
}

// BeginUnit opens a batch commit unit and returns its id. The unit holds
// the checkpoint drain (unitMu read side) until EndUnit, so a checkpoint
// boundary can never split it. Every BeginUnit must be paired with EndUnit.
func (l *Log) BeginUnit() uint64 {
	l.unitMu.RLock()
	return l.unitSeq.Add(1)
}

// AppendBatchPart appends one group commit's effective ops under unit.
func (l *Log) AppendBatchPart(unit uint64, ops []Op) error {
	return l.appendRecord(func(dst []byte) []byte { return encodeBatchPart(dst, unit, ops) })
}

// EndUnit appends unit's commit marker and releases the checkpoint drain.
// Recovery replays the unit's parts only when this marker reached the disk,
// so a crash mid-batch can never surface a torn batch.
func (l *Log) EndUnit(unit uint64) error {
	err := l.appendRecord(func(dst []byte) []byte { return encodeBatchCommit(dst, unit) })
	l.unitMu.RUnlock()
	return err
}

// Commit makes the log's current tail durable per the configured policy and
// returns the log's health. Under SyncEveryCommit it blocks until every
// record appended so far is fsynced; under SyncInterval/SyncOS it returns
// immediately (the policy is the caller's chosen durability window).
func (l *Log) Commit() error {
	switch l.opts.Policy {
	case SyncEveryCommit:
		return l.syncTo(l.tailLSN.Load())
	case SyncOS:
		// No fsync, but the staged records are handed to the OS now: SyncOS
		// promises page-cache durability, not process-memory durability.
		l.appendMu.Lock()
		defer l.appendMu.Unlock()
		if l.err != nil {
			return l.err
		}
		if l.closed {
			return ErrClosed
		}
		return l.flushLocked()
	default:
		return l.Err()
	}
}

// Sync forces an fsync of the log tail regardless of policy.
func (l *Log) Sync() error {
	return l.syncTo(l.tailLSN.Load())
}

// syncTo blocks until records [1,target] are durable. Waiters queue on
// syncMu; each fsync covers everything appended before it started, so a
// follower usually finds its target already durable — the group commit.
func (l *Log) syncTo(target uint64) error {
	if l.durableLSN.Load() >= target {
		return l.Err()
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.durableLSN.Load() >= target {
		return l.Err()
	}
	l.appendMu.Lock()
	if l.err != nil {
		err := l.err
		l.appendMu.Unlock()
		return err
	}
	if err := l.flushLocked(); err != nil {
		l.appendMu.Unlock()
		return err
	}
	f := l.tailFile
	flushed := l.tailLSN.Load()
	l.appendMu.Unlock()

	chaos.Step(chaos.WALCrashPoint) // records written, fsync not yet issued
	if err := f.Sync(); err != nil {
		l.poison(fmt.Errorf("wal: fsync: %w", err))
		return err
	}
	chaos.Step(chaos.WALCrashPoint) // fsync done, ack not yet delivered
	l.c.fsyncs.Add(1)
	// Monotonic advance: a racing rotation may already have published a
	// higher durable LSN.
	for {
		cur := l.durableLSN.Load()
		if cur >= flushed || l.durableLSN.CompareAndSwap(cur, flushed) {
			return nil
		}
	}
}

func (l *Log) poison(err error) {
	l.appendMu.Lock()
	if l.err == nil {
		l.err = err
	}
	l.appendMu.Unlock()
}

// rotateLocked finishes the current tail segment (fsync, so the durability
// boundary only ever concerns the newest segment) and opens a fresh one,
// appending it to the manifest. Caller holds appendMu.
func (l *Log) rotateLocked() error {
	if err := l.flushLocked(); err != nil {
		return err
	}
	if err := l.tailFile.Sync(); err != nil {
		return fmt.Errorf("wal: rotate sync: %w", err)
	}
	l.c.fsyncs.Add(1)
	for {
		cur := l.durableLSN.Load()
		lsn := l.tailLSN.Load()
		if cur >= lsn || l.durableLSN.CompareAndSwap(cur, lsn) {
			break
		}
	}
	old := l.mf.segments[len(l.mf.segments)-1]
	l.retired[old] = l.tailFile
	return l.openNewTailLocked()
}

// openNewTailLocked creates the next segment file and publishes it in the
// manifest. Caller holds appendMu.
func (l *Log) openNewTailLocked() error {
	name := segmentName(l.nextID)
	l.nextID++
	f, err := l.fs.Create(path.Join(l.dir, name))
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	// Persist the (empty) segment before the manifest references it, so a
	// crash between the two never yields a manifest pointing at nothing.
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: sync new segment: %w", err)
	}
	next := &manifest{checkpoint: l.mf.checkpoint, segments: append(append([]string(nil), l.mf.segments...), name)}
	if err := writeManifest(l.fs, l.dir, next); err != nil {
		f.Close()
		return fmt.Errorf("wal: manifest: %w", err)
	}
	l.mf = next
	l.tailFile = f
	l.tailSize = 0
	l.c.segsCreated.Add(1)
	return nil
}

// flushLoop is the SyncInterval background fsync.
func (l *Log) flushLoop() {
	defer close(l.flushDone)
	t := time.NewTicker(l.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-l.stopFlush:
			return
		case <-t.C:
			if l.durableLSN.Load() < l.tailLSN.Load() {
				_ = l.syncTo(l.tailLSN.Load())
			}
		}
	}
}

// Close fsyncs the tail (best effort when already poisoned) and closes every
// file handle. The log must not be appended to afterwards.
func (l *Log) Close() error {
	if l.stopFlush != nil {
		close(l.stopFlush)
		<-l.flushDone
		l.stopFlush = nil
	}
	syncErr := l.Sync()
	l.appendMu.Lock()
	defer l.appendMu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.closed = true
	if l.tailFile != nil {
		l.tailFile.Close()
	}
	for _, f := range l.retired {
		f.Close()
	}
	l.retired = map[string]File{}
	if errors.Is(syncErr, ErrClosed) {
		syncErr = nil
	}
	return syncErr
}

// CheckpointWriter streams one checkpoint's chunk images into a fresh file;
// Commit swaps the manifest and prunes everything the checkpoint replaced.
type CheckpointWriter struct {
	l        *Log
	f        File
	name     string
	boundary string // first op segment NOT covered by the checkpoint
	payload  []byte
	frame    []byte
	chunks   uint64
	keys     uint64
	done     bool
}

// BeginCheckpoint starts an online checkpoint. It drains in-flight batch
// units, then — atomically with respect to appends — calls pin (the caller
// pins its consistent snapshot there) and cuts the op segment, making the
// snapshot/boundary pair exact: every record in segments before the cut is
// visible in the pinned snapshot, and every record after it replays
// idempotently on top of the checkpoint. Writers proceed as soon as
// BeginCheckpoint returns; only the drain and the cut are blocking.
func (l *Log) BeginCheckpoint(pin func()) (*CheckpointWriter, error) {
	l.unitMu.Lock()
	l.appendMu.Lock()
	if l.err != nil || l.closed {
		err := l.err
		if err == nil {
			err = ErrClosed
		}
		l.appendMu.Unlock()
		l.unitMu.Unlock()
		return nil, err
	}
	pin()
	if err := l.rotateLocked(); err != nil {
		l.err = err
		l.appendMu.Unlock()
		l.unitMu.Unlock()
		return nil, err
	}
	boundary := l.mf.segments[len(l.mf.segments)-1]
	id := l.nextID
	l.nextID++
	l.appendMu.Unlock()
	l.unitMu.Unlock()

	name := ckptName(id)
	f, err := l.fs.Create(path.Join(l.dir, name))
	if err != nil {
		return nil, fmt.Errorf("wal: create checkpoint: %w", err)
	}
	cw := &CheckpointWriter{l: l, f: f, name: name, boundary: boundary}
	if err := cw.writeFrame(encodeCheckpointStart(cw.payload[:0])); err != nil {
		cw.Abort()
		return nil, fmt.Errorf("wal: checkpoint start: %w", err)
	}
	return cw, nil
}

// writeFrame frames payload (built in cw.payload) and writes it out.
func (cw *CheckpointWriter) writeFrame(payload []byte) error {
	cw.payload = payload
	cw.frame = appendFrame(cw.frame[:0], payload)
	_, err := cw.f.Write(cw.frame)
	return err
}

// WriteChunk appends one sorted chunk image. Successive calls must carry
// globally ascending keys (the snapshot walk's order).
func (cw *CheckpointWriter) WriteChunk(keys []int64, vals [][]byte) error {
	if len(keys) == 0 {
		return nil
	}
	chaos.Step(chaos.WALCrashPoint) // between checkpoint segment writes
	if err := cw.writeFrame(encodeChunkImage(cw.payload[:0], keys, vals)); err != nil {
		return fmt.Errorf("wal: checkpoint chunk: %w", err)
	}
	cw.chunks++
	cw.keys += uint64(len(keys))
	return nil
}

// Abort discards an uncommitted checkpoint; the half-written file is
// deleted (and would be garbage-collected at the next open regardless).
func (cw *CheckpointWriter) Abort() {
	if cw.done {
		return
	}
	cw.done = true
	cw.f.Close()
	_ = cw.l.fs.Remove(path.Join(cw.l.dir, cw.name))
}

// Commit seals the checkpoint (end marker + fsync), atomically swaps the
// manifest to [checkpoint, segments from the boundary cut onward], and
// prunes the files the swap unreferenced — strictly in that order, so a
// crash at any point leaves either the old catalog with every old file
// intact or the new catalog with the checkpoint fully durable; pruned
// files are by then referenced by neither.
func (cw *CheckpointWriter) Commit() error {
	if cw.done {
		return errors.New("wal: checkpoint already finished")
	}
	cw.done = true
	l := cw.l
	if err := cw.writeFrame(encodeCheckpointEnd(cw.payload[:0], cw.chunks, cw.keys)); err != nil {
		cw.f.Close()
		return fmt.Errorf("wal: checkpoint end: %w", err)
	}
	if err := cw.f.Sync(); err != nil {
		cw.f.Close()
		return fmt.Errorf("wal: checkpoint sync: %w", err)
	}
	l.c.fsyncs.Add(1)
	if err := cw.f.Close(); err != nil {
		return err
	}

	chaos.Step(chaos.WALCrashPoint) // checkpoint durable, manifest still old
	l.appendMu.Lock()
	if l.err != nil {
		err := l.err
		l.appendMu.Unlock()
		return err
	}
	// Keep the boundary segment and everything after it; the checkpoint
	// replaces all earlier segments and any previous checkpoint.
	cut := -1
	for i, s := range l.mf.segments {
		if s == cw.boundary {
			cut = i
			break
		}
	}
	if cut < 0 {
		// The boundary segment can only leave the manifest through another
		// checkpoint's prune; concurrent checkpoints are caller-serialized.
		l.appendMu.Unlock()
		return errors.New("wal: checkpoint boundary segment missing from manifest")
	}
	oldCkpt := l.mf.checkpoint
	pruned := append([]string(nil), l.mf.segments[:cut]...)
	next := &manifest{checkpoint: cw.name, segments: append([]string(nil), l.mf.segments[cut:]...)}
	if err := writeManifest(l.fs, l.dir, next); err != nil {
		l.appendMu.Unlock()
		return fmt.Errorf("wal: checkpoint manifest swap: %w", err)
	}
	l.mf = next
	retired := make([]File, 0, len(pruned))
	for _, s := range pruned {
		if f, ok := l.retired[s]; ok {
			retired = append(retired, f)
			delete(l.retired, s)
		}
	}
	l.appendMu.Unlock()
	chaos.Step(chaos.WALCrashPoint) // manifest swapped, old files not yet pruned

	// Prune: the swap above is the commit point, so these files are now
	// unreferenced by construction — never deleted while any manifest that
	// could survive a crash still names them.
	if oldCkpt != "" {
		pruned = append(pruned, oldCkpt)
	}
	for _, f := range retired {
		f.Close()
	}
	for _, name := range pruned {
		if err := l.fs.Remove(path.Join(l.dir, name)); err == nil {
			l.c.segsPruned.Add(1)
		}
	}
	l.c.checkpoints.Add(1)
	l.c.ckptChunks.Add(cw.chunks)
	return nil
}
