package skipvector

import (
	"fmt"
	"io"
	"sync"
	"time"

	"skipvector/internal/core"
	"skipvector/internal/telemetry"
	"skipvector/internal/wal"
)

// Durable maps: the in-memory skip vector fronted by an append-only chunk
// log (internal/wal). Every effective mutation is logged at its
// linearization point through the core commit hook, batches are framed as
// atomic commit units, and Compact checkpoints the map through a pinned
// snapshot while writers proceed. Reopening the directory replays the
// checkpoint through the bulk-load fast path and the tail through
// ApplyBatch, reconstructing exactly the durable prefix of the history.

// SyncPolicy selects when a durable map's writes reach stable storage.
type SyncPolicy = wal.SyncPolicy

const (
	// SyncEveryCommit fsyncs before each write call returns (group commit
	// amortizes the fsync across concurrent writers). Strongest; slowest.
	SyncEveryCommit = wal.SyncEveryCommit
	// SyncInterval acknowledges immediately and fsyncs on a background
	// ticker (default 2ms): a crash loses at most the last interval.
	SyncInterval = wal.SyncInterval
	// SyncOS never fsyncs; durability is whatever the OS page cache gives.
	SyncOS = wal.SyncOS
)

// DurableOption configures OpenDurable.
type DurableOption func(*durableConfig)

type durableConfig struct {
	wal     wal.Options
	mapOpts []Option
}

// WithSyncPolicy selects the fsync policy (default SyncEveryCommit).
func WithSyncPolicy(p SyncPolicy) DurableOption {
	return func(c *durableConfig) { c.wal.Policy = p }
}

// WithSyncInterval sets the background fsync cadence under SyncInterval
// (default 2ms).
func WithSyncInterval(d time.Duration) DurableOption {
	return func(c *durableConfig) { c.wal.Interval = d }
}

// WithSegmentBytes sets the log's segment rotation size (default 64 MiB).
func WithSegmentBytes(n int64) DurableOption {
	return func(c *durableConfig) { c.wal.SegmentBytes = n }
}

// WithWALFS substitutes the log's filesystem — the crash-injection seam the
// durability test campaign drives (wal.NewMemFS). Production leaves it nil.
func WithWALFS(fs wal.FS) DurableOption {
	return func(c *durableConfig) { c.wal.FS = fs }
}

// WithMapOptions forwards in-memory map options (layer counts, chunk sizes,
// …) to the recovered map.
func WithMapOptions(opts ...Option) DurableOption {
	return func(c *durableConfig) { c.mapOpts = append(c.mapOpts, opts...) }
}

// RecoveryInfo reports what opening a durable map found in its log.
type RecoveryInfo struct {
	// CheckpointKeys is the number of mappings restored from the checkpoint;
	// TailRecords the number of log records replayed on top of it.
	CheckpointKeys int
	TailRecords    int
	// Truncated reports that a torn or corrupt frame was found and the log
	// was cut back to the last intact record; TruncatedBytes counts the
	// discarded suffix. A truncation after a crash is expected, not an error:
	// everything cut off was never acknowledged as durable.
	Truncated      bool
	TruncatedBytes int64
	// ScannedRecords = ReplayedRecords + DroppedRecords; dropped records are
	// parts of batch commit units whose commit marker didn't survive.
	ScannedRecords  uint64
	ReplayedRecords uint64
	DroppedRecords  uint64
}

// Open opens (or creates) a durable map of []byte values in dir — the
// convenience form of OpenDurable for the common raw-bytes case.
func Open(dir string, opts ...DurableOption) (*DurableMap[[]byte], error) {
	return OpenDurable(dir, BytesCodec(), opts...)
}

// OpenDurable opens (or creates) the durable map stored in dir, recovering
// its state from the chunk log: the newest checkpoint's chunk images are
// bulk-loaded in O(n), then the committed tail records are replayed through
// the batch path. A torn tail — the normal residue of a crash — is truncated
// at the first corrupt frame; only writes that were never acknowledged under
// the chosen sync policy can be lost. The returned map must be Closed.
func OpenDurable[V any](dir string, codec Codec[V], opts ...DurableOption) (*DurableMap[V], error) {
	if codec == nil {
		return nil, fmt.Errorf("skipvector: OpenDurable requires a codec")
	}
	var dc durableConfig
	for _, opt := range opts {
		opt(&dc)
	}
	log, rec, err := wal.Open(dir, dc.wal)
	if err != nil {
		return nil, err
	}

	m, tail, err := rebuild(rec, codec, dc.mapOpts)
	if err != nil {
		log.Close()
		return nil, err
	}

	d := &DurableMap[V]{
		reader: reader[V]{m},
		log:    log,
		codec:  codec,
		info: RecoveryInfo{
			CheckpointKeys:  len(rec.CheckpointKeys),
			TailRecords:     tail,
			Truncated:       rec.Truncated,
			TruncatedBytes:  rec.TruncatedBytes,
			ScannedRecords:  rec.ScannedRecords,
			ReplayedRecords: rec.ReplayedRecords,
			DroppedRecords:  rec.DroppedRecords,
		},
	}
	// Installed only now: recovery replay itself must not be re-logged.
	m.SetCommitHook(d.commit)
	return d, nil
}

// rebuild reconstructs the in-memory map from a recovery result: checkpoint
// images through the bulk-load fast path, tail records through ApplyBatch.
func rebuild[V any](rec *wal.Recovery, codec Codec[V], mapOpts []Option) (*core.Map[V], int, error) {
	cfg := core.DefaultConfig()
	for _, opt := range mapOpts {
		opt(&cfg)
	}
	// The map copies every value it is given, so the checkpoint decodes
	// into one slice rather than one allocation per value.
	vals := make([]V, len(rec.CheckpointKeys))
	for i, b := range rec.CheckpointVals {
		var err error
		if vals[i], err = codec.Decode(b); err != nil {
			return nil, 0, fmt.Errorf("skipvector: checkpoint value for key %d: %w", rec.CheckpointKeys[i], err)
		}
	}
	m, err := core.BulkLoad(cfg, rec.CheckpointKeys, vals)
	if err != nil {
		return nil, 0, err
	}

	// Tail replay. Records are gathered into large batches: ApplyBatch
	// preserves same-key request order (last write wins), so concatenating
	// records reaches the same final state as applying them one by one.
	const replayBatch = 4096
	var ops []core.BatchOp[V]
	opVals := make([]V, replayBatch) // ops[i].Val's value; ApplyBatch copies it
	flush := func() error {
		if len(ops) == 0 {
			return nil
		}
		m.ApplyBatch(ops)
		ops = ops[:0]
		return nil
	}
	for _, r := range rec.Tail {
		for _, op := range r.Ops {
			cop := core.BatchOp[V]{Key: op.Key, Del: op.Del}
			if !op.Del {
				v, err := codec.Decode(op.Val)
				if err != nil {
					return nil, 0, fmt.Errorf("skipvector: log value for key %d: %w", op.Key, err)
				}
				opVals[len(ops)] = v
				cop.Val = &opVals[len(ops)]
			}
			ops = append(ops, cop)
			if len(ops) >= replayBatch {
				if err := flush(); err != nil {
					return nil, 0, err
				}
			}
		}
	}
	if err := flush(); err != nil {
		return nil, 0, err
	}
	return m, len(rec.Tail), nil
}

// DurableMap is a Map whose mutations survive crashes through an append-only
// chunk log. Its reads are Map's own (Lookup, Contains, Len, RangeQuery,
// Ascend, Floor, Ceiling, Min, Max, Keys, Cursor, Snapshot, Stats,
// CheckInvariants), served entirely from memory at the in-memory map's cost
// and never touching the log. Its writes additionally append to the log and,
// depending on the sync policy, wait for an fsync. All methods are safe for
// concurrent use.
//
// Write methods return an error: once the log fails (disk full, I/O error)
// it poisons itself, every subsequent write reports the failure, and no
// acknowledgement is ever issued for a record that didn't reach the log.
type DurableMap[V any] struct {
	reader[V]
	log   *wal.Log
	codec Codec[V]
	info  RecoveryInfo

	// encPool holds per-call encode buffers: the commit hook runs
	// concurrently from many goroutines under chunk locks, so it cannot
	// share one scratch.
	encPool sync.Pool

	// compactMu serializes Compact calls.
	compactMu sync.Mutex
}

type encScratch struct {
	ops []wal.Op
	buf []byte
}

// commit is the core commit hook: encode the effective ops and append them
// at the linearization point. unit ties batch-routed ops to their commit
// unit so recovery can enforce batch atomicity.
func (d *DurableMap[V]) commit(unit uint64, _ core.CommitKind, ops []core.CommitOp[V]) {
	es, _ := d.encPool.Get().(*encScratch)
	if es == nil {
		es = &encScratch{}
	}
	wops := es.ops[:0]
	buf := es.buf[:0]
	for i := range ops {
		op := &ops[i]
		if op.Del {
			wops = append(wops, wal.Op{Key: op.Key, Del: true})
			continue
		}
		// op.Val is the map's scratch copy, valid for this call only: it is
		// encoded here and not kept.
		start := len(buf)
		buf = d.codec.Append(buf, *op.Val)
		wops = append(wops, wal.Op{Key: op.Key, Val: buf[start:]})
	}
	// The appends below consume wops synchronously (the log copies into its
	// own frame buffer), so the scratch is reusable on return. The hook runs
	// under a chunk lock and returns nothing, so append errors are dropped
	// here: a failed append has poisoned the log, and the facade call reports
	// that through log.Commit/Err. Appends mostly just stage in memory, so a
	// dead disk shows at the flush: within the same call under SyncEveryCommit
	// and SyncOS, at the next Sync under SyncInterval (whose earlier calls may
	// have returned nil, that policy's window).
	if unit == 0 {
		_ = d.log.AppendOps(wops)
	} else {
		_ = d.log.AppendBatchPart(unit, wops)
	}
	clear(wops)
	es.ops, es.buf = wops[:0], buf[:0]
	d.encPool.Put(es)
}

// Recovery reports what opening this map found in its log.
func (d *DurableMap[V]) Recovery() RecoveryInfo { return d.info }

// Dir returns the log directory.
func (d *DurableMap[V]) Dir() string { return d.log.Dir() }

// Insert adds k→v. It returns false when k is already present. A nil error
// means the write is durable to the extent the sync policy promises.
func (d *DurableMap[V]) Insert(k int64, v V) (bool, error) {
	if !d.m.Insert(k, &v) {
		return false, d.log.Err()
	}
	return true, d.log.Commit()
}

// Upsert adds or replaces k→v, returning true on insert, false on replace.
func (d *DurableMap[V]) Upsert(k int64, v V) (bool, error) {
	ok := d.m.Upsert(k, &v)
	return ok, d.log.Commit()
}

// Remove deletes k, returning whether it was present.
func (d *DurableMap[V]) Remove(k int64) (bool, error) {
	if !d.m.Remove(k) {
		return false, d.log.Err()
	}
	return true, d.log.Commit()
}

// ApplyBatch applies ops with Map.ApplyBatch's semantics and frames them as
// one atomic commit unit in the log: recovery replays either the whole
// batch's effects or none of them, never a prefix — even though live readers
// may still observe intermediate states between group commits.
func (d *DurableMap[V]) ApplyBatch(ops []BatchOp[V]) ([]BatchResult, error) {
	unit := d.log.BeginUnit()
	results := d.m.ApplyBatchLogged(unit, toCoreOps(ops))
	if err := d.log.EndUnit(unit); err != nil {
		return results, err
	}
	return results, d.log.Commit()
}

// RangeUpdate is Map.RangeUpdate with durability: the whole update set is
// logged as a single record, so recovery applies it atomically.
func (d *DurableMap[V]) RangeUpdate(lo, hi int64, fn func(k int64, v V) V) (int, error) {
	n := rangeUpdate(d.m, lo, hi, fn)
	return n, d.log.Commit()
}

// Sync forces everything appended so far to stable storage, regardless of
// the sync policy. It returns once the fsync (possibly another committer's,
// via group commit) covers the current log tail.
func (d *DurableMap[V]) Sync() error { return d.log.Sync() }

// Compact checkpoints the map online: it pins a snapshot at a cut no batch
// commit unit straddles, streams the snapshot's live mappings as sorted
// chunk images into a new checkpoint file while writers proceed, then
// atomically swaps the log's manifest to {checkpoint + segments after the
// cut} and prunes the now-unreferenced segments. Recovery cost after Compact
// is proportional to the live set plus the post-checkpoint tail, not the
// whole write history.
func (d *DurableMap[V]) Compact() error {
	d.compactMu.Lock()
	defer d.compactMu.Unlock()

	var snap *Snapshot[V]
	cw, err := d.log.BeginCheckpoint(func() { snap = d.Snapshot() })
	if err != nil {
		return err
	}
	defer snap.Close()

	// Stream the snapshot in sorted 512-key runs, one chunk image each.
	// Recovery joins the runs into one sorted sequence and bulk-loads it,
	// which re-chunks the pairs at the map's T_D, so a run's length need not
	// match the map's chunking and nothing is re-sorted.
	const chunkKeys = 512
	var (
		keys []int64
		vals [][]byte
		buf  []byte
	)
	flush := func() error {
		if len(keys) == 0 {
			return nil
		}
		if err := cw.WriteChunk(keys, vals); err != nil {
			return err
		}
		keys, vals, buf = keys[:0], vals[:0], buf[:0]
		return nil
	}
	cur := snap.Cursor(MinKey + 1)
	for {
		k, v, ok := cur.Next()
		if !ok {
			break
		}
		start := len(buf)
		buf = d.codec.Append(buf, v)
		keys = append(keys, k)
		vals = append(vals, buf[start:])
		if len(keys) >= chunkKeys {
			if err := flush(); err != nil {
				cw.Abort()
				return err
			}
		}
	}
	if err := flush(); err != nil {
		cw.Abort()
		return err
	}
	return cw.Commit()
}

// Metrics returns the combined metric catalog: the in-memory map's
// instruments, the log's sv_wal_* series, and the process-global registry.
func (d *DurableMap[V]) Metrics() *telemetry.View {
	return telemetry.NewView(d.m.Registry(), d.log.Registry(), telemetry.Global)
}

// WriteMetrics renders the combined catalog in Prometheus text format.
func (d *DurableMap[V]) WriteMetrics(w io.Writer) error {
	return d.Metrics().WritePrometheus(w)
}

// Close flushes and closes the log. The in-memory map stays readable, but
// further writes will fail. Close is not an fsync barrier under SyncOS; call
// Sync first if those writes must survive.
func (d *DurableMap[V]) Close() error { return d.log.Close() }
