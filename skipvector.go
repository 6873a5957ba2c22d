// Package skipvector provides a scalable concurrent ordered map — the skip
// vector of Rodriguez, Hassan and Spear, "Exploiting Locality in Scalable
// Ordered Maps" (ICDCS 2021).
//
// A skip vector is a skip list whose index and data layers are flattened
// into fixed-capacity vectors ("chunks"). Chunking at every layer gives the
// structure far better spatial locality than a skip list — each layer is
// traversed with a handful of cache-line fetches instead of per-element
// pointer chasing — while keeping the skip list's O(log n) expected cost,
// its freedom from rebalancing, and its scalability under concurrent
// access. Nodes are synchronized with sequence locks (readers are
// speculative and never block writers), and memory is reclaimed precisely
// with hazard pointers.
//
// Keys are int64 (excluding math.MinInt64 and math.MaxInt64, which are the
// internal sentinels); values are any Go type. All methods are safe for
// concurrent use:
//
//	m := skipvector.New[string]()
//	m.Insert(42, "answer")
//	v, ok := m.Lookup(42)         // "answer", true
//	m.RangeQuery(0, 100, func(k int64, v string) bool { ... })
//	m.Remove(42)
//
// The map follows the paper's set-style semantics: Insert fails (returns
// false) when the key is already present; use Upsert for overwrite
// semantics. Range operations are linearizable (serializable two-phase
// locking over the affected chunks), including the mutating RangeUpdate.
package skipvector

import (
	"fmt"
	"io"
	"runtime"

	"skipvector/internal/core"
	"skipvector/internal/telemetry"
)

// Key range limits: user keys must satisfy MinKey < k < MaxKey.
const (
	MinKey = core.MinKey
	MaxKey = core.MaxKey
)

// Option configures a Map at construction time.
type Option func(*core.Config)

// WithLayerCount sets the total layer count including the data layer
// (default 6). With the default chunk sizes, 6 layers cover ~32^5 ≈ 3.3·10^7
// expected elements; oversizing costs almost nothing because extra layers
// stay near-empty (Section V-B).
func WithLayerCount(n int) Option {
	return func(c *core.Config) { c.LayerCount = n }
}

// WithTargetDataVectorSize sets the expected data-chunk occupancy T_D
// (default 32; chunk capacity is 2×T_D; at most vectormap.MaxTarget,
// 2^15−1).
func WithTargetDataVectorSize(n int) Option {
	return func(c *core.Config) { c.TargetDataVectorSize = n }
}

// WithTargetIndexVectorSize sets the expected index-chunk occupancy T_I
// (default 32; at most vectormap.MaxTarget, 2^15−1).
func WithTargetIndexVectorSize(n int) Option {
	return func(c *core.Config) { c.TargetIndexVectorSize = n }
}

// WithMergeFactor sets the orphan-merge threshold as a multiple of the
// target chunk size (default 1.67, the paper's recommendation).
func WithMergeFactor(f float64) Option {
	return func(c *core.Config) { c.MergeFactor = f }
}

// WithSortedIndex selects sorted (true, default) or unsorted index chunks.
func WithSortedIndex(sorted bool) Option {
	return func(c *core.Config) { c.SortedIndex = sorted }
}

// WithSortedData selects sorted or unsorted (false, default) data chunks.
func WithSortedData(sorted bool) Option {
	return func(c *core.Config) { c.SortedData = sorted }
}

// WithHazardPointers enables (true, default) or disables precise memory
// reclamation. When disabled, unlinked nodes are left to the garbage
// collector ("Leak" configuration in the paper's evaluation).
func WithHazardPointers(enabled bool) Option {
	return func(c *core.Config) {
		if enabled {
			c.Reclaim = core.ReclaimHazard
		} else {
			c.Reclaim = core.ReclaimLeak
		}
	}
}

// WithSeed seeds the height-generation RNG streams (default is a fixed
// constant, so structures are reproducible).
func WithSeed(seed uint64) Option {
	return func(c *core.Config) { c.Seed = seed }
}

// Map is a concurrent ordered map from int64 keys to values of type V.
// The zero value is not usable; construct with New.
type Map[V any] struct {
	reader[V]
}

// reader is Map's read half. DurableMap embeds it as well, so the two maps
// share every read and differ only in their writes.
type reader[V any] struct {
	m *core.Map[V]
}

// NewFromSorted bulk-loads a map from strictly ascending keys in O(n) with
// perfectly packed chunks — the fast path for building large indexes from
// pre-sorted data. vals must be the same length as keys.
func NewFromSorted[V any](keys []int64, vals []V, opts ...Option) (*Map[V], error) {
	if len(vals) != len(keys) {
		return nil, fmt.Errorf("skipvector: %d keys but %d values", len(keys), len(vals))
	}
	cfg := core.DefaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	m, err := core.BulkLoad(cfg, keys, vals)
	if err != nil {
		return nil, err
	}
	return &Map[V]{reader[V]{m}}, nil
}

// New builds an empty map with the paper's default configuration, modified
// by the given options. It panics on an invalid configuration (configuration
// is programmer-controlled; there is no runtime error path).
func New[V any](opts ...Option) *Map[V] {
	cfg := core.DefaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	m, err := core.NewMap[V](cfg)
	if err != nil {
		panic(fmt.Sprintf("skipvector: %v", err))
	}
	return &Map[V]{reader[V]{m}}
}

// Insert adds the mapping k→v. It returns false (leaving the map unchanged)
// when k is already present.
func (m *Map[V]) Insert(k int64, v V) bool {
	return m.m.Insert(k, &v)
}

// Upsert adds or replaces the mapping k→v, returning true when the key was
// newly inserted and false when an existing mapping was replaced.
func (m *Map[V]) Upsert(k int64, v V) bool {
	return m.m.Upsert(k, &v)
}

// BatchOp is one element of an ApplyBatch request: a put of Key→Val, or a
// delete of Key when Delete is set. InsertOnly makes a put succeed only when
// Key is absent (the existing value is left untouched and the op reports
// BatchExists); the zero value is an upsert.
type BatchOp[V any] struct {
	Key        int64
	Val        V
	Delete     bool
	InsertOnly bool
}

// BatchResult reports the outcome of one BatchOp, positionally aligned with
// the request slice.
type BatchResult = core.BatchResult

// BatchOutcome is the per-op outcome enum of ApplyBatch.
type BatchOutcome = core.BatchOutcome

// Per-op outcomes: puts report BatchInserted or BatchUpdated (BatchExists
// when InsertOnly found the key present), deletes report BatchRemoved or
// BatchAbsent.
const (
	BatchInserted = core.BatchInserted
	BatchUpdated  = core.BatchUpdated
	BatchRemoved  = core.BatchRemoved
	BatchAbsent   = core.BatchAbsent
	BatchExists   = core.BatchExists
)

// ApplyBatch applies ops and returns one result per op, in request order.
// Ops commit in ascending key order (same-key ops in request order, last
// write wins) as a sequence of group commits, each atomic under a single
// lock acquisition — on batches with spatial locality this amortizes one
// traversal and one lock round trip over the keys of a data chunk, which is
// where the chunked layout beats issuing the ops one by one. A group holds
// consecutive keys owned by one data chunk, but one chunk's keys may commit
// as several groups: a group extends past the chunk's largest key only
// towards a next key within one key span of it, and a key that raises an
// index tower or removes an indexed minimum commits on its own. The batch as
// a whole is not atomic: concurrent readers may observe a state between two
// group commits, but never a partially-applied group.
func (m *Map[V]) ApplyBatch(ops []BatchOp[V]) []BatchResult {
	return m.m.ApplyBatch(toCoreOps(ops))
}

// toCoreOps points each core op at its request's value, which the map copies
// during the call.
func toCoreOps[V any](ops []BatchOp[V]) []core.BatchOp[V] {
	cops := make([]core.BatchOp[V], len(ops))
	for i := range ops {
		op := &ops[i]
		cops[i] = core.BatchOp[V]{Key: op.Key, Del: op.Delete, InsertOnly: op.InsertOnly}
		if !op.Delete {
			cops[i].Val = &op.Val
		}
	}
	return cops
}

// Lookup returns the value mapped to k.
func (m *reader[V]) Lookup(k int64) (V, bool) {
	var v V
	ok := m.m.LookupInto(k, &v)
	return v, ok
}

// Contains reports whether k is in the map.
func (m *reader[V]) Contains(k int64) bool {
	return m.m.Contains(k)
}

// Remove deletes the mapping for k, returning whether it was present.
func (m *Map[V]) Remove(k int64) bool {
	return m.m.Remove(k)
}

// Len returns the number of mappings.
func (m *reader[V]) Len() int { return m.m.Len() }

// RangeQuery calls fn for every mapping with lo ≤ key ≤ hi in ascending key
// order, as one linearizable operation. fn returning false stops early.
// fn must not call back into the map.
func (m *reader[V]) RangeQuery(lo, hi int64, fn func(k int64, v V) bool) {
	m.m.RangeQuery(lo, hi, func(k int64, v *V) bool {
		return fn(k, *v)
	})
}

// RangeUpdate replaces the value of every mapping with lo ≤ key ≤ hi by
// fn's return value, as one serializable operation, and returns the number
// of mappings updated. fn must not call back into the map.
func (m *Map[V]) RangeUpdate(lo, hi int64, fn func(k int64, v V) V) int {
	return rangeUpdate(m.m, lo, hi, fn)
}

// rangeUpdate is RangeUpdate on m, by value.
func rangeUpdate[V any](m *core.Map[V], lo, hi int64, fn func(k int64, v V) V) int {
	var nv V
	return m.RangeUpdate(lo, hi, func(k int64, v *V) *V {
		nv = fn(k, *v)
		return &nv
	})
}

// Ascend iterates all mappings in ascending key order as one linearizable
// snapshot-like pass. fn returning false stops early.
func (m *reader[V]) Ascend(fn func(k int64, v V) bool) {
	m.m.Ascend(func(k int64, v *V) bool { return fn(k, *v) })
}

// Floor returns the largest key ≤ k and its value (ok=false when none).
func (m *reader[V]) Floor(k int64) (int64, V, bool) {
	var v V
	fk, ok := m.m.FloorInto(k, &v)
	return fk, v, ok
}

// Ceiling returns the smallest key ≥ k and its value (ok=false when none).
func (m *reader[V]) Ceiling(k int64) (int64, V, bool) {
	var v V
	ck, ok := m.m.CeilingInto(k, &v)
	return ck, v, ok
}

// Min returns the smallest key and its value (ok=false when empty).
func (m *reader[V]) Min() (int64, V, bool) {
	var v V
	k, ok := m.m.CeilingInto(MinKey+1, &v)
	return k, v, ok
}

// Max returns the largest key and its value (ok=false when empty).
func (m *reader[V]) Max() (int64, V, bool) {
	var v V
	k, ok := m.m.FloorInto(MaxKey-1, &v)
	return k, v, ok
}

// Keys returns every key in ascending order. Intended for quiescent use
// (tests, debugging); concurrent callers should prefer RangeQuery.
func (m *reader[V]) Keys() []int64 { return m.m.Keys() }

// Cursor returns a stateful forward iterator positioned before the first
// key ≥ start. Unlike Ascend/RangeQuery — which hold node locks for the
// duration of the scan — a cursor holds no locks between Next calls: each
// step is an independent linearizable successor query (Ceiling), so it can
// be long-lived and interleaved with arbitrary mutations. Keys inserted
// behind the cursor are not revisited; keys inserted ahead are seen.
//
// The cursor pins a map session on first use, so its search finger tracks
// the scan: after the first Next, each step resumes at the data chunk the
// previous step finished on and walks at most one chunk right — no index
// descent. The session is released automatically when the scan is exhausted;
// call Close when abandoning a cursor mid-scan.
func (m *reader[V]) Cursor(start int64) *Cursor[V] {
	return &Cursor[V]{src: m, next: start}
}

// session is the per-goroutine session a map opens for a Handle or a
// Cursor: *core.Handle for a Map, *shard.Handle for a ShardedMap. Its
// methods take and fill values by pointer.
type session[V any] interface {
	Close()
	Insert(k int64, v *V) bool
	Upsert(k int64, v *V) bool
	Remove(k int64) bool
	ApplyBatch(ops []core.BatchOp[V]) []core.BatchResult
	LookupInto(k int64, out *V) bool
	Contains(k int64) bool
	FloorInto(k int64, out *V) (int64, bool)
	CeilingInto(k int64, out *V) (int64, bool)
}

// sessions opens sessions: a Map's read half or a ShardedMap.
type sessions[V any] interface {
	session() session[V]
}

func (m *reader[V]) session() session[V] { return m.m.NewHandle() }

// Cursor is a forward iterator over a Map, a DurableMap or a ShardedMap.
// Not safe for concurrent use by multiple goroutines (the underlying map
// remains fully concurrent).
type Cursor[V any] struct {
	src  sessions[V]
	h    Handle[V] // h.s is nil while no session is pinned
	next int64
	done bool
}

// Next advances to the next key ≥ the cursor position and returns it.
// ok=false means the scan is exhausted.
func (c *Cursor[V]) Next() (int64, V, bool) {
	if c.done {
		var zero V
		return 0, zero, false
	}
	if c.h.s == nil {
		c.h.s = c.src.session()
	}
	k, v, ok := c.h.Ceiling(c.next)
	switch {
	case !ok, k == MaxKey-1: // nothing left, or nothing past the largest legal key
		c.Close()
	default:
		c.next = k + 1
	}
	return k, v, ok
}

// SeekTo repositions the cursor before the first key ≥ start.
func (c *Cursor[V]) SeekTo(start int64) {
	c.next = start
	c.done = false
}

// Close releases the cursor's pinned session. It is called automatically
// when the scan is exhausted and is idempotent; only a cursor abandoned
// mid-scan needs an explicit Close. A closed cursor can be revived with
// SeekTo followed by Next.
func (c *Cursor[V]) Close() {
	c.h.Close()
	c.done = true
}

// Snapshot pins the map's state at a single linearization point and returns
// an immutable read-only view of it. Acquisition is O(1) — nothing is copied
// up front; instead, writers that overlap a pinned snapshot publish chunk
// pre-images copy-on-write, so the snapshot's cost is proportional to the
// churn it overlaps, not to the map's size.
//
// Snapshot reads never block writers, and snapshot scans (Range, Ascend,
// Cursor) never restart no matter how much concurrent churn the live map
// sees — unlike the live map's RangeQuery/Ascend, which hold chunk locks, a
// snapshot scan is lock-free and can safely run for as long as it likes.
//
// Close must be called when done: a pinned snapshot retains the pre-image
// records and retired chunks it might still read. A snapshot that becomes
// garbage without Close is released by a finalizer and counted in the
// sv_snapshots_leaked_total metric; treat that as a bug in the caller, not a
// resource-management strategy.
func (m *reader[V]) Snapshot() *Snapshot[V] {
	s := &Snapshot[V]{s: m.m.Snapshot()}
	runtime.SetFinalizer(s, func(s *Snapshot[V]) { s.s.MarkLeaked() })
	return s
}

// Snapshot is an immutable point-in-time view of a Map, pinned at a single
// epoch. Safe for concurrent use by multiple goroutines. Using a snapshot
// after Close panics.
type Snapshot[V any] struct {
	s *core.Snapshot[V]
}

// Close releases the snapshot's pin, allowing the versions it was holding to
// be reclaimed. Idempotent.
func (s *Snapshot[V]) Close() {
	s.s.Close()
	runtime.SetFinalizer(s, nil)
}

// Epoch returns the internal epoch the snapshot is pinned at. Epochs are
// monotone across snapshots of one map; they are useful for diagnostics and
// for asserting snapshot ordering in tests.
func (s *Snapshot[V]) Epoch() uint64 { return s.s.Epoch() }

// Closed reports whether the snapshot has been released.
func (s *Snapshot[V]) Closed() bool { return s.s.Closed() }

// Get returns the value bound to k at the snapshot's point in time.
func (s *Snapshot[V]) Get(k int64) (V, bool) {
	var v V
	ok := s.s.GetInto(k, &v)
	return v, ok
}

// Contains reports whether k was present at the snapshot's point in time.
func (s *Snapshot[V]) Contains(k int64) bool { return s.s.Contains(k) }

// Range calls fn for every mapping with lo ≤ key ≤ hi at the snapshot's
// point in time, in ascending key order. fn returning false stops early.
func (s *Snapshot[V]) Range(lo, hi int64, fn func(k int64, v V) bool) {
	s.s.Range(lo, hi, func(k int64, v *V) bool { return fn(k, *v) })
}

// Ascend calls fn for every mapping in the snapshot in ascending key order.
func (s *Snapshot[V]) Ascend(fn func(k int64, v V) bool) {
	s.s.Ascend(func(k int64, v *V) bool { return fn(k, *v) })
}

// Len counts the snapshot's mappings with a full scan.
func (s *Snapshot[V]) Len() int { return s.s.Len() }

// Cursor returns a stateful forward iterator over the snapshot's mappings
// with keys ≥ start. Unlike a live-map Cursor — whose steps are independent
// successor queries against a moving target — a snapshot cursor iterates one
// frozen version: the sequence it returns is exactly the snapshot's content,
// regardless of concurrent writes. The cursor borrows the snapshot and must
// not outlive it; it is not safe for concurrent use.
func (s *Snapshot[V]) Cursor(start int64) *SnapshotCursor[V] {
	return &SnapshotCursor[V]{c: s.s.Cursor(start)}
}

// SnapshotCursor is a forward iterator over a Snapshot. See Snapshot.Cursor.
type SnapshotCursor[V any] struct {
	c *core.SnapCursor[V]
}

// Next returns the next mapping, or ok=false when the scan is exhausted.
func (c *SnapshotCursor[V]) Next() (int64, V, bool) {
	var v V
	k, ok := c.c.NextInto(&v)
	return k, v, ok
}

// NewHandle pins a per-goroutine session on the map. Map methods already
// benefit from the search finger when a single goroutine is active, but
// under concurrency the pooled per-operation contexts — and the fingers they
// carry — shuffle between goroutines. A Handle fixes one context to the
// caller, so locality in its key sequence reliably becomes finger hits
// (ascending loads, per-shard workers, time-series appenders).
//
// A Handle is not safe for concurrent use; create one per goroutine. Close
// it when the session ends to return its resources to the map.
func (m *Map[V]) NewHandle() *Handle[V] {
	return &Handle[V]{s: m.m.NewHandle()}
}

// Handle is a single-goroutine session over a Map or a ShardedMap with a
// pinned search finger. See Map.NewHandle and ShardedMap.NewHandle. Using a
// Handle after Close panics.
type Handle[V any] struct {
	s session[V]
	// v carries each call's value to and from the session. A value passed
	// by address through the interface call would escape to the heap on
	// every call; the handle's own field does not, and is cleared before
	// the call returns so that it keeps nothing reachable.
	v V
}

// take returns the scratch value and clears it.
func (h *Handle[V]) take() V {
	v := h.v
	var zero V
	h.v = zero
	return v
}

// Close returns the session's resources to the map. Idempotent; the handle
// must not be used afterwards.
func (h *Handle[V]) Close() {
	if h.s != nil {
		h.s.Close()
		h.s = nil
	}
}

// Insert is Map.Insert through the pinned session.
func (h *Handle[V]) Insert(k int64, v V) bool {
	h.v = v
	ok := h.s.Insert(k, &h.v)
	h.take()
	return ok
}

// Upsert is Map.Upsert through the pinned session.
func (h *Handle[V]) Upsert(k int64, v V) bool {
	h.v = v
	ok := h.s.Upsert(k, &h.v)
	h.take()
	return ok
}

// ApplyBatch is Map.ApplyBatch through the pinned session. Batches whose
// first keys land where the previous operation finished resume from the
// session's search finger, skipping even the one descent per group. On a
// ShardedMap, a batch confined to one shard, and the first part of one that
// spans several, run on the pinned session; the other parts fan out in
// parallel on their shards.
func (h *Handle[V]) ApplyBatch(ops []BatchOp[V]) []BatchResult {
	return h.s.ApplyBatch(toCoreOps(ops))
}

// Lookup is Map.Lookup through the pinned session.
func (h *Handle[V]) Lookup(k int64) (V, bool) {
	ok := h.s.LookupInto(k, &h.v)
	return h.take(), ok
}

// Contains is Map.Contains through the pinned session.
func (h *Handle[V]) Contains(k int64) bool { return h.s.Contains(k) }

// Remove is Map.Remove through the pinned session.
func (h *Handle[V]) Remove(k int64) bool { return h.s.Remove(k) }

// Floor is Map.Floor through the pinned session.
func (h *Handle[V]) Floor(k int64) (int64, V, bool) {
	fk, ok := h.s.FloorInto(k, &h.v)
	return fk, h.take(), ok
}

// Ceiling is Map.Ceiling through the pinned session.
func (h *Handle[V]) Ceiling(k int64) (int64, V, bool) {
	ck, ok := h.s.CeilingInto(k, &h.v)
	return ck, h.take(), ok
}

// Stats reports internal event counters (restarts overall and per op kind,
// splits, merges, orphans, node allocation and reuse, hazard-domain
// retire/reclaim totals, finger hits and misses). The snapshot is tear-free:
// every field is a single atomic load, so it may be taken while other
// goroutines mutate the map.
func (m *reader[V]) Stats() core.StatsSnapshot { return m.m.Stats() }

// Occupancy walks the structure and reports chunk-fill aggregates per layer
// class — the paper's locality argument made measurable. Approximate while
// mutators run; exact at quiescence.
func (m *Map[V]) Occupancy() core.OccupancySnapshot { return m.m.Occupancy() }

// Metrics returns the map's full metric catalog (its per-instance registry
// combined with the process-global seqlock/vectormap instruments) as a view
// that renders Prometheus text exposition via WritePrometheus and
// expvar-compatible JSON via String — so expvar.Publish("skipvector",
// m.Metrics()) exposes everything on /debug/vars.
//
// Most metrics are always-on; the hot-path instruments (descent depths, spin
// counts, shift distances, freeze counts) record only while telemetry
// collection is enabled — see SetTelemetry.
func (m *Map[V]) Metrics() *telemetry.View { return m.m.Metrics() }

// WriteMetrics renders the full metric catalog in Prometheus text exposition
// format.
func (m *Map[V]) WriteMetrics(w io.Writer) error { return m.m.WriteMetrics(w) }

// SetTelemetry turns hot-path metric recording on or off (process-wide,
// default off). Disabled, every instrumented site costs one atomic load and
// a predicted branch; enabled, the benchmark reports the cost as
// telemetry.on_throughput_ratio.
func SetTelemetry(on bool) { telemetry.SetEnabled(on) }

// TelemetryEnabled reports whether hot-path metric recording is on.
func TelemetryEnabled() bool { return telemetry.Enabled() }

// FlushRetired forces a hazard-pointer reclamation scan on every pooled
// session. At quiescence — no operations in flight, all handles and cursors
// closed — it drains pending retired nodes to zero. Intended for tests and
// controlled teardown.
func (m *Map[V]) FlushRetired() { m.m.FlushRetired() }

// CheckInvariants validates the whole structure. Quiescent use only.
func (m *reader[V]) CheckInvariants() error { return m.m.CheckInvariants() }
