package skipvector

import (
	"fmt"
	"io"

	"skipvector/internal/core"
	"skipvector/internal/shard"
	"skipvector/internal/telemetry"
)

// ShardedMap is a concurrent ordered map partitioned by key range across N
// independent skip vectors behind a lock-free router. It trades the single
// map's global operations for scale-out: point operations on different
// shards share no synchronization state at all (separate chunks, seqlocks,
// hazard domains), so write-heavy multi-core workloads scale with the shard
// count instead of contending on one structure.
//
// It keeps the map contract TestConformance checks for Map, DurableMap and
// svset, with the same by-value semantics, and shares Map's Handle and
// Cursor. Its capability flags there are the only differences:
//
//   - Handle: yes. A handle pins one core session per shard it touches.
//   - Snapshot: no. MVCC epochs are per shard, so pinning all shards would
//     not capture one point in time; use a single Map for point-in-time
//     views.
//   - Durable: no.
//   - Rebalance: yes. SplitShard/MergeShards move boundaries online; point
//     operations stay linearizable across a move.
//
// Point operations are linearizable, as on Map. Multi-key operations are
// atomic per shard: ApplyBatch commits each shard's part with the core
// chunk-grouped batch and returns after every part committed, and
// RangeQuery/RangeUpdate/Ascend windows crossing a boundary are stitched
// from per-shard linearizable segments, so a concurrent reader can observe
// one shard's part before another's.
//
// Boundaries are not fixed at construction: SplitShard/MergeShards move
// them online (readers never block; writes into the moving range are
// briefly parked); ShardLoadStats reports the per-shard load a caller
// decides a move from. Point operations stay linearizable across a boundary
// move.
//
// Construct with NewSharded. All methods are safe for concurrent use.
type ShardedMap[V any] struct {
	s *shard.Sharded[V]
}

// EvenShardBounds returns interior split keys dividing [lo, hi) into the
// given number of near-equal key ranges — the bounds argument for NewSharded
// when keys are expected to be roughly uniform over a known interval. Keys
// outside [lo, hi) still route (to the first or last shard); only balance
// suffers.
func EvenShardBounds(lo, hi int64, shards int) []int64 {
	return shard.EvenBounds(lo, hi, shards)
}

// NewSharded builds a sharded map of len(splits)+1 shards, each configured
// with the paper's defaults modified by the given options. splits are the
// interior boundary keys, strictly ascending (see EvenShardBounds); an empty
// splits slice yields a single-shard map, useful as a baseline. Like New it
// panics on an invalid configuration.
//
//	m := skipvector.NewSharded[string](skipvector.EvenShardBounds(0, 1<<20, 8))
//	m.Upsert(42, "answer")        // routed to shard 0: one atomic load + binary search
//	v, ok := m.Lookup(42)
func NewSharded[V any](splits []int64, opts ...Option) *ShardedMap[V] {
	cfg := core.DefaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	s, err := shard.New[V](cfg, splits)
	if err != nil {
		panic(fmt.Sprintf("skipvector: %v", err))
	}
	return &ShardedMap[V]{s: s}
}

// ShardCount returns the number of shards.
func (m *ShardedMap[V]) ShardCount() int { return m.s.ShardCount() }

// ShardBounds returns the interior boundary keys (a copy).
func (m *ShardedMap[V]) ShardBounds() []int64 { return m.s.Bounds() }

// ShardFor returns the index of the shard that owns k.
func (m *ShardedMap[V]) ShardFor(k int64) int { return m.s.ShardFor(k) }

// Insert adds the mapping k→v; false when k is already present.
func (m *ShardedMap[V]) Insert(k int64, v V) bool { return m.s.Insert(k, &v) }

// Upsert adds or replaces the mapping k→v; true when newly inserted.
func (m *ShardedMap[V]) Upsert(k int64, v V) bool { return m.s.Upsert(k, &v) }

// Lookup returns the value mapped to k.
func (m *ShardedMap[V]) Lookup(k int64) (V, bool) {
	var v V
	ok := m.s.LookupInto(k, &v)
	return v, ok
}

// Contains reports whether k is in the map.
func (m *ShardedMap[V]) Contains(k int64) bool { return m.s.Contains(k) }

// Remove deletes the mapping for k, returning whether it was present.
func (m *ShardedMap[V]) Remove(k int64) bool { return m.s.Remove(k) }

// Len returns the number of mappings (linearizable only at quiescence).
func (m *ShardedMap[V]) Len() int { return m.s.Len() }

// ApplyBatch partitions ops at shard boundaries, applies each part with the
// owning shard's chunk-grouped batch in parallel, waits for all parts to
// commit, and returns one result per op in request order. The partition is
// stable: each part keeps its ops in request order, so per-key
// last-write-wins order is the single map's (same-key ops cannot span
// shards). Ops already in key order are partitioned in place; any other
// order costs one permuted copy. See the type comment for the cross-shard
// atomicity caveat.
func (m *ShardedMap[V]) ApplyBatch(ops []BatchOp[V]) []BatchResult {
	return m.s.ApplyBatch(toCoreOps(ops))
}

// RangeQuery calls fn for every mapping with lo ≤ key ≤ hi in ascending key
// order, stitched shard by shard. Each per-shard segment is linearizable;
// the whole window is not one atomic operation when it crosses a boundary.
// fn returning false stops early; fn must not call back into the map.
func (m *ShardedMap[V]) RangeQuery(lo, hi int64, fn func(k int64, v V) bool) {
	m.s.RangeQuery(lo, hi, func(k int64, v *V) bool { return fn(k, *v) })
}

// RangeUpdate replaces the value of every mapping with lo ≤ key ≤ hi by fn's
// return value and reports how many mappings were visited. Atomic per shard
// segment, not across the whole window.
func (m *ShardedMap[V]) RangeUpdate(lo, hi int64, fn func(k int64, v V) V) int {
	var nv V
	return m.s.RangeUpdate(lo, hi, func(k int64, v *V) *V {
		nv = fn(k, *v)
		return &nv
	})
}

// Ascend iterates all mappings in ascending key order, stitched shard by
// shard. fn returning false stops early.
func (m *ShardedMap[V]) Ascend(fn func(k int64, v V) bool) {
	m.s.Ascend(func(k int64, v *V) bool { return fn(k, *v) })
}

// Floor returns the largest key ≤ k and its value (ok=false when none).
func (m *ShardedMap[V]) Floor(k int64) (int64, V, bool) {
	var v V
	fk, ok := m.s.FloorInto(k, &v)
	return fk, v, ok
}

// Ceiling returns the smallest key ≥ k and its value (ok=false when none).
func (m *ShardedMap[V]) Ceiling(k int64) (int64, V, bool) {
	var v V
	ck, ok := m.s.CeilingInto(k, &v)
	return ck, v, ok
}

// Min returns the smallest key and its value (ok=false when empty).
func (m *ShardedMap[V]) Min() (int64, V, bool) {
	var v V
	k, ok := m.s.CeilingInto(MinKey+1, &v)
	return k, v, ok
}

// Max returns the largest key and its value (ok=false when empty).
func (m *ShardedMap[V]) Max() (int64, V, bool) {
	var v V
	k, ok := m.s.FloorInto(MaxKey-1, &v)
	return k, v, ok
}

// Keys returns every key in ascending order. Quiescent use only.
func (m *ShardedMap[V]) Keys() []int64 { return m.s.Keys() }

// Cursor returns a stateful forward iterator positioned before the first key
// ≥ start. Like the Map cursor it holds no locks between Next calls — each
// step is an independent Ceiling — so it crosses shard boundaries
// transparently and can be long-lived under concurrent mutation. The cursor
// pins one session per shard it touches; Close releases them (automatic when
// the scan is exhausted).
func (m *ShardedMap[V]) Cursor(start int64) *ShardedCursor[V] {
	return &Cursor[V]{src: m, next: start}
}

// ShardedCursor is the Cursor of a ShardedMap.
type ShardedCursor[V any] = Cursor[V]

func (m *ShardedMap[V]) session() session[V] { return m.s.NewHandle() }

// NewHandle pins a per-goroutine session: one core session per shard the
// caller touches, opened lazily, so key locality becomes search-finger hits
// inside the owning shard. Not safe for concurrent use; Close it.
func (m *ShardedMap[V]) NewHandle() *ShardedHandle[V] {
	return &Handle[V]{s: m.s.NewHandle()}
}

// ShardedHandle is the Handle of a ShardedMap.
type ShardedHandle[V any] = Handle[V]

// ShardStats reports each shard's internal event counters, indexed by shard.
func (m *ShardedMap[V]) ShardStats() []core.StatsSnapshot { return m.s.ShardStats() }

// Migration reports what one online boundary move did: kind, pairs copied
// from the sealed sources, how long the write redirect was in force, and the
// resulting bounds — or the step an injected abort stopped at.
type Migration = shard.Migration

// ShardLoadStat is one shard's standing in the current boundary table: ops
// routed to it since the table was published, and its current occupancy.
type ShardLoadStat = shard.ShardLoadStat

// ShardLoadStats samples each shard's op count and occupancy: the input for
// deciding a SplitShard or MergeShards, and a diagnostic.
func (m *ShardedMap[V]) ShardLoadStats() []ShardLoadStat { return m.s.LoadStats() }

// SplitShard splits shard i at key online: keys below key stay left, keys
// at or above it go right, and the boundary table gains a split. Readers
// never block; writes into shard i's range are parked while the sealed range
// is copied, about 0.2 µs per moved key on a 2 vCPU Xeon.
func (m *ShardedMap[V]) SplitShard(i int, key int64) (Migration, error) {
	return m.s.SplitShard(i, key)
}

// MergeShards merges shards i and i+1 online, dropping the split between
// them. Same online protocol and blocking behavior as SplitShard.
func (m *ShardedMap[V]) MergeShards(i int) (Migration, error) { return m.s.MergeShards(i) }

// Metrics returns the combined metric catalog: the router's own instruments
// (sv_shard_count, fan-out counters), every shard's registry — each labeled
// shard="i" so same-named families export as distinct series — and the
// process-global instruments, as one exposable view.
func (m *ShardedMap[V]) Metrics() *telemetry.View { return m.s.Metrics() }

// WriteMetrics renders the combined catalog in Prometheus text exposition
// format.
func (m *ShardedMap[V]) WriteMetrics(w io.Writer) error { return m.s.WriteMetrics(w) }

// FlushRetired forces a reclamation scan on every shard. Tests and teardown.
func (m *ShardedMap[V]) FlushRetired() { m.s.FlushRetired() }

// CheckInvariants validates every shard's structure and the routing
// invariant (each shard holds only keys inside its boundary interval).
// Quiescent use only.
func (m *ShardedMap[V]) CheckInvariants() error { return m.s.CheckInvariants() }
