// Package shard partitions the key space across N independent skip vector
// maps behind a router, buying write parallelism the single structure cannot
// reach: each shard has its own chunks, seqlocks, hazard domain, and
// telemetry registry, so point operations on different shards share no
// synchronization state at all.
//
// The router is an immutable boundary table swapped atomically: resolving a
// key to its shard costs one atomic pointer load and a binary search over a
// handful of split keys — no lock, no per-operation allocation. Batches go
// through one partitioner (batch.go), a stable counting sort of the request
// by shard, and fan out to the owning shards in parallel with an all-shards
// commit barrier; ordered iteration stitches per-shard iterators back
// together at the boundaries, in key order.
//
// Boundaries are not fixed: the migrator (migrate.go) splits hot shards and
// merges cold ones online, sealing the affected key range, copying it into
// fresh maps and swapping a new table in. When to move a boundary is the
// caller's decision (SplitShard, MergeShards): the caller is the skew
// observer, and LoadStats reports the per-shard op counters and occupancy it
// decides from. Readers never block during a migration; writes into the
// migrating range are parked for the copy and redirected across the swap,
// and every write is counted through a generation gate (gate.go) so the
// migrator can drain in-flight writes before it copies the sealed range.
// Every write — point writes from Sharded and Handle, RangeUpdate segments
// and batches — enters through one loop, writeEnter, which owns that
// protocol: gate in, load the table, park while what the write routes to
// is sealed. Point operations stay linearizable across a table swap.
//
// Consistency model: point operations and per-shard batch units are
// linearizable (each shard is a fully linearizable map), including across
// rebalance swaps. Operations that span shards — ApplyBatch across
// boundaries, RangeQuery/Ascend windows crossing a split key — are sequences
// of per-shard linearizable segments, not one atomic operation: a concurrent
// reader can observe a state between two shards' commits. Callers that need
// cross-shard atomicity must either align their batches to shard boundaries
// or route everything to one shard.
package shard

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"skipvector/internal/core"
	"skipvector/internal/telemetry"
)

// Key sentinels, re-exported so callers need not import core for bounds math.
const (
	MinKey = core.MinKey
	MaxKey = core.MaxKey
)

// MaxShards bounds the shard count. The router's hot path is a binary search
// over the split keys; past a few hundred shards the per-shard fixed costs
// (registries, sentinel chunks, hazard domains) dominate any win.
const MaxShards = 1024

// sealRange marks the half-open key interval a migration is moving. Writes
// routed inside it park until the successor table is published; reads are
// unaffected (the source maps stay authoritative until the swap).
type sealRange struct {
	lo, hi int64
}

// table is the router's immutable state: the boundary table, the shard maps
// it routes to, and the per-shard op counters for this table's lifetime. A
// table is never mutated after publication — rebalancing builds a new table
// and swaps the pointer — so readers need no synchronization beyond the one
// atomic load.
type table[V any] struct {
	// splits are the interior boundary keys, strictly ascending, one fewer
	// than the shard count: shard 0 owns keys < splits[0], shard i owns
	// [splits[i-1], splits[i]), and the last shard owns keys ≥ the final
	// split. The whole user key space is always covered.
	splits []int64
	maps   []*core.Map[V]

	// load counts ops routed to each shard since this table was published
	// (striped, always on). Fresh per table, so the skew observer's window
	// resets at every swap.
	load []shardLoad

	// seal, when non-nil, is the key range a migration is moving out of this
	// table's shards. Immutable, like everything else here: sealing is done
	// by publishing a successor table that carries the seal.
	seal *sealRange

	// swapped is closed when a successor table is published. Writers parked
	// on a sealed range block on it; publish closes it exactly once.
	swapped chan struct{}
}

// newTable allocates a table over the given splits and maps with fresh load
// counters and swap channel.
func newTable[V any](splits []int64, maps []*core.Map[V], seal *sealRange) *table[V] {
	return &table[V]{
		splits:  splits,
		maps:    maps,
		load:    make([]shardLoad, len(maps)),
		seal:    seal,
		swapped: make(chan struct{}),
	}
}

// indexOf resolves a key to its owning shard: the number of split keys ≤ k.
func (t *table[V]) indexOf(k int64) int {
	lo, hi := 0, len(t.splits)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.splits[mid] <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// lowOf returns the lowest key shard i can own (MinKey+1 for shard 0).
func (t *table[V]) lowOf(i int) int64 {
	if i == 0 {
		return MinKey + 1
	}
	return t.splits[i-1]
}

// highOf returns the exclusive upper bound of shard i's interval (MaxKey for
// the last shard).
func (t *table[V]) highOf(i int) int64 {
	if i < len(t.splits) {
		return t.splits[i]
	}
	return MaxKey
}

// sealed reports whether shard i lies in this table's sealed (migrating)
// range. A seal always covers whole shard intervals of the table carrying
// it, so a write is sealed exactly when a shard it routes to is.
func (t *table[V]) sealed(i int) bool {
	return t.seal != nil && t.lowOf(i) >= t.seal.lo && t.lowOf(i) < t.seal.hi
}

// Sharded is a key-range-partitioned ordered map: N core maps behind an
// atomically-swapped boundary table. All methods are safe for concurrent use
// by any number of goroutines.
type Sharded[V any] struct {
	tab atomic.Pointer[table[V]]

	// gate counts in-flight writes per table generation so a migration can
	// drain them before capturing a sealed range's final state.
	gate writerGate

	// cfg is the per-shard configuration New was given; migrations build
	// replacement shards from it.
	cfg core.Config

	// nextID hands out metric-label identities for shard maps. The initial
	// maps take 0..n-1; migration-built replacements continue the sequence,
	// so the shard label names a map's identity, not its current position —
	// two live maps never share a label even across rebalances.
	mig    sync.Mutex // serializes migrations (one boundary move at a time)
	nextID atomic.Int64

	// Router metrics: always-on atomics collected func-backed at exposition
	// time, so the hot path pays nothing for them.
	swaps       atomic.Int64 // boundary-table publications (1 at construction)
	fanouts     atomic.Int64 // ApplyBatch calls that spanned >1 shard
	fanoutParts atomic.Int64 // per-shard commit units issued by fan-out batches
	singleBatch atomic.Int64 // ApplyBatch calls resolved entirely by one shard

	// Rebalance metrics (migrate.go).
	rebSplits    atomic.Int64 // completed split migrations
	rebMerges    atomic.Int64 // completed merge migrations
	rebAborts    atomic.Int64 // migrations aborted mid-flight (all rolled back)
	rebCopied    atomic.Int64 // pairs copied from frozen sources
	rebSealNanos atomic.Int64 // total ns the write redirect was in force
	sealWaits    atomic.Int64 // writes that parked on a sealed range

	// copyObserver, when set, receives every pair a migration copies, while
	// the migrating range is sealed (test instrumentation for the lincheck
	// rebalance histories and the seal tests). Guarded by mig.
	copyObserver func(k int64, v *V)

	reg *telemetry.Registry
}

// EvenBounds returns the interior split keys that partition [lo, hi) into
// shards near-equal key ranges: the bounds argument for New when keys are
// expected to be uniform over a known interval. Keys outside [lo, hi) still
// route (to the first or last shard); only balance suffers.
func EvenBounds(lo, hi int64, shards int) []int64 {
	if shards < 1 || hi <= lo {
		return nil
	}
	span := uint64(hi-lo) / uint64(shards)
	splits := make([]int64, 0, shards-1)
	for i := 1; i < shards; i++ {
		splits = append(splits, lo+int64(span)*int64(i))
	}
	return splits
}

// New builds a sharded map of len(splits)+1 shards, each an independent core
// map configured from cfg. splits are the interior boundary keys, strictly
// ascending and strictly inside the user key space (see EvenBounds). Each
// shard's registry is labeled with a unique shard id (on top of any labels
// already in cfg.MetricLabels) so the combined Metrics view exports distinct
// series, and each shard's height RNG stream is decorrelated from its
// siblings.
func New[V any](cfg core.Config, splits []int64) (*Sharded[V], error) {
	n := len(splits) + 1
	if n > MaxShards {
		return nil, fmt.Errorf("shard: %d shards exceeds MaxShards %d", n, MaxShards)
	}
	for i, s := range splits {
		if s <= MinKey || s >= MaxKey {
			return nil, fmt.Errorf("shard: split %d outside the user key space", s)
		}
		if i > 0 && splits[i-1] >= s {
			return nil, fmt.Errorf("shard: splits not strictly ascending at index %d", i)
		}
	}
	s := &Sharded[V]{cfg: cfg}
	maps := make([]*core.Map[V], n)
	for i := 0; i < n; i++ {
		m, err := s.newShardMap(nil, nil)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		maps[i] = m
	}
	s.publish(newTable(append([]int64(nil), splits...), maps, nil))
	s.initMetrics()
	return s, nil
}

// newShardMap bulk-loads one shard map from strictly ascending keys and
// their values (none for an empty shard) under the stored configuration,
// with the next unique metric-label id and a decorrelated height RNG stream.
// Used at construction and by migrations for replacement shards.
func (s *Sharded[V]) newShardMap(keys []int64, vals []V) (*core.Map[V], error) {
	id := s.nextID.Add(1) - 1
	c := s.cfg
	c.MetricLabels = append(append([]string(nil), s.cfg.MetricLabels...),
		"shard", strconv.FormatInt(id, 10))
	if c.Seed == 0 {
		c.Seed = core.DefaultConfig().Seed
	}
	c.Seed += uint64(id) * 0x9e3779b97f4a7c15
	return core.BulkLoad(c, keys, vals)
}

// publish swaps in a new boundary table and wakes every writer parked on the
// predecessor. The table must be fully built — it is visible to every
// concurrent operation the instant the pointer lands. Construction publishes
// the initial table; migrations publish the sealed table and then the
// rebalanced one through the same protocol.
func (s *Sharded[V]) publish(t *table[V]) {
	prev := s.tab.Swap(t)
	s.swaps.Add(1)
	if prev != nil {
		close(prev.swapped)
	}
}

// writeEnter is the one gate-entry loop every write takes: point writes
// from Sharded and Handle, each RangeUpdate segment and every batch. It
// enters the writer gate on k's stripe, loads the current table (through
// h.rebind when a handle writes), and routes the write against it: k to its
// shard i, or, when b is non-nil, b's ops to their parts. If the write
// routes into the table's sealed range, it exits the gate and parks until
// the successor table lands, then retries against that one. It exits before
// parking: the migrator's drain must not wait on a writer that is itself
// waiting for the migrator's swap.
//
// On return the caller holds a gate reference — a concurrent migration's
// drain waits for it — and MUST call s.gate.exit(gen, stripe) as soon as its
// shard-map writes return.
func (s *Sharded[V]) writeEnter(h *Handle[V], k int64, b *partition[V]) (t *table[V], i int, gen uint64, stripe uint32) {
	stripe = stripeOf(k)
	for {
		gen = s.gate.enter(stripe)
		if h != nil {
			t = h.rebind()
		} else {
			t = s.tab.Load()
		}
		if b != nil {
			if b.route(t) {
				return
			}
		} else if i = t.indexOf(k); !t.sealed(i) {
			t.load[i].inc(k)
			return
		}
		s.gate.exit(gen, stripe)
		s.sealWaits.Add(1)
		<-t.swapped
	}
}

// ShardCount returns the number of shards in the current table.
func (s *Sharded[V]) ShardCount() int { return len(s.tab.Load().maps) }

// Bounds returns the current interior boundary keys (a copy).
func (s *Sharded[V]) Bounds() []int64 {
	return append([]int64(nil), s.tab.Load().splits...)
}

// ShardFor returns the index of the shard owning k (diagnostics, tests).
func (s *Sharded[V]) ShardFor(k int64) int { return s.tab.Load().indexOf(k) }

// Insert adds k→v to the owning shard; false when k is already present.
func (s *Sharded[V]) Insert(k int64, v *V) bool {
	t, i, gen, stripe := s.writeEnter(nil, k, nil)
	ok := t.maps[i].Insert(k, v)
	s.gate.exit(gen, stripe)
	return ok
}

// Upsert adds or replaces k→v; true when the key was newly inserted.
func (s *Sharded[V]) Upsert(k int64, v *V) bool {
	t, i, gen, stripe := s.writeEnter(nil, k, nil)
	ok := t.maps[i].Upsert(k, v)
	s.gate.exit(gen, stripe)
	return ok
}

// Lookup returns a copy of the value mapped to k (core.Map.Lookup has the
// result pointer's rules).
func (s *Sharded[V]) Lookup(k int64) (v *V, ok bool) {
	v = new(V)
	ok = s.LookupInto(k, v)
	return
}

// LookupInto is Lookup copying the value into *out.
func (s *Sharded[V]) LookupInto(k int64, out *V) bool {
	t := s.tab.Load()
	i := t.indexOf(k)
	t.load[i].inc(k)
	return t.maps[i].LookupInto(k, out)
}

// Contains reports whether k is present.
func (s *Sharded[V]) Contains(k int64) bool {
	t := s.tab.Load()
	i := t.indexOf(k)
	t.load[i].inc(k)
	return t.maps[i].Contains(k)
}

// Remove deletes the mapping for k, reporting whether it was present.
func (s *Sharded[V]) Remove(k int64) bool {
	t, i, gen, stripe := s.writeEnter(nil, k, nil)
	ok := t.maps[i].Remove(k)
	s.gate.exit(gen, stripe)
	return ok
}

// Len sums the shard lengths. Like the core map's Len it is linearizable
// only at quiescence.
func (s *Sharded[V]) Len() int {
	total := 0
	for _, m := range s.tab.Load().maps {
		total += m.Len()
	}
	return total
}

// Floor returns the largest key ≤ k and a copy of its value, searching the
// owning shard first and walking left across emptier shards as needed.
func (s *Sharded[V]) Floor(k int64) (key int64, v *V, ok bool) {
	v = new(V)
	key, ok = s.FloorInto(k, v)
	return
}

// FloorInto is Floor copying the value into *out.
func (s *Sharded[V]) FloorInto(k int64, out *V) (int64, bool) {
	t := s.tab.Load()
	start := t.indexOf(k)
	t.load[start].inc(k)
	for i := start; i >= 0; i-- {
		if fk, ok := t.maps[i].FloorInto(k, out); ok {
			return fk, true
		}
	}
	return 0, false
}

// Ceiling returns the smallest key ≥ k and a copy of its value, walking
// right from the owning shard.
func (s *Sharded[V]) Ceiling(k int64) (key int64, v *V, ok bool) {
	v = new(V)
	key, ok = s.CeilingInto(k, v)
	return
}

// CeilingInto is Ceiling copying the value into *out.
func (s *Sharded[V]) CeilingInto(k int64, out *V) (int64, bool) {
	t := s.tab.Load()
	start := t.indexOf(k)
	t.load[start].inc(k)
	for i := start; i < len(t.maps); i++ {
		if ck, ok := t.maps[i].CeilingInto(k, out); ok {
			return ck, true
		}
	}
	return 0, false
}

// Keys concatenates the shard key sets in key order. Quiescent use only.
func (s *Sharded[V]) Keys() []int64 {
	var out []int64
	for _, m := range s.tab.Load().maps {
		out = append(out, m.Keys()...)
	}
	return out
}

// ShardStats returns each shard's counter snapshot, indexed by shard.
func (s *Sharded[V]) ShardStats() []core.StatsSnapshot {
	maps := s.tab.Load().maps
	out := make([]core.StatsSnapshot, len(maps))
	for i, m := range maps {
		out[i] = m.Stats()
	}
	return out
}

// ShardLoadStat is one shard's standing in the current boundary table: ops
// routed to it since the table was published and its current occupancy.
type ShardLoadStat struct {
	Ops  int64
	Keys int
}

// LoadStats samples each shard's op count (since the current table landed)
// and occupancy, indexed by shard: what a caller decides a SplitShard or
// MergeShards from. The counters are always on.
func (s *Sharded[V]) LoadStats() []ShardLoadStat {
	t := s.tab.Load()
	out := make([]ShardLoadStat, len(t.maps))
	for i := range t.maps {
		out[i] = ShardLoadStat{Ops: t.load[i].total(), Keys: t.maps[i].Len()}
	}
	return out
}

// FlushRetired forces a reclamation scan on every shard (tests, teardown).
func (s *Sharded[V]) FlushRetired() {
	for _, m := range s.tab.Load().maps {
		m.FlushRetired()
	}
}

// CheckInvariants validates every shard's structure and the routing
// invariant that each shard holds only keys inside its boundary interval.
// Quiescent use only.
func (s *Sharded[V]) CheckInvariants() error {
	t := s.tab.Load()
	if !sort.SliceIsSorted(t.splits, func(i, j int) bool { return t.splits[i] < t.splits[j] }) {
		return fmt.Errorf("shard: splits out of order: %v", t.splits)
	}
	for i, m := range t.maps {
		if err := m.CheckInvariants(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		lo := t.lowOf(i)
		hi := t.highOf(i)
		for _, k := range m.Keys() {
			if k < lo || k >= hi {
				return fmt.Errorf("shard %d holds key %d outside [%d,%d)", i, k, lo, hi)
			}
		}
	}
	return nil
}
