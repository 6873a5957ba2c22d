package shard

import (
	"fmt"
	"time"

	"skipvector/internal/chaos"
	"skipvector/internal/core"
)

// Online migration: moving a key range between boundary tables while point
// operations keep running. The protocol (DESIGN.md §13):
//
//  1. plan    — validate the boundary move; nothing observable yet.
//  2. seal    — publish T1: identical routing to the current table T0,
//               plus a seal over the migrating range. New writes into the
//               range park on T1's swap channel; then flip-drain the writer
//               gate, after which no write holding T0 is in flight. The
//               sources are now frozen inside the range.
//  3. copy    — pin a snapshot of each frozen source, stream the range into
//               per-destination sorted key and value slices, and bulk-load
//               each destination from them. Nothing writes the range, so
//               the copy is one instant and the pins copy no block.
//  4. publish — swap in T2 with the new boundaries and destination maps
//               spliced over the sources. Closing T1's swap channel
//               releases the parked writers, which re-route against T2.
//
// chaos.Fail(chaos.ShardRebalance) guards every step boundary: an injected
// failure aborts the migration at that step. Aborts before seal change
// nothing; aborts after it republish an unsealed table with T0's routing so
// parked writers resume against the sources — either way no operation is
// lost and the map is exactly as if the migration never ran.
//
// Linearizability across the swap: a write either (a) held T0 and committed
// into a source before the drain, so the copy, which starts after the
// drain, carries it; (b) parked on the seal and committed into a
// destination after T2 — trivially current; or (c) targeted an unsealed
// shard, whose map is the same object in T0, T1 and T2. A read through any
// of the three tables reaches a map that was authoritative for its key at
// some instant inside the read's own window (sources change only before the
// drain, and only the swap makes destinations reachable), so reads never
// gate.

// Migration reports what one boundary move did (or where it stopped).
type Migration struct {
	Kind    string        // "split" or "merge"
	Aborted bool          // chaos-injected abort; the table is unchanged
	Step    string        // last step reached: plan…publish, or "done"
	Copied  int           // pairs copied from the frozen sources
	Sealed  time.Duration // how long the write redirect was in force
	Bounds  []int64       // interior splits after the move
}

// SplitShard splits shard i at key: keys below key stay in a fresh left
// map, keys at or above it move to a fresh right map, and the boundary
// table gains one split. The migration runs online; see the protocol above.
func (s *Sharded[V]) SplitShard(i int, key int64) (Migration, error) {
	s.mig.Lock()
	defer s.mig.Unlock()
	t := s.tab.Load()
	if i < 0 || i >= len(t.maps) {
		return Migration{}, fmt.Errorf("shard: split index %d out of range [0,%d)", i, len(t.maps))
	}
	if len(t.maps)+1 > MaxShards {
		return Migration{}, fmt.Errorf("shard: split would exceed MaxShards %d", MaxShards)
	}
	if lo, hi := t.lowOf(i), t.highOf(i); key <= lo || key >= hi {
		return Migration{}, fmt.Errorf("shard: split key %d not strictly inside shard %d's interval (%d,%d)", key, i, lo, hi)
	}
	m, err := s.migrate(t, i, i, []int64{key}, "split")
	if err == nil && !m.Aborted {
		s.rebSplits.Add(1)
	}
	return m, err
}

// MergeShards merges shards i and i+1 into one fresh map, dropping the
// split between them. The migration runs online; see the protocol above.
func (s *Sharded[V]) MergeShards(i int) (Migration, error) {
	s.mig.Lock()
	defer s.mig.Unlock()
	t := s.tab.Load()
	if i < 0 || i+1 >= len(t.maps) {
		return Migration{}, fmt.Errorf("shard: merge index %d out of range [0,%d)", i, len(t.maps)-1)
	}
	m, err := s.migrate(t, i, i+1, nil, "merge")
	if err == nil && !m.Aborted {
		s.rebMerges.Add(1)
	}
	return m, err
}

// migrate replaces shards first..last of t with len(newSplits)+1 fresh maps
// partitioned by newSplits, which must lie strictly inside the replaced
// range (lowOf(first), highOf(last)) in ascending order. Caller holds s.mig
// and guarantees t is the current table (only migrations swap tables).
func (s *Sharded[V]) migrate(t *table[V], first, last int, newSplits []int64, kind string) (Migration, error) {
	rep := Migration{Kind: kind, Step: "plan"}
	abort := func() (Migration, error) {
		rep.Aborted = true
		s.rebAborts.Add(1)
		return rep, nil
	}
	if chaos.Fail(chaos.ShardRebalance) {
		return abort()
	}
	lo, hi := t.lowOf(first), t.highOf(last)

	// seal: publish T1 (same routing, sealed range) and drain the gate.
	rep.Step = "seal"
	if chaos.Fail(chaos.ShardRebalance) {
		return abort()
	}
	sealedAt := time.Now()
	s.publish(newTable(t.splits, t.maps, &sealRange{lo: lo, hi: hi}))
	s.gate.flipDrain()
	// release ends the seal by publishing next, which wakes the parked
	// writers onto it; unseal republishes T0's routing without the seal,
	// sending them back to the sources, on every exit before publish.
	release := func(next *table[V]) {
		s.publish(next)
		rep.Sealed = time.Since(sealedAt)
		s.rebSealNanos.Add(int64(rep.Sealed))
	}
	unseal := func() { release(newTable(t.splits, t.maps, nil)) }

	// copy: the sources are frozen inside [lo, hi); read them through
	// snapshots, which never lock, and bulk-load one map per new interval.
	rep.Step = "copy"
	if chaos.Fail(chaos.ShardRebalance) {
		unseal()
		return abort()
	}
	keys := make([][]int64, len(newSplits)+1)
	vals := make([][]V, len(newSplits)+1)
	dst := 0 // destination of the next key: keys arrive in ascending order
	for i := first; i <= last; i++ {
		sn := t.maps[i].Snapshot()
		sn.Range(lo, hi-1, func(k int64, v *V) bool {
			if s.copyObserver != nil {
				s.copyObserver(k, v)
			}
			for dst < len(newSplits) && newSplits[dst] <= k {
				dst++
			}
			keys[dst] = append(keys[dst], k)
			vals[dst] = append(vals[dst], *v)
			return true
		})
		sn.Close()
	}
	dests := make([]*core.Map[V], len(keys))
	for d := range dests {
		m, err := s.newShardMap(keys[d], vals[d])
		if err != nil {
			unseal()
			return rep, fmt.Errorf("shard: migration dest %d: %w", d, err)
		}
		dests[d] = m
		rep.Copied += len(keys[d])
	}

	// publish: splice the destinations over the sources and swap in T2,
	// releasing the parked writers onto the new boundaries.
	rep.Step = "publish"
	if chaos.Fail(chaos.ShardRebalance) {
		unseal()
		return abort()
	}
	splits := make([]int64, 0, len(t.splits)+len(newSplits))
	splits = append(splits, t.splits[:first]...)
	splits = append(splits, newSplits...)
	splits = append(splits, t.splits[last:]...)
	maps := make([]*core.Map[V], 0, len(t.maps)+len(dests)-(last-first+1))
	maps = append(maps, t.maps[:first]...)
	maps = append(maps, dests...)
	maps = append(maps, t.maps[last+1:]...)
	release(newTable(splits, maps, nil))
	s.rebCopied.Add(int64(rep.Copied))

	rep.Step = "done"
	rep.Bounds = splits
	return rep, nil
}
