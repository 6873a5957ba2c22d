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
//  1. plan      — validate the boundary move; nothing observable yet.
//  2. build     — fresh destination maps from the stored shard config.
//  3. snapshot  — pin a point-in-time snapshot of every source shard.
//  4. copy      — stream the snapshots into the destinations in routed
//                 ApplyBatch chunks. Concurrent writes keep landing in the
//                 sources; the copy is a (possibly stale) baseline.
//  5. seal      — publish T1: identical routing to the current table T0,
//                 plus a seal over the migrating range. New writes into the
//                 range park on T1's swap channel; then flip-drain the
//                 writer gate, after which no write holding T0 is in
//                 flight. The sources are now frozen inside the range.
//  6. reconcile — diff the frozen sources against the copied baseline and
//                 fix the destinations: upsert keys that changed or
//                 appeared after the snapshots, delete keys that vanished.
//                 "Changed" compares each key's stored value
//                 (core.Stored.Same): its bits in an inline map, its box
//                 in a boxed one, which the baseline keeps alive.
//  7. publish   — swap in T2 with the new boundaries and destination maps
//                 spliced over the sources. Closing T1's swap channel
//                 releases the parked writers, which re-route against T2.
//
// chaos.Fail(chaos.ShardRebalance) guards every step boundary: an injected
// failure aborts the migration at that step. Aborts before seal discard
// private state only; aborts after seal republish an unsealed table with
// T0's routing so parked writers resume against the sources — either way no
// operation is lost and the map is exactly as if the migration never ran.
//
// Linearizability across the swap: a write either (a) held T0 and committed
// into a source before the drain — the reconcile diff carries it into the
// destination; (b) parked on the seal and committed into a destination
// after T2 — trivially current; or (c) targeted an unsealed shard, whose
// map is the same object in T0, T1 and T2. A read through any of the three
// tables reaches a map that was authoritative for its key at some instant
// inside the read's own window (sources change only before the drain, and
// only the swap makes destinations reachable), so reads never gate.

// migrateBatchSize is the chunk size of the pre-copy ApplyBatch stream.
const migrateBatchSize = 256

// Migration reports what one boundary move did (or where it stopped).
type Migration struct {
	Kind       string        // "split" or "merge"
	Aborted    bool          // chaos-injected abort; the table is unchanged
	Step       string        // last step reached: plan…publish, or "done"
	Copied     int           // pairs streamed from the pinned snapshots
	Reconciled int           // sealed-window fixes (delta upserts + deletes)
	Sealed     time.Duration // how long the write redirect was in force
	Bounds     []int64       // interior splits after the move
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

// migPair is one copied key with its value as the source stored it,
// retained as the reconcile baseline.
type migPair struct {
	k int64
	v core.Stored
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

	// build: destination maps, one per new interval.
	rep.Step = "build"
	dests := make([]*core.Map[V], len(newSplits)+1)
	for d := range dests {
		m, err := s.newShardMap()
		if err != nil {
			return rep, fmt.Errorf("shard: migration dest %d: %w", d, err)
		}
		dests[d] = m
	}
	// destOf routes a key inside [lo, hi) to its destination index.
	destOf := func(k int64) int {
		d := 0
		for d < len(newSplits) && newSplits[d] <= k {
			d++
		}
		return d
	}

	// snapshot: pin every source before reading anything.
	rep.Step = "snapshot"
	if chaos.Fail(chaos.ShardRebalance) {
		return abort()
	}
	snaps := make([]*core.Snapshot[V], 0, last-first+1)
	defer func() {
		for _, sn := range snaps {
			sn.Close()
		}
	}()
	for i := first; i <= last; i++ {
		snaps = append(snaps, t.maps[i].Snapshot())
	}

	// copy: stream the snapshots into the destinations in routed chunks,
	// retaining every copied pair as the reconcile baseline.
	rep.Step = "copy"
	if chaos.Fail(chaos.ShardRebalance) {
		return abort()
	}
	var baseline []migPair
	buf := make([]core.BatchOp[V], 0, migrateBatchSize)
	bufVals := make([]V, migrateBatchSize) // buf's values: callback copies are reused
	bufDest := -1
	flush := func() {
		if len(buf) > 0 {
			dests[bufDest].ApplyBatch(buf)
			buf = buf[:0]
		}
	}
	for _, sn := range snaps {
		sn.RangeStored(lo, hi-1, func(k int64, v *V, st core.Stored) bool {
			if s.snapObserver != nil {
				s.snapObserver(k, v)
			}
			baseline = append(baseline, migPair{k, st})
			d := destOf(k)
			if d != bufDest || len(buf) == migrateBatchSize {
				flush()
				bufDest = d
			}
			bufVals[len(buf)] = *v
			buf = append(buf, core.BatchOp[V]{Key: k, Val: &bufVals[len(buf)]})
			return true
		})
	}
	flush()
	rep.Copied = len(baseline)

	// seal: publish T1 (same routing, sealed range) and drain the gate.
	rep.Step = "seal"
	if chaos.Fail(chaos.ShardRebalance) {
		return abort()
	}
	t1 := newTable(t.splits, t.maps, &sealRange{lo: lo, hi: hi})
	sealedAt := time.Now()
	s.publish(t1)
	s.gate.flipDrain()
	if s.testHookSealed != nil {
		s.testHookSealed()
	}
	// unseal republishes T0's routing without the seal, releasing parked
	// writers back onto the sources; used by post-seal aborts.
	unseal := func() {
		s.publish(newTable(t.splits, t.maps, nil))
		rep.Sealed = time.Since(sealedAt)
		s.rebSealNanos.Add(int64(rep.Sealed))
	}

	// reconcile: the sources are frozen inside [lo, hi); diff them against
	// the copied baseline and fix the destinations.
	rep.Step = "reconcile"
	if chaos.Fail(chaos.ShardRebalance) {
		unseal()
		return abort()
	}
	var fixes []core.BatchOp[V]
	upsert := func(k int64, v *V) {
		cp := *v // v is the callback's reused copy
		fixes = append(fixes, core.BatchOp[V]{Key: k, Val: &cp})
	}
	bi := 0
	for i := first; i <= last; i++ {
		t.maps[i].RangeStored(lo, hi-1, func(k int64, v *V, st core.Stored) bool {
			for bi < len(baseline) && baseline[bi].k < k {
				// In the baseline, gone from the live source: deleted after
				// the snapshot. Remove it from its destination.
				fixes = append(fixes, core.BatchOp[V]{Key: baseline[bi].k, Del: true})
				bi++
			}
			if bi < len(baseline) && baseline[bi].k == k {
				if !baseline[bi].v.Same(st) {
					upsert(k, v) // same key, value rewritten after the snapshot
				}
				bi++
			} else {
				upsert(k, v) // live but never copied: inserted after the snapshot
			}
			return true
		})
	}
	for ; bi < len(baseline); bi++ {
		fixes = append(fixes, core.BatchOp[V]{Key: baseline[bi].k, Del: true})
	}
	rep.Reconciled = len(fixes)
	// Fixes arrive in ascending key order; apply per destination.
	for flo := 0; flo < len(fixes); {
		d := destOf(fixes[flo].Key)
		fhi := flo + 1
		for fhi < len(fixes) && destOf(fixes[fhi].Key) == d {
			fhi++
		}
		dests[d].ApplyBatch(fixes[flo:fhi])
		flo = fhi
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
	s.publish(newTable(splits, maps, nil))
	rep.Sealed = time.Since(sealedAt)
	s.rebSealNanos.Add(int64(rep.Sealed))
	s.rebCopied.Add(int64(rep.Copied))
	s.rebReconciled.Add(int64(rep.Reconciled))

	rep.Step = "done"
	rep.Bounds = splits
	return rep, nil
}
