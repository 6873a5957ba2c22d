package shard

// Stitched ordered iteration. A window [lo, hi] that crosses split keys is
// served shard by shard, left to right: each shard contributes the clamp of
// the window to its own boundary interval, and because shard i's keys are all
// strictly below shard i+1's, concatenating the per-shard segments yields the
// whole window in key order with no merge step.
//
// Each per-shard segment runs under that shard's strict-2PL range protocol
// and is individually linearizable; the stitched whole is NOT one atomic
// operation — a writer can commit into shard i+1 after the segment over shard
// i completed and still be observed. Callers needing an atomic range must
// keep it inside one shard (or use a single-shard map).
//
// The boundary table is reloaded at every segment boundary, so a scan that
// straddles a rebalance swap finishes against the new table: the remaining
// window re-routes to the freshly-migrated shards instead of draining a
// frozen source map. A swap landing mid-segment is harmless — the segment's
// source map holds every key it owned at the drain, and stitched iteration
// makes no cross-segment atomicity promise anyway.

// RangeQuery streams every k→v with lo ≤ k ≤ hi to fn in ascending key
// order, stopping early when fn returns false.
func (s *Sharded[V]) RangeQuery(lo, hi int64, fn func(k int64, v *V) bool) {
	if lo > hi {
		return
	}
	stopped := false
	next := lo
	for next <= hi && !stopped {
		t := s.tab.Load()
		i := t.indexOf(next)
		slo, shi := clamp(t, i, next, hi)
		t.load[i].inc(next)
		t.maps[i].RangeQuery(slo, shi, func(k int64, v *V) bool {
			if !fn(k, v) {
				stopped = true
				return false
			}
			return true
		})
		if i >= len(t.splits) {
			break // last shard: window exhausted
		}
		next = t.splits[i]
	}
}

// RangeUpdate applies fn to every k→v with lo ≤ k ≤ hi in ascending key
// order, storing a copy of each returned value, and reports how many entries
// were visited. Updates are atomic per shard segment, not across the whole
// window.
// Each segment is a gated write of its shard: a concurrent migration drains
// it, and a segment over a sealed shard parks until the successor table
// lands.
func (s *Sharded[V]) RangeUpdate(lo, hi int64, fn func(k int64, v *V) *V) int {
	if lo > hi {
		return 0
	}
	count := 0
	next := lo
	for next <= hi {
		t, i, gen, stripe := s.writeEnter(nil, next, nil)
		slo, shi := clamp(t, i, next, hi)
		count += t.maps[i].RangeUpdate(slo, shi, fn)
		s.gate.exit(gen, stripe)
		if i >= len(t.splits) {
			break
		}
		next = t.splits[i]
	}
	return count
}

// Ascend streams the whole map in ascending key order.
func (s *Sharded[V]) Ascend(fn func(k int64, v *V) bool) {
	s.RangeQuery(MinKey+1, MaxKey-1, fn)
}

// clamp intersects [lo, hi] with shard i's boundary interval, returning an
// inverted pair when the intersection is empty.
func clamp[V any](t *table[V], i int, lo, hi int64) (int64, int64) {
	if l := t.lowOf(i); lo < l {
		lo = l
	}
	if i < len(t.splits) && hi >= t.splits[i] {
		hi = t.splits[i] - 1
	}
	return lo, hi
}
