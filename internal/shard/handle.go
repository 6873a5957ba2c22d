package shard

import "skipvector/internal/core"

// Handle is a per-goroutine session over the sharded map: it lazily pins one
// core handle per shard, so a caller with key locality gets the same search
// finger benefits a single-map Handle gives — the finger lives in the shard
// the caller's keys keep landing in. Like the core Handle it is NOT safe for
// concurrent use; open one per goroutine (the sharded map itself remains
// fully concurrent).
//
// A Handle caches the boundary table but REBINDS when a rebalance publishes
// a new one: every operation compares the cached table against the current
// pointer and, on a swap, re-keys its per-shard sessions to the new table —
// sessions over shards the migration did not touch survive with their search
// fingers intact; sessions over replaced shards are closed. Routing through
// a retired table would silently write into a frozen, unreferenced source
// map, so this check is what keeps handle writes linearizable across swaps.
type Handle[V any] struct {
	t      *table[V]
	s      *Sharded[V]
	shards []*core.Handle[V] // lazily opened, indexed by shard
}

// NewHandle opens a session against the current boundary table. Close it.
func (s *Sharded[V]) NewHandle() *Handle[V] {
	t := s.tab.Load()
	return &Handle[V]{t: t, s: s, shards: make([]*core.Handle[V], len(t.maps))}
}

// Close releases every per-shard session. Idempotent; as with a core
// Handle, using the handle afterwards panics.
func (h *Handle[V]) Close() {
	for _, sh := range h.shards {
		if sh != nil {
			sh.Close()
		}
	}
	h.shards, h.t = nil, nil
}

// rebind refreshes the cached table if a rebalance swapped it, carrying the
// open per-shard sessions of every map that survives into the new table
// (same *core.Map, possibly at a new index) and closing the sessions of maps
// the migration retired. Swaps are rare, so the quadratic carry-over scan is
// irrelevant; the common case is one pointer compare.
func (h *Handle[V]) rebind() *table[V] {
	cur := h.s.tab.Load()
	if cur == h.t {
		return cur
	}
	old := h.shards
	oldMaps := h.t.maps
	h.shards = make([]*core.Handle[V], len(cur.maps))
	for i, m := range cur.maps {
		for j, om := range oldMaps {
			if om == m && old[j] != nil {
				h.shards[i] = old[j]
				old[j] = nil
				break
			}
		}
	}
	for _, sh := range old {
		if sh != nil {
			sh.Close()
		}
	}
	h.t = cur
	return cur
}

// at returns the pinned session for shard i, opening it on first use: a
// caller whose keys stay inside one shard never pays for contexts in the
// others.
func (h *Handle[V]) at(i int) *core.Handle[V] {
	if h.shards[i] == nil {
		h.shards[i] = h.t.maps[i].NewHandle()
	}
	return h.shards[i]
}

// Lookup is Sharded.Lookup through the pinned sessions.
func (h *Handle[V]) Lookup(k int64) (v *V, ok bool) {
	v = new(V)
	ok = h.LookupInto(k, v)
	return
}

// LookupInto is Sharded.LookupInto through the pinned sessions.
func (h *Handle[V]) LookupInto(k int64, out *V) bool {
	t := h.rebind()
	i := t.indexOf(k)
	t.load[i].inc(k)
	return h.at(i).LookupInto(k, out)
}

// Contains is Sharded.Contains through the pinned sessions.
func (h *Handle[V]) Contains(k int64) bool {
	t := h.rebind()
	i := t.indexOf(k)
	t.load[i].inc(k)
	return h.at(i).Contains(k)
}

// Insert is Sharded.Insert through the pinned sessions.
func (h *Handle[V]) Insert(k int64, v *V) bool {
	_, i, gen, stripe := h.s.writeEnter(h, k, nil)
	ok := h.at(i).Insert(k, v)
	h.s.gate.exit(gen, stripe)
	return ok
}

// Upsert is Sharded.Upsert through the pinned sessions.
func (h *Handle[V]) Upsert(k int64, v *V) bool {
	_, i, gen, stripe := h.s.writeEnter(h, k, nil)
	ok := h.at(i).Upsert(k, v)
	h.s.gate.exit(gen, stripe)
	return ok
}

// Remove is Sharded.Remove through the pinned sessions.
func (h *Handle[V]) Remove(k int64) bool {
	_, i, gen, stripe := h.s.writeEnter(h, k, nil)
	ok := h.at(i).Remove(k)
	h.s.gate.exit(gen, stripe)
	return ok
}

// ApplyBatch is Sharded.ApplyBatch through the pinned sessions: a batch
// confined to one shard, and the inline part of one that spans several,
// apply on this handle's session (finger-resumable); the parts fanned out
// to other goroutines apply on their maps, since a session is not shared.
func (h *Handle[V]) ApplyBatch(ops []core.BatchOp[V]) []core.BatchResult {
	return h.s.applyBatch(h, ops)
}

// Floor is Sharded.Floor through the pinned sessions.
func (h *Handle[V]) Floor(k int64) (key int64, v *V, ok bool) {
	v = new(V)
	key, ok = h.FloorInto(k, v)
	return
}

// FloorInto is Sharded.FloorInto through the pinned sessions.
func (h *Handle[V]) FloorInto(k int64, out *V) (int64, bool) {
	t := h.rebind()
	t.load[t.indexOf(k)].inc(k)
	for i := t.indexOf(k); i >= 0; i-- {
		if fk, ok := h.at(i).FloorInto(k, out); ok {
			return fk, true
		}
	}
	return 0, false
}

// Ceiling is Sharded.Ceiling through the pinned sessions.
func (h *Handle[V]) Ceiling(k int64) (key int64, v *V, ok bool) {
	v = new(V)
	key, ok = h.CeilingInto(k, v)
	return
}

// CeilingInto is Sharded.CeilingInto through the pinned sessions.
func (h *Handle[V]) CeilingInto(k int64, out *V) (int64, bool) {
	t := h.rebind()
	t.load[t.indexOf(k)].inc(k)
	for i := t.indexOf(k); i < len(t.maps); i++ {
		if ck, ok := h.at(i).CeilingInto(k, out); ok {
			return ck, true
		}
	}
	return 0, false
}
