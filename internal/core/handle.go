package core

import "skipvector/internal/vectormap"

// Handle pins an operation context — and with it the search finger — to one
// caller. Map methods draw contexts from a shared LIFO pool, which keeps the
// finger sticky for a single-threaded caller but shuffles contexts (and thus
// fingers) between goroutines under concurrency. A Handle removes the
// shuffle: every operation through it reuses the same context, so locality in
// the caller's key sequence translates directly into finger hits.
//
// A Handle is NOT safe for concurrent use — it is a per-goroutine session
// object (the map itself remains fully concurrent; any number of handles can
// operate in parallel). Close returns the context to the pool; using a
// closed handle panics.
type Handle[V any] struct {
	m   *Map[V]
	ctx *opCtx[V]
}

// NewHandle pins a fresh operation context for a single-goroutine session.
func (m *Map[V]) NewHandle() *Handle[V] {
	return &Handle[V]{m: m, ctx: m.ctxs.get()}
}

// Close returns the pinned context (its hazard-pointer handle and finger
// included) to the map's pool. Close is idempotent.
func (h *Handle[V]) Close() {
	if h.ctx != nil {
		h.m.ctxs.put(h.ctx)
		h.ctx = nil
	}
}

// Lookup is Map.Lookup through the pinned context.
func (h *Handle[V]) Lookup(k int64) (v *V, ok bool) {
	v = new(V)
	ok = h.LookupInto(k, v)
	return
}

// LookupInto is Map.LookupInto through the pinned context.
func (h *Handle[V]) LookupInto(k int64, out *V) bool {
	checkKey(k)
	return h.m.lookupCtx(h.ctx, k, out)
}

// Contains is Map.Contains through the pinned context.
func (h *Handle[V]) Contains(k int64) bool { return h.LookupInto(k, nil) }

// Insert is Map.Insert through the pinned context.
func (h *Handle[V]) Insert(k int64, v *V) bool {
	checkKey(k)
	return h.m.putCtx(h.ctx, k, h.m.cellOf(v), true)
}

// Remove is Map.Remove through the pinned context.
func (h *Handle[V]) Remove(k int64) bool {
	checkKey(k)
	return h.m.removeKey(h.ctx, k) == vectormap.SlotRemoved
}

// Upsert is Map.Upsert through the pinned context.
func (h *Handle[V]) Upsert(k int64, v *V) bool {
	checkKey(k)
	return h.m.putCtx(h.ctx, k, h.m.cellOf(v), false)
}

// ApplyBatch is Map.ApplyBatch through the pinned context. Batches whose key
// runs fall where the previous operation finished resume from the finger,
// skipping even the one descent per group.
func (h *Handle[V]) ApplyBatch(ops []BatchOp[V]) []BatchResult {
	return h.m.applyBatchCtx(h.ctx, ops)
}

// Floor is Map.Floor through the pinned context.
func (h *Handle[V]) Floor(k int64) (key int64, v *V, ok bool) {
	v = new(V)
	key, ok = h.FloorInto(k, v)
	return
}

// FloorInto is Map.FloorInto through the pinned context.
func (h *Handle[V]) FloorInto(k int64, out *V) (int64, bool) {
	checkKey(k)
	return h.m.floorCtx(h.ctx, k, out)
}

// Ceiling is Map.Ceiling through the pinned context.
func (h *Handle[V]) Ceiling(k int64) (key int64, v *V, ok bool) {
	v = new(V)
	key, ok = h.CeilingInto(k, v)
	return
}

// CeilingInto is Map.CeilingInto through the pinned context.
func (h *Handle[V]) CeilingInto(k int64, out *V) (int64, bool) {
	checkKey(k)
	return h.m.ceilingCtx(h.ctx, k, out)
}
