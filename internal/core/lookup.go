package core

// Lookup returns the value mapped to k, or ok=false when k is absent
// (Listing 2). The operation is read-only and linearizes at the final
// validation of the data node's sequence lock.
func (m *Map[V]) Lookup(k int64) (*V, bool) {
	checkKey(k)
	ctx := m.ctxs.get()
	defer m.ctxs.put(ctx)
	return m.lookupCtx(ctx, k)
}

// Contains reports whether k is present.
func (m *Map[V]) Contains(k int64) bool {
	_, found := m.Lookup(k)
	return found
}

// lookupCtx is Lookup's retry loop against an explicit context (shared with
// Handle.Lookup).
func (m *Map[V]) lookupCtx(ctx *opCtx[V], k int64) (*V, bool) {
	for {
		if v, found, ok := m.lookupOnce(ctx, k); ok {
			return v, found
		}
		m.restart(ctx, opLookup)
	}
}

// lookupOnce is one optimistic attempt; ok=false requests a restart. The
// search finger short-circuits the descent when k falls inside the data node
// the context's previous operation finished on.
func (m *Map[V]) lookupOnce(ctx *opCtx[V], k int64) (v *V, found, ok bool) {
	curr, ver, hit := m.fingerSeek(ctx, k, fingerPoint)
	if !hit {
		curr, ver, ok = m.descendToData(ctx, k, modeRead)
		if !ok {
			return nil, false, false
		}
	}
	v, found = curr.data().Get(k)
	// Linearization point: if the data node is unchanged, the speculative
	// Get above observed a consistent state (Listing 2 line 14).
	if !curr.lock.Validate(ver) {
		return nil, false, false
	}
	m.recordFinger(ctx, curr, ver)
	ctx.dropAll()
	return v, found, true
}
