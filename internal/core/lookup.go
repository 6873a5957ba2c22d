package core

// Lookup returns a copy of the value mapped to k, or ok=false when k is
// absent (Listing 2). Like every *V result of the map, the pointer is the
// caller's own copy and means nothing when ok is false. Lookup, Floor and
// Ceiling are small enough to inline, which keeps the copy on the caller's
// stack. The operation is read-only and linearizes at the final
// validation of the data node's sequence lock.
func (m *Map[V]) Lookup(k int64) (v *V, ok bool) {
	v = new(V)
	ok = m.LookupInto(k, v)
	return
}

// LookupInto is Lookup copying the value into *out, which it leaves alone
// when k is absent.
func (m *Map[V]) LookupInto(k int64, out *V) bool {
	checkKey(k)
	ctx := m.ctxs.get()
	defer m.ctxs.put(ctx)
	return m.lookupCtx(ctx, k, out)
}

// Contains reports whether k is present.
func (m *Map[V]) Contains(k int64) bool { return m.LookupInto(k, nil) }

// lookupCtx is Lookup's retry loop against an explicit context (shared with
// Handle.Lookup). A nil out asks only for presence.
func (m *Map[V]) lookupCtx(ctx *opCtx[V], k int64, out *V) bool {
	for {
		if found, ok := m.lookupOnce(ctx, k, out); ok {
			return found
		}
		m.restart(ctx, opLookup)
	}
}

// lookupOnce is one optimistic attempt; ok=false requests a restart. The
// search finger short-circuits the descent when k falls inside the data node
// the context's previous operation finished on.
func (m *Map[V]) lookupOnce(ctx *opCtx[V], k int64, out *V) (found, ok bool) {
	curr, ver, hit := m.fingerSeek(ctx, k, modeRead)
	if !hit {
		curr, ver, ok = m.descendToData(ctx, k, modeRead)
		if !ok {
			return false, false
		}
	}
	c, found := curr.data().Get(k)
	// Linearization point: if the data node is unchanged, the speculative
	// Get above observed a consistent state (Listing 2 line 14).
	if !curr.lock.Validate(ver) {
		return false, false
	}
	m.recordFinger(ctx, curr, ver)
	ctx.dropAll()
	if found && out != nil {
		m.load(c, out)
	}
	return found, true
}
