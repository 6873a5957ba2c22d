package core

// Ordered-map navigation queries. These make the skip vector usable as a
// drop-in ordered index (floor/ceiling are what database scans and
// time-series cursors are built from) and exercise the same optimistic
// traversal machinery as Lookup: every answer is validated against the
// owning node's sequence lock before being returned, so each query is
// linearizable at its final validation.
//
// Both queries participate in the search finger: they resume from the
// remembered data node when it still owns k, and they remember the node
// their answer came from, which turns an ascending sequence of Ceiling
// calls (the Cursor pattern) into a hand-over-hand walk with no descents.

// Floor returns the largest key ≤ k and a copy of its value, or ok=false
// when no such key exists (see Lookup for the result pointer).
func (m *Map[V]) Floor(k int64) (key int64, v *V, ok bool) {
	v = new(V)
	key, ok = m.FloorInto(k, v)
	return
}

// FloorInto is Floor copying the value into *out, which it leaves alone when
// no key qualifies.
func (m *Map[V]) FloorInto(k int64, out *V) (int64, bool) {
	checkKey(k)
	ctx := m.ctxs.get()
	defer m.ctxs.put(ctx)
	return m.floorCtx(ctx, k, out)
}

// floorCtx is Floor's retry loop against an explicit context (shared with
// Handle.Floor).
func (m *Map[V]) floorCtx(ctx *opCtx[V], k int64, out *V) (int64, bool) {
	for {
		if key, found, ok := m.floorOnce(ctx, k, out); ok {
			return key, found
		}
		m.restart(ctx, opNav)
	}
}

func (m *Map[V]) floorOnce(ctx *opCtx[V], k int64, out *V) (key int64, found, ok bool) {
	curr, ver, hit := m.fingerSeek(ctx, k, modeRead)
	if !hit {
		curr, ver, ok = m.descendToData(ctx, k, modeRead)
		if !ok {
			return 0, false, false
		}
	}
	fk, fc, has := curr.data().FindLE(k)
	if !curr.lock.Validate(ver) {
		return 0, false, false
	}
	m.recordFinger(ctx, curr, ver)
	ctx.dropAll()
	if !has || fk == MinKey {
		// Only the head sentinel is ≤ k: no user key qualifies. (The
		// traversal already settled on the rightmost node with min ≤ k, so
		// nothing to the left can hold a larger qualifying key.)
		return 0, false, true
	}
	m.load(fc, out)
	return fk, true, true
}

// Ceiling returns the smallest key ≥ k and a copy of its value, or ok=false
// when no such key exists (see Lookup for the result pointer).
func (m *Map[V]) Ceiling(k int64) (key int64, v *V, ok bool) {
	v = new(V)
	key, ok = m.CeilingInto(k, v)
	return
}

// CeilingInto is Ceiling copying the value into *out, which it leaves alone
// when no key qualifies.
func (m *Map[V]) CeilingInto(k int64, out *V) (int64, bool) {
	checkKey(k)
	ctx := m.ctxs.get()
	defer m.ctxs.put(ctx)
	return m.ceilingCtx(ctx, k, out)
}

// ceilingCtx is Ceiling's retry loop against an explicit context (shared
// with Handle.Ceiling and the public Cursor).
func (m *Map[V]) ceilingCtx(ctx *opCtx[V], k int64, out *V) (int64, bool) {
	for {
		if key, found, ok := m.ceilingOnce(ctx, k, out); ok {
			return key, found
		}
		m.restart(ctx, opNav)
	}
}

func (m *Map[V]) ceilingOnce(ctx *opCtx[V], k int64, out *V) (key int64, found, ok bool) {
	curr, ver, hit := m.fingerSeek(ctx, k, modeRead)
	if !hit {
		curr, ver, ok = m.descendToData(ctx, k, modeRead)
		if !ok {
			return 0, false, false
		}
	}
	// Walk right until a node yields a key ≥ k. The first candidate node is
	// the one owning k; successors are reached hand-over-hand with the same
	// validation discipline as traverseRight.
	for {
		ck, cc, has := curr.data().FindGE(k)
		if has {
			if !curr.lock.Validate(ver) {
				return 0, false, false
			}
			if ck == MaxKey {
				ctx.dropAll()
				return 0, false, true // only the tail sentinel remains
			}
			// Remember the node the answer came from (never the tail, which
			// owns no user keys and could never produce a hit).
			m.recordFinger(ctx, curr, ver)
			ctx.dropAll()
			m.load(cc, out)
			return ck, true, true
		}
		next := curr.next.Load()
		if next == nil {
			return 0, false, false // torn read of a recycled node
		}
		ctx.take(next)
		if !curr.lock.Validate(ver) {
			return 0, false, false
		}
		nextVer, readOK := next.lock.ReadVersion()
		if !readOK {
			return 0, false, false
		}
		ctx.drop(curr)
		curr, ver = next, nextVer
	}
}
