package core

import "skipvector/internal/vectormap"

// Upsert adds or overwrites the mapping k→v, returning true when k was newly
// inserted and false when an existing value was overwritten. A fresh insert
// linearizes as Insert does; an overwrite linearizes at the release of the
// owning data node's lock.
func (m *Map[V]) Upsert(k int64, v *V) bool {
	checkKey(k)
	c := m.cellOf(v)
	ctx := m.ctxs.get()
	defer m.ctxs.put(ctx)
	return m.upsertWithHeight(ctx, k, c, ctx.randomHeight())
}

// upsertWithHeight is the upsert loop at a caller-chosen tower height (shared
// with ApplyBatch's singleton route, which draws heights at sort time). The
// insert and overwrite attempts alternate until one of them wins: each
// settles the key's presence at its own linearization point, and a mismatch
// (the key appeared or vanished in between) simply takes the other path.
func (m *Map[V]) upsertWithHeight(ctx *opCtx[V], k int64, v vectormap.Cell, height int) bool {
	for {
		if m.insertWithHeight(ctx, k, v, height) {
			return true
		}
		if updated, done := m.setOnce(ctx, k, v); done {
			if updated {
				return false
			}
			continue // k vanished since the failed insert; insert again
		}
		m.restart(ctx, opInsert)
	}
}

// setOnce attempts one in-place overwrite of an existing key: settle on the
// owning data node (finger fast path first), upgrade, and store the new
// payload. done=false requests a restart; (false, true) is a validated
// observation that k is absent.
func (m *Map[V]) setOnce(ctx *opCtx[V], k int64, v vectormap.Cell) (updated, done bool) {
	curr, ver, hit := m.fingerSeek(ctx, k, modeWrite, fingerPoint)
	if !hit {
		var ok bool
		curr, ver, ok = m.descendToData(ctx, k, modeWrite)
		if !ok {
			return false, false
		}
	}
	if !curr.lock.TryUpgrade(ver) {
		return false, false
	}
	ctx.drop(curr)
	// As in removeFromDataLayer: with snapshots pinned, settle presence
	// before publishing the pre-image, because the absence path must leave
	// the node (and its verEpoch) untouched for Abort.
	if m.snaps.count.Load() > 0 {
		if !curr.data().Contains(k) {
			m.recordFinger(ctx, curr, curr.lock.Abort())
			ctx.dropAll()
			return false, true
		}
		m.noteDataWrite(curr)
	}
	if curr.data().Set(k, v) {
		m.logPut(ctx, k, v) // before the release that publishes it (commit.go)
		fver := curr.lock.Release()
		m.recordFinger(ctx, curr, fver)
		ctx.dropAll()
		return true, true
	}
	// curr owns k and does not contain it: a validated absence. Abort keeps
	// earlier readers' snapshots intact (nothing was modified).
	m.recordFinger(ctx, curr, curr.lock.Abort())
	ctx.dropAll()
	return false, true
}
