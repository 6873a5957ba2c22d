package core

import (
	"skipvector/internal/chaos"
	"skipvector/internal/seqlock"
)

// Remove deletes the mapping for k, returning true when k was present
// (Listing 4). A successful Remove linearizes at the write-acquisition of
// its last lock; an unsuccessful one at the validated observation that k is
// absent from the data layer.
func (m *Map[V]) Remove(k int64) bool {
	checkKey(k)
	ctx := m.ctxs.get()
	defer m.ctxs.put(ctx)
	return m.removeCtx(ctx, k)
}

// removeCtx is Remove's retry loop against an explicit context (shared with
// Handle.Remove).
func (m *Map[V]) removeCtx(ctx *opCtx[V], k int64) bool {
	for {
		if result, done := m.removeAttempt(ctx, k); done {
			return result
		}
		m.restart(ctx, opRemove)
	}
}

// removeAttempt performs one optimistic attempt; done=false requests a
// restart.
func (m *Map[V]) removeAttempt(ctx *opCtx[V], k int64) (result, done bool) {
	// An indexed key is always the minimum of its data node, and fingerRemove
	// accepts only keys strictly above the minimum of the node the finger's
	// walk lands on, so a finger hit proves k has no index tower: the whole descent — including
	// the per-layer search for an index entry equal to k — can be skipped.
	if fcurr, fver, hit := m.fingerSeek(ctx, k, modeWrite, fingerRemove); hit {
		return m.removeFromDataLayer(ctx, fcurr, fver, k)
	}

	curr := m.head
	ctx.take(curr)
	ver, ok := curr.lock.ReadVersion()
	if !ok {
		return false, false
	}

	// Descend, watching for an index entry equal to k.
	var locked *node[V] // write-locked index node containing k, if found
	for curr.isIndex() {
		curr, ver, ok = m.traverseRight(ctx, curr, ver, k, modeWrite)
		if !ok {
			return false, false
		}
		kf, child, found := curr.index().FindLE(k)
		if !found || child == nil {
			return false, false
		}
		if kf == k {
			// k lives in this index layer. If k is the minimum of a
			// non-orphan node, then k must also appear one layer up — we
			// raced with an Insert and missed it; restart to find the true
			// topmost occurrence (Listing 4 line 13).
			minK, hasMin := curr.minKey()
			if !curr.lock.Validate(ver) {
				return false, false
			}
			if hasMin && minK == k && !ver.Orphan() {
				return false, false
			}
			// Subsequent layers are traversed non-speculatively under
			// hand-over-hand write locks (Listing 4 line 16).
			if !curr.lock.TryUpgrade(ver) {
				return false, false
			}
			ctx.drop(curr)
			locked = curr
			break
		}
		curr, ver, ok = m.exchangeDown(ctx, curr, ver, child)
		if !ok {
			return false, false
		}
	}

	if locked == nil {
		// Common case: k was not in any index layer, so only the data
		// layer needs to change (Listing 4 lines 23-31). Settle on the
		// owning data node first.
		curr, ver, ok = m.traverseRight(ctx, curr, ver, k, modeWrite)
		if !ok {
			return false, false
		}
		return m.removeFromDataLayer(ctx, curr, ver, k)
	}

	// k was found in an index layer: walk down removing it from every
	// layer, marking each lower node an orphan, hand-over-hand (Listing 4
	// lines 36-44). The nodes below are reachable only through locked
	// parents, so no hazard pointers are needed.
	curr = locked
	for curr.isIndex() {
		child, found := curr.index().Remove(k)
		if !found || child == nil {
			panic("core: index entry vanished under write lock")
		}
		child.lock.Acquire()
		child.lock.SetOrphan(true)
		m.stats.Orphans.Add(1)
		// The child is locked+orphan while its (about to be released)
		// parent still holds k; stretch this hand-over-hand window.
		chaos.Step(chaos.CoreOrphan)
		curr.lock.Release()
		curr = child
	}
	m.noteDataWrite(curr) // CoW pre-image before the first mutation (snapshot.go)
	if _, found := curr.data().Remove(k); !found {
		panic("core: data entry for indexed key missing under write lock")
	}
	m.logDel(ctx, k) // before the release that publishes it (commit.go)
	fver := curr.lock.Release()
	ctx.dropAll()
	m.length.add(ctx.stripe, -1)
	m.recordFinger(ctx, curr, fver)
	return true, true
}

// removeFromDataLayer handles the common case where k has no index entries.
// curr is the data node reached by the descent, with snapshot ver.
func (m *Map[V]) removeFromDataLayer(
	ctx *opCtx[V], curr *node[V], ver seqlock.Version, k int64,
) (result, done bool) {
	if !curr.lock.TryUpgrade(ver) {
		return false, false
	}
	ctx.drop(curr)
	// Mirror of the index-layer race check (Listing 4 line 28): if k is the
	// minimum of a non-orphan data node, a concurrent Insert gave k an
	// index entry that this descent missed; restart and remove it top-down.
	minK, hasMin := curr.minKey()
	if hasMin && minK == k && !curr.lock.IsOrphan() {
		curr.lock.Abort()
		return false, false
	}
	// With snapshots pinned the pre-image must be published before the chunk
	// changes, and only for a write that will actually change it: the
	// absence path releases with Abort, which forbids any modification —
	// including a verEpoch bump — so presence is settled first.
	if m.snaps.count.Load() > 0 {
		if !curr.data().Contains(k) {
			m.recordFinger(ctx, curr, curr.lock.Abort())
			ctx.dropAll()
			return false, true
		}
		m.noteDataWrite(curr)
	}
	_, removed := curr.data().Remove(k)
	if removed {
		m.logDel(ctx, k) // before the release that publishes it (commit.go)
		fver := curr.lock.Release()
		m.length.add(ctx.stripe, -1)
		m.recordFinger(ctx, curr, fver)
	} else {
		// Abort restores the pre-acquisition word, which is a valid snapshot
		// of the (unmodified) node — remember it for the next operation.
		m.recordFinger(ctx, curr, curr.lock.Abort())
	}
	ctx.dropAll()
	return removed, true
}
