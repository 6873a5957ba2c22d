package core

import (
	"skipvector/internal/chaos"
	"skipvector/internal/vectormap"
)

// Remove deletes the mapping for k, returning true when k was present. A
// successful Remove linearizes at the release of the data node's lock it
// removes k under; an unsuccessful one at the validated observation that k
// is absent from the data layer.
func (m *Map[V]) Remove(k int64) bool {
	checkKey(k)
	ctx := m.ctxs.get()
	defer m.ctxs.put(ctx)
	return m.removeKey(ctx, k) == vectormap.SlotRemoved
}

// removeKey deletes k (shared with Handle.Remove and writeKey). Every key
// that is not the minimum of a non-orphan data node — the (T_D-1)/T_D common
// case — is a group of one through the write kernel. Such a minimum may own
// an index tower, which only the top-down pass of Listing 4 can find and
// unlink, so the kernel defers it here. Taking that pass is a change of
// path, not a failed attempt, and charges no restart.
func (m *Map[V]) removeKey(ctx *opCtx[V], k int64) vectormap.SlotOutcome {
	if out, deferred := m.writeOne(ctx, vectormap.CellOp{Key: k, Del: true}, opRemove); !deferred {
		return out
	}
	for {
		if out, done := m.removeAttempt(ctx, k); done {
			return out
		}
		m.restart(ctx, opRemove)
	}
}

// removeAttempt performs one top-down attempt (Listing 4); done=false
// requests a restart.
func (m *Map[V]) removeAttempt(ctx *opCtx[V], k int64) (out vectormap.SlotOutcome, done bool) {
	curr := m.head
	ctx.take(curr)
	ver, ok := curr.lock.ReadVersion()
	if !ok {
		return 0, false
	}

	// Descend, watching for an index entry equal to k.
	var locked *node[V] // write-locked index node containing k, if found
	for curr.isIndex() {
		curr, ver, ok = m.traverseRight(ctx, curr, ver, k, modeWrite)
		if !ok {
			return 0, false
		}
		kf, child, found := curr.index().FindLE(k)
		if !found || child == nil {
			return 0, false
		}
		if kf == k {
			// k lives in this index layer. If k is the minimum of a
			// non-orphan node, then k must also appear one layer up — we
			// raced with an Insert and missed it; restart to find the true
			// topmost occurrence (Listing 4 line 13).
			minK, hasMin := curr.minKey()
			if !curr.lock.Validate(ver) {
				return 0, false
			}
			if hasMin && minK == k && !ver.Orphan() {
				return 0, false
			}
			// Subsequent layers are traversed non-speculatively under
			// hand-over-hand write locks (Listing 4 line 16).
			if !curr.lock.TryUpgrade(ver) {
				return 0, false
			}
			ctx.drop(curr)
			locked = curr
			break
		}
		curr, ver, ok = m.exchangeDown(ctx, curr, ver, child)
		if !ok {
			return 0, false
		}
	}

	slots, outs := ctx.single(vectormap.CellOp{Key: k, Del: true}, vectormap.SlotNone)
	if locked == nil {
		// k was not in any index layer, so only the data layer changes
		// (Listing 4 lines 23-31), as a group of one on the owner. If the
		// kernel defers again, k is the minimum of a non-orphan data node:
		// a concurrent Insert gave k an index entry that this descent missed
		// (Listing 4 line 28), so restart and remove it top-down.
		curr, ver, ok = m.traverseRight(ctx, curr, ver, k, modeWrite)
		if !ok {
			return 0, false
		}
		if _, deferred, ok := m.commitAt(ctx, curr, ver, slots, outs, opRemove); !ok || deferred {
			return 0, false
		}
		return outs[0], true
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
	m.applyLocked(ctx, curr, slots, outs, opRemove)
	if outs[0] != vectormap.SlotRemoved {
		panic("core: data entry for indexed key missing under write lock")
	}
	return outs[0], true
}
