package core

import (
	"skipvector/internal/seqlock"
	"skipvector/internal/vectormap"
)

// Range operations (Section V-B, Figure 8). Because the skip vector is
// lock-based, serializable range operations fall out of two-phase locking:
// the operation locks every data node spanning [lo,hi], applies its
// function, and only then releases. Mutating and read-only range operations
// are both linearizable; concurrent point operations either complete before
// the range takes its locks or are forced to restart and observe its result.

// RangeQuery calls fn for every mapping with lo ≤ key ≤ hi, in ascending key
// order. fn returning false stops the iteration early (locks are still
// released properly). fn must not call back into the map. v points at a copy
// that the next call overwrites.
func (m *Map[V]) RangeQuery(lo, hi int64, fn func(k int64, v *V) bool) {
	if lo > hi {
		return
	}
	var v V
	m.lockedRange(lo, hi, false, func(k int64, c vectormap.Cell) (vectormap.Cell, bool) {
		m.load(c, &v)
		return c, fn(k, &v)
	})
}

// RangeStored is RangeQuery that also reports each value as the map stores
// it, so a caller can later tell whether the key was rewritten (Stored.Same).
func (m *Map[V]) RangeStored(lo, hi int64, fn func(k int64, v *V, s Stored) bool) {
	if lo > hi {
		return
	}
	var v V
	m.lockedRange(lo, hi, false, func(k int64, c vectormap.Cell) (vectormap.Cell, bool) {
		m.load(c, &v)
		return c, fn(k, &v, Stored{c})
	})
}

// RangeUpdate calls fn for every mapping with lo ≤ key ≤ hi in ascending key
// order and replaces each value with a copy of fn's return. It returns the
// number of mappings visited. The whole update is a single serializable
// operation. v points at a copy that the next call overwrites.
func (m *Map[V]) RangeUpdate(lo, hi int64, fn func(k int64, v *V) *V) int {
	if lo > hi {
		return 0
	}
	count := 0
	var v V
	m.lockedRange(lo, hi, true, func(k int64, c vectormap.Cell) (vectormap.Cell, bool) {
		count++
		m.load(c, &v)
		return m.cellOf(fn(k, &v)), true
	})
	return count
}

// Ascend iterates every mapping in ascending key order under range locks.
func (m *Map[V]) Ascend(fn func(k int64, v *V) bool) {
	m.RangeQuery(MinKey+1, MaxKey-1, fn)
}

// lockedRange implements both range operations. It descends optimistically
// to the data node owning lo, upgrades to a write lock, and then extends the
// locked window rightward hand-over-hand until the node minima exceed hi.
// All locks are held until the function has been applied everywhere (strict
// two-phase locking); read-only ranges release with Abort so that concurrent
// optimistic readers of untouched nodes stay valid. A mutating range stores
// every cell fn returns; a read-only one ignores them.
func (m *Map[V]) lockedRange(lo, hi int64, mutate bool, fn func(k int64, c vectormap.Cell) (vectormap.Cell, bool)) {
	// Clamp the window to the user key space so sentinel entries (⊥ in the
	// head, ⊤ in the tail) are never exposed to fn.
	if lo <= MinKey {
		lo = MinKey + 1
	}
	if hi >= MaxKey {
		hi = MaxKey - 1
	}
	ctx := m.ctxs.get()
	defer m.ctxs.put(ctx)

	locked := ctx.batch.segs[:0] // the window, in the context's node buffer
	for {
		curr, ver, hit := m.fingerSeek(ctx, lo, modeRead)
		if !hit {
			var ok bool
			curr, ver, ok = m.descendToData(ctx, lo, modeRead)
			if !ok {
				m.restart(ctx, opRange)
				continue
			}
		}
		if !curr.lock.TryUpgrade(ver) {
			m.restart(ctx, opRange)
			continue
		}
		// From here on locks, not hazard pointers, protect the traversal:
		// a locked node cannot be retired, and its next pointer cannot
		// change, so the next node is reachable and stable once locked too.
		ctx.dropAll()
		locked = append(locked[:0], curr)
		break
	}

	// Growth phase: extend the locked window right while nodes may hold
	// keys ≤ hi. Node minima are strictly increasing along the layer, so
	// the first locked node whose minimum exceeds hi ends the window.
	for {
		last := locked[len(locked)-1]
		next := last.next.Load()
		if next == nil {
			break
		}
		next.lock.Acquire()
		locked = append(locked, next)
		if minK, ok := next.minKey(); ok && minK > hi {
			break
		}
		if next.next.Load() == nil {
			break // tail
		}
	}

	// Apply phase: every element in [lo,hi] is covered by the window. The
	// copy-on-write decision is made once, at the first actual mutation, and
	// one epoch covers every node the window modifies: all locks are held
	// until the end (2PL), so either every modified node's pre-image is
	// published under that single epoch, or none is and the whole range op
	// is ordered before any snapshot pinned mid-window (snapshot.go). An
	// unmodified node is released with its verEpoch untouched either way.
	stopped := false
	var cowEpoch uint64
	cowDecided := false
	logging := mutate && m.commitHook != nil
	slots, outs := ctx.batch.slots[:0], ctx.batch.outs[:0]
	notePre := func(n *node[V]) {
		if !cowDecided {
			cowDecided = true
			cowEpoch = m.noteDataWrite(n)
			return
		}
		if cowEpoch != 0 {
			m.publishPreImage(n, cowEpoch)
		}
	}
	for _, n := range locked {
		if stopped {
			break
		}
		noted := false
		n.data().ForEachOrdered(func(k int64, c vectormap.Cell) bool {
			if k < lo || k > hi {
				return true
			}
			nc, cont := fn(k, c)
			if mutate {
				if !noted {
					noted = true
					notePre(n)
				}
				n.data().Set(k, nc)
				if logging {
					slots = append(slots, vectormap.CellOp{Key: k, Val: nc})
					outs = append(outs, vectormap.SlotUpdated)
				}
			}
			if !cont {
				stopped = true
				return false
			}
			return true
		})
	}

	// Commit hook: one CommitRange invocation with the whole update set,
	// fired while every window lock is still held — the 2PL span is the
	// operation's linearization point, so no conflicting write can order
	// itself between the hook call and the releases below (commit.go).
	m.logOps(ctx, CommitRange, slots, outs)
	clear(slots) // don't pin the values past the call
	ctx.batch.slots, ctx.batch.outs = slots[:0], outs[:0]

	// Shrink phase: release everything. Mutating ranges bump sequence
	// numbers; read-only ranges restore the pre-lock words. The last window
	// node still covering hi becomes the search finger, so a follow-up
	// operation near the range's right edge (the next slice of a segmented
	// scan, say) resumes without a descent.
	var fnode *node[V]
	var fver seqlock.Version
	for _, n := range locked {
		minK, hasMin := n.minKey() // read under the lock, before release
		var ver seqlock.Version
		if mutate {
			ver = n.lock.Release()
		} else {
			ver = n.lock.Abort()
		}
		if hasMin && minK <= hi {
			fnode, fver = n, ver
		}
	}
	clear(locked) // a pooled context pins no nodes
	ctx.batch.segs = locked[:0]
	m.recordFinger(ctx, fnode, fver)
}
