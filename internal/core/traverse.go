package core

import (
	"skipvector/internal/chaos"
	"skipvector/internal/seqlock"
)

// traverseMode distinguishes read-only traversals from mutating ones:
// Lookup only unlinks empty orphans, while Insert and Remove additionally
// merge under-full orphans into their predecessors (Listing 2 line 29).
type traverseMode int

const (
	modeRead traverseMode = iota + 1
	modeWrite
)

// traverseRight walks rightward in curr's layer until it reaches the node
// that owns key k: the rightmost node whose minimum key is ≤ k (Listing 2,
// TraverseRight). Along the way it performs lazy maintenance, unlinking
// empty orphans (any mode) and merging under-full orphans (write mode).
//
// On entry the caller holds a hazard pointer for curr and a validated-so-far
// snapshot ver of curr's lock. On success the same holds for the returned
// node. ok=false means a validation failed and the whole operation must
// restart; the caller is responsible for dropping hazard pointers.
func (m *Map[V]) traverseRight(
	ctx *opCtx[V], curr *node[V], ver seqlock.Version, k int64, mode traverseMode,
) (*node[V], seqlock.Version, bool) {
	return m.traverseRightN(ctx, curr, ver, k, mode, -1)
}

// traverseRightN is traverseRight with a hop budget: when budget ≥ 0, the
// walk gives up (ok=false) instead of advancing past budget nodes. A bounded
// walk is how the search finger resumes from the node the previous
// operation finished on (fingerSeek) — consecutive operations with locality
// usually sit zero or one chunk apart, and when they don't, a full descent
// beats an O(n) rightward crawl. budget < 0 is the ordinary unbounded
// traversal. Orphan merges do not count against the budget: each merge
// removes a node, so they are globally bounded, and charging them would make
// a maintenance backlog look like missing locality.
func (m *Map[V]) traverseRightN(
	ctx *opCtx[V], curr *node[V], ver seqlock.Version, k int64, mode traverseMode, budget int,
) (*node[V], seqlock.Version, bool) {
	for {
		// Stop when curr plausibly owns k: it has elements and its max key
		// is ≥ k. The reads are speculative; if they lied, a later
		// validation catches it.
		if maxK, ok := curr.maxKey(); ok && k <= maxK {
			return curr, ver, true
		}

		next := curr.next.Load()
		if next == nil {
			// Torn read (only a recycled node has nil next); curr must
			// have changed.
			return nil, 0, false
		}
		ctx.take(next)
		// Validating curr proves next was still curr's successor when the
		// hazard pointer above became visible, so next is protected.
		if !curr.lock.Validate(ver) {
			return nil, 0, false
		}
		nextVer, ok := next.lock.ReadVersion()
		if !ok {
			return nil, 0, false
		}

		// Lazy maintenance: unlink an empty orphan, or merge an under-full
		// one when we are a mutating operation.
		if nextVer.Orphan() {
			nextSize := next.size()
			if nextSize == 0 || (mode == modeWrite && curr.size()+nextSize < m.mergeLimit(curr)) {
				merged, newVer := m.mergeOrphan(ctx, curr, ver, next, nextVer)
				if !merged {
					return nil, 0, false
				}
				ver = newVer
				continue
			}
		}

		nextMin, hasMin := next.minKey()
		if !hasMin {
			// next is empty but was not merged (e.g. a read-mode pass over
			// a non-orphan mid-state); treat as inconsistent.
			if !next.lock.Validate(nextVer) {
				return nil, 0, false
			}
			return nil, 0, false
		}
		if k < nextMin {
			// k belongs to curr; rule next out and stop.
			if !next.lock.Validate(nextVer) {
				return nil, 0, false
			}
			ctx.drop(next)
			return curr, ver, true
		}

		// Advance: hand over from curr to next.
		if budget == 0 {
			return nil, 0, false
		}
		if budget > 0 {
			budget--
		}
		if !curr.lock.Validate(ver) {
			return nil, 0, false
		}
		ctx.drop(curr)
		curr, ver = next, nextVer
	}
}

// mergeLimit returns the merge threshold for curr's layer class.
func (m *Map[V]) mergeLimit(curr *node[V]) int {
	if curr.isIndex() {
		return m.mergeIndex
	}
	return m.mergeData
}

// mergeOrphan absorbs the orphan next into curr and unlinks it (Listing 2
// lines 30-38). Both locks are taken with tryUpgrade from the validated
// snapshots; any failure aborts without modification and forces a restart.
// On success it returns curr's post-release version so the caller can keep
// traversing from curr.
func (m *Map[V]) mergeOrphan(
	ctx *opCtx[V], curr *node[V], ver seqlock.Version, next *node[V], nextVer seqlock.Version,
) (bool, seqlock.Version) {
	if !curr.lock.TryUpgrade(ver) {
		return false, 0
	}
	if !next.lock.TryUpgrade(nextVer) {
		curr.lock.Abort()
		return false, 0
	}
	// Both nodes are now locked but nothing is absorbed or unlinked yet;
	// stretch the window optimistic readers must detect and restart from.
	chaos.Step(chaos.CoreMerge)
	// Re-check under the locks: the snapshots guaranteed this held at
	// upgrade time, but make the invariant explicit.
	if next.isIndex() != curr.isIndex() {
		panic("core: merging nodes from different layer classes")
	}
	if !curr.isIndex() {
		// One epoch covers the whole merge: both pre-images (the absorber's
		// and the emptied source's) are published before either chunk moves,
		// so a snapshot pinned before this point reads the pair from the
		// version store and skips both nodes' live content (snapshot.go).
		m.noteDataWrite2(curr, next)
	}
	curr.chunk.AbsorbFrom(&next.chunk)
	curr.next.Store(next.next.Load())
	ctx.retire(next)
	next.lock.Release()
	ctx.drop(next)
	newVer := curr.lock.Release()
	m.stats.Merges.Add(1)
	return true, newVer
}

// exchangeDown moves the traversal one layer down through the child pointer
// found in curr (Listing 2, ExchangeDown). The hazard pointer for the child
// is published first and proven valid by re-validating curr; then the
// child's lock is snapshotted and curr validated once more so the snapshot
// is known to belong to a still-reachable child.
func (m *Map[V]) exchangeDown(
	ctx *opCtx[V], curr *node[V], ver seqlock.Version, child *node[V],
) (*node[V], seqlock.Version, bool) {
	ctx.take(child)
	if !curr.lock.Validate(ver) {
		return nil, 0, false
	}
	childVer, ok := child.lock.ReadVersion()
	if !ok {
		return nil, 0, false
	}
	if !curr.lock.Validate(ver) {
		return nil, 0, false
	}
	ctx.drop(curr)
	return child, childVer, true
}

// descendToData performs the descent shared by the read paths and the write
// kernel (writeGroup): from the top head, repeatedly traverse right and
// exchange down until the data layer, then traverse right once more. On success the caller
// holds a hazard pointer on the returned data node and a snapshot of its
// lock to validate against.
func (m *Map[V]) descendToData(
	ctx *opCtx[V], k int64, mode traverseMode,
) (*node[V], seqlock.Version, bool) {
	curr := m.head
	ctx.take(curr)
	ver, ok := curr.lock.ReadVersion()
	if !ok {
		return nil, 0, false
	}
	depth := 0
	for curr.isIndex() {
		curr, ver, ok = m.traverseRight(ctx, curr, ver, k, mode)
		if !ok {
			return nil, 0, false
		}
		_, child, found := curr.index().FindLE(k)
		if !found || child == nil {
			// The traversal invariant (minKey ≤ k) says this cannot happen
			// in a consistent snapshot; restart. The speculative FindLE
			// result itself is proven consistent by exchangeDown's first
			// validation of curr.
			return nil, 0, false
		}
		curr, ver, ok = m.exchangeDown(ctx, curr, ver, child)
		if !ok {
			return nil, 0, false
		}
		depth++
	}
	n, v, ok := m.traverseRight(ctx, curr, ver, k, mode)
	if ok {
		m.descentDepth.Observe(ctx.stripe, int64(depth))
	}
	return n, v, ok
}
