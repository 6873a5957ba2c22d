package core

import (
	"skipvector/internal/chaos"
	"skipvector/internal/seqlock"
	"skipvector/internal/vectormap"
)

// insertState carries Insert's cross-restart bookkeeping: the nodes frozen
// at each layer (prevs, Listing 3 line 13) and the checkpoint. Frozen nodes
// are immune to modification, so when a validation fails below the frozen
// frontier the operation resumes from the lowest frozen node instead of the
// top of the map (Listing 3 "set checkpoint").
type insertState[V any] struct {
	prevs        [MaxLayers]*node[V]
	lowestFrozen int // layer of the checkpoint node; -1 when none frozen
}

func (st *insertState[V]) reset() {
	for i := range st.prevs {
		st.prevs[i] = nil
	}
	st.lowestFrozen = -1
}

// thawAll releases every frozen node without modifying it, preserving the
// validity of concurrent readers whose snapshots predate the freezes.
func (st *insertState[V]) thawAll(height int) {
	for l := st.lowestFrozen; l <= height; l++ {
		if l >= 0 && st.prevs[l] != nil {
			st.prevs[l].lock.Thaw()
		}
	}
	st.reset()
}

// Insert adds the mapping k→v and returns true, or returns false when k is
// already present. A key drawn no tower, the (T_D-1)/T_D common case, is a
// group of one through the data layer's write kernel (writeGroup) and
// linearizes at the release of its data node's lock; a tower insert takes
// Listing 3's top-down path and linearizes at the release of the data node
// it publishes k in. A failed Insert linearizes at the validated
// observation of the existing key.
func (m *Map[V]) Insert(k int64, v *V) bool { return m.put(k, v, true) }

// Upsert adds or overwrites the mapping k→v, returning true when k was newly
// inserted and false when an existing value was overwritten. It linearizes
// as Insert does.
func (m *Map[V]) Upsert(k int64, v *V) bool { return m.put(k, v, false) }

func (m *Map[V]) put(k int64, v *V, insertOnly bool) bool {
	checkKey(k)
	c := m.cellOf(v)
	ctx := m.ctxs.get()
	defer m.ctxs.put(ctx)
	return m.putCtx(ctx, k, c, insertOnly)
}

// putCtx is Insert (insertOnly) or Upsert against an explicit context
// (shared with Handle), reporting whether k was newly inserted.
func (m *Map[V]) putCtx(ctx *opCtx[V], k int64, v vectormap.Cell, insertOnly bool) bool {
	op := vectormap.CellOp{Key: k, Val: v, InsertOnly: insertOnly}
	return m.writeKey(ctx, op, ctx.randomHeight()) == vectormap.SlotInserted
}

// insertWithHeight is the top-down insert of Listing 3 at a caller-chosen
// tower height ≥ 1. ApplyBatch routes its ops at sort time — drawing each
// distinct key's height once, before any locks are taken — so the singleton
// replay of a tall key must not re-draw (re-drawing after deferral would
// square the tall probability and starve the index layers).
func (m *Map[V]) insertWithHeight(ctx *opCtx[V], k int64, v vectormap.Cell, height int) bool {
	st := insertState[V]{lowestFrozen: -1}
	for {
		result, done := m.insertAttempt(ctx, &st, k, v, height)
		if done {
			return result
		}
		m.restart(ctx, opInsert)
	}
}

// insertAttempt performs one descent. done=false requests a restart; frozen
// nodes recorded in st survive the restart and become the resume point.
func (m *Map[V]) insertAttempt(
	ctx *opCtx[V], st *insertState[V], k int64, v vectormap.Cell, height int,
) (result, done bool) {
	var (
		curr   *node[V]
		ver    seqlock.Version
		ok     bool
		resume = st.lowestFrozen >= 1
	)
	if resume {
		// Resume from the checkpoint: the lowest frozen node is stable, so
		// its current word is a trivially valid snapshot and no hazard
		// pointer is needed.
		curr = st.prevs[st.lowestFrozen]
		ver = curr.lock.Current()
	} else {
		curr = m.head
		ctx.take(curr)
		ver, ok = curr.lock.ReadVersion()
		if !ok {
			return false, false
		}
	}

	for curr.isIndex() {
		if !resume {
			curr, ver, ok = m.traverseRight(ctx, curr, ver, k, modeWrite)
			if !ok {
				return false, false
			}
			if int(curr.level) <= height {
				if ver, ok = m.freeze(ctx, st, curr, ver); !ok {
					return false, false
				}
			}
		}
		resume = false

		kf, child, found := curr.index().FindLE(k)
		if !found || child == nil {
			// Violates the traversal invariant; only possible on a torn
			// read of an unfrozen node. Restart.
			return false, false
		}
		if kf == k {
			// k already has an index entry: it is present in the map. For
			// an unfrozen node the observation must be validated first.
			if !ver.Frozen() && !curr.lock.Validate(ver) {
				return false, false
			}
			st.thawAll(height)
			ctx.dropAll()
			return false, true
		}
		curr, ver, ok = m.exchangeDown(ctx, curr, ver, child)
		if !ok {
			return false, false
		}
	}

	// Data layer: settle on the target node, freeze it, and settle presence.
	curr, ver, ok = m.traverseRight(ctx, curr, ver, k, modeWrite)
	if !ok {
		return false, false
	}
	if _, ok = m.freeze(ctx, st, curr, ver); !ok {
		return false, false
	}
	if curr.data().Contains(k) {
		st.thawAll(height)
		ctx.dropAll()
		return false, true
	}
	nd := m.applyInsert(ctx, st, k, v, height)
	st.reset()
	ctx.dropAll()
	m.length.add(ctx.stripe, 1)
	// nd, k's data node, is shared since the release that published k; the
	// finger takes whatever word it has now (recordFinger rejects a locked
	// or frozen one).
	m.recordFinger(ctx, nd, nd.lock.Current())
	return true, true
}

// freeze freezes curr, the node at its layer that k belongs to, under the
// validated snapshot ver and records it in st (Listing 3 line 13). Frozen
// nodes cannot change or be retired, so the hazard pointer is no longer
// needed (Listing 3 line 12).
func (m *Map[V]) freeze(ctx *opCtx[V], st *insertState[V], curr *node[V], ver seqlock.Version) (seqlock.Version, bool) {
	fver, frozen := curr.lock.TryFreeze(ver)
	if !frozen {
		return 0, false
	}
	ctx.drop(curr)
	st.prevs[curr.level] = curr
	st.lowestFrozen = int(curr.level)
	m.freezes.Inc(ctx.stripe)
	chaos.Step(chaos.CoreFreeze)
	return fver, true
}

// applyInsert performs the write phase of a successful tower insert
// (Listing 3 lines 31-43). Every prevs[layer] for layer ∈ [0,height] is
// frozen by this operation; nodes are upgraded to write-locked one at a time,
// bottom-up, so concurrent searches that land on already-updated layers still
// complete correctly (Section IV-C). It returns the data node that received k.
func (m *Map[V]) applyInsert(ctx *opCtx[V], st *insertState[V], k int64, v vectormap.Cell, height int) *node[V] {
	// The key becomes the minimum of a new node in every layer below its
	// height, each stealing the elements greater than k from its frozen
	// predecessor.
	d := st.prevs[0]
	d.lock.UpgradeFrozen()
	m.noteDataWrite(d) // CoW pre-image before the first mutation (snapshot.go)
	nd := m.mem.allocRaw(0)
	d.chunk.MoveGreaterTo(k, &nd.chunk)
	nd.data().Insert(k, v)
	inheritVerEpoch(d, nd)
	nd.next.Store(d.next.Load())
	d.next.Store(nd)
	// The data write publishes here, not at the tower top (commit.go).
	slots, outs := ctx.single(vectormap.CellOp{Key: k, Val: v}, vectormap.SlotInserted)
	m.logOps(ctx, CommitSingleton, slots, outs)
	d.lock.Release()
	m.stats.Splits.Add(1)

	child := nd
	for layer := 1; layer < height; layer++ {
		// Lower layers are already published; searches may land on them
		// before this layer's entry exists (Section IV-C). Stretch that
		// window.
		chaos.Step(chaos.CoreSplit)
		p := st.prevs[layer]
		p.lock.UpgradeFrozen()
		ni := m.mem.allocRaw(layer)
		p.index().MoveGreaterTo(k, ni.index())
		ni.index().Insert(k, child)
		ni.next.Store(p.next.Load())
		p.next.Store(ni)
		p.lock.Release()
		m.stats.Splits.Add(1)
		child = ni
	}

	// At the chosen height, k joins an existing node (splitting only if it
	// is at capacity).
	chaos.Step(chaos.CoreSplit)
	p := st.prevs[height]
	p.chunk.ReserveKeys(1, k, k) // while frozen: no allocation in the write hold
	p.lock.UpgradeFrozen()
	target := p
	if p.chunk.Full() {
		if o, pivot := m.splitOrphanHalf(ctx, p); k >= pivot {
			target = o
		}
	}
	if !target.index().Insert(k, child) {
		panic("core: insert into index chunk failed after absence check")
	}
	p.lock.Release()
	return nd
}

// splitOrphanHalf splits the write-locked full node n, moving its upper half
// into a fresh private orphan linked immediately to n's right (Section III:
// orphan creation by capacity splits), and returns the orphan with its pivot
// (minimum) key. The orphan is invisible to other operations until the lock
// that covers n is released, because reaching it requires reading n.next and
// then validating n.
func (m *Map[V]) splitOrphanHalf(ctx *opCtx[V], n *node[V]) (*node[V], int64) {
	o := m.mem.allocRaw(int(n.level))
	pivot := n.chunk.SplitUpperHalfTo(&o.chunk)
	// The orphan's content was part of n's at every epoch n's current
	// verEpoch covers; the caller already ran noteDataWrite on n.
	inheritVerEpoch(n, o)
	o.markOrphanPrivate()
	o.next.Store(n.next.Load())
	chaos.Step(chaos.CoreSplit)
	n.next.Store(o)
	m.stats.Splits.Add(1)
	m.stats.Orphans.Add(1)
	return o, pivot
}
