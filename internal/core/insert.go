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
// already present (Listing 3). A successful Insert linearizes at the
// write-acquisition of its last lock; a failed one at the validated
// observation of the existing key.
func (m *Map[V]) Insert(k int64, v *V) bool {
	checkKey(k)
	c := m.cellOf(v)
	ctx := m.ctxs.get()
	defer m.ctxs.put(ctx)
	return m.insertCtx(ctx, k, c)
}

// insertCtx is Insert's retry loop against an explicit context (shared with
// Handle.Insert).
func (m *Map[V]) insertCtx(ctx *opCtx[V], k int64, v vectormap.Cell) bool {
	return m.insertWithHeight(ctx, k, v, ctx.randomHeight())
}

// insertWithHeight is the insert retry loop at a caller-chosen tower height.
// ApplyBatch routes its ops at sort time — drawing each distinct key's height
// once, before any locks are taken — so the singleton replay of a tall key
// must not re-draw (re-drawing after deferral would square the tall
// probability and starve the index layers).
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
	// Height-0 inserts (the (T_D-1)/T_D common case) touch only the data
	// layer, so when the search finger still covers k the whole index
	// descent — including the per-layer duplicate check, which the
	// data-layer Contains below subsumes (an indexed key is always present
	// in the data layer) — can be skipped.
	if height == 0 && !resume {
		if fcurr, fver, hit := m.fingerSeek(ctx, k, modeWrite, fingerPoint); hit {
			return m.finishInsertData(ctx, st, fcurr, fver, k, v, height)
		}
	}
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
				fver, frozen := curr.lock.TryFreeze(ver)
				if !frozen {
					return false, false
				}
				// Frozen nodes cannot change or be retired, so the hazard
				// pointer is no longer needed (Listing 3 line 12).
				ctx.drop(curr)
				st.prevs[curr.level] = curr
				st.lowestFrozen = int(curr.level)
				ver = fver
				m.freezes.Inc(ctx.stripe)
				chaos.Step(chaos.CoreFreeze)
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

	// Data layer: settle on the target node and freeze it.
	curr, ver, ok = m.traverseRight(ctx, curr, ver, k, modeWrite)
	if !ok {
		return false, false
	}
	return m.finishInsertData(ctx, st, curr, ver, k, v, height)
}

// finishInsertData is the data-layer tail of an insert attempt: curr owns k
// under the validated snapshot ver (reached either by the full descent or by
// a finger hit). It freezes curr, settles presence, and applies the write
// phase. done=false requests a restart.
func (m *Map[V]) finishInsertData(
	ctx *opCtx[V], st *insertState[V], curr *node[V], ver seqlock.Version, k int64, v vectormap.Cell, height int,
) (result, done bool) {
	if _, frozen := curr.lock.TryFreeze(ver); !frozen {
		return false, false
	}
	ctx.drop(curr)
	st.prevs[0] = curr
	st.lowestFrozen = 0
	m.freezes.Inc(ctx.stripe)
	chaos.Step(chaos.CoreFreeze)

	if curr.data().Contains(k) {
		st.thawAll(height)
		ctx.dropAll()
		return false, true
	}

	fnode, fver := m.applyInsert(ctx, st, k, v, height)
	st.reset()
	ctx.dropAll()
	m.length.add(ctx.stripe, 1)
	m.recordFinger(ctx, fnode, fver)
	return true, true
}

// applyInsert performs the write phase of a successful Insert (Listing 3
// lines 31-43). Every prevs[layer] for layer ∈ [0,height] is frozen by this
// operation; nodes are upgraded to write-locked one at a time, bottom-up, so
// concurrent searches that land on already-updated layers still complete
// correctly (Section IV-C). It returns the data node that received k together
// with a version snapshot suitable for recordFinger (which rejects unusable
// words, so a best-effort Current() read is fine for nodes this operation no
// longer holds locked).
func (m *Map[V]) applyInsert(
	ctx *opCtx[V], st *insertState[V], k int64, v vectormap.Cell, height int,
) (*node[V], seqlock.Version) {
	// Layer 0. A height-0 insert that finds the block full grows it while
	// the node is only frozen (ReserveKeys), keeping the allocation out of the
	// write hold that readers abort on.
	d := st.prevs[0]
	if height == 0 {
		d.chunk.ReserveKeys(1, k, k)
	}
	d.lock.UpgradeFrozen()
	m.noteDataWrite(d) // CoW pre-image before the first mutation (snapshot.go)
	if height == 0 {
		target := d
		if d.chunk.Full() {
			target = m.splitFull(ctx, d, k)
		}
		if !target.data().Insert(k, v) {
			panic("core: insert into data chunk failed after absence check")
		}
		m.logPut(ctx, k, v) // before the release that publishes it (commit.go)
		dver := d.lock.Release()
		if target == d {
			return d, dver
		}
		// k went into the split orphan, which became reachable (and thus
		// shared) at the release above; snapshot whatever word it has now.
		return target, target.lock.Current()
	}

	// height ≥ 1: the key becomes the minimum of a new node in every layer
	// below its height, each stealing the elements greater than k from its
	// frozen predecessor.
	nd := m.mem.allocRaw(0)
	d.chunk.MoveGreaterTo(k, &nd.chunk)
	nd.data().Insert(k, v)
	inheritVerEpoch(d, nd)
	nd.next.Store(d.next.Load())
	d.next.Store(nd)
	m.logPut(ctx, k, v) // the data write publishes here, not at the tower top
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
	p.chunk.ReserveKeys(1, k, k) // frozen, as at layer 0
	p.lock.UpgradeFrozen()
	target := p
	if p.chunk.Full() {
		target = m.splitFull(ctx, p, k)
	}
	if !target.index().Insert(k, child) {
		panic("core: insert into index chunk failed after absence check")
	}
	p.lock.Release()
	// nd (k's data node) became shared when d released above; snapshot its
	// current word for the finger.
	return nd, nd.lock.Current()
}

// splitFull splits the write-locked full node n, moving its upper half into
// a fresh orphan linked immediately to n's right (Section III: orphan
// creation by capacity splits). It returns whichever node should receive k.
// The orphan is invisible to other operations until n's lock is released,
// because reaching it requires reading n.next and then validating n.
func (m *Map[V]) splitFull(ctx *opCtx[V], n *node[V], k int64) *node[V] {
	o, pivot := m.splitOrphanHalf(ctx, n)
	if k >= pivot {
		return o
	}
	return n
}

// splitOrphanHalf is the capacity-split primitive shared by splitFull and
// ApplyBatch's group commit: it moves the upper half of the write-locked full
// node n into a fresh private orphan linked to n's right and returns the
// orphan with its pivot (minimum) key. The orphan stays invisible until the
// lock that covers n is released.
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
