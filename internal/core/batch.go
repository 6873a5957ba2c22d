package core

import (
	"sort"

	"skipvector/internal/chaos"
	"skipvector/internal/seqlock"
	"skipvector/internal/vectormap"
)

// Chunk-grouped writes. ApplyBatch sorts its ops, groups the runs of keys
// that fall inside one data chunk's span, and commits each run under a
// single seqlock acquisition: one traversal per group (through the search
// finger when it covers the group's first key), one lock/unlock, and a
// multi-slot apply inside the chunk, with capacity splits handled privately
// inside the held lock. The whole point of chunking — spatial locality — thus
// pays on the write path too: a batch of B keys landing in one chunk costs
// one descent and one lock round trip instead of B of each (the Jiffy
// argument, specialized to the skip vector's seqlock protocol). The same
// group commit (writeGroup) is the data layer's only write kernel: Insert,
// Upsert and Remove hand it a group of one, and only the paper's top-down
// paths — a tower insert (Listing 3) and the removal of an indexed minimum
// (Listing 4) — keep their own code.
//
// Two refinements keep the grouped path ahead of a loop of singletons even
// when the batch has no locality (uniform keys, group size ≈ 1): a group's
// extent is bounded by the locked chunk's own exact max key — free — rather
// than by an always-paid validated walk to the successor's minimum
// (succMinBound, now reserved for groups that straddle the gap past the
// max), and consecutive groups share their position through the search
// finger: each group records the rightmost node it touched, and the next
// group resumes from it with the finger's bounded rightward walk instead of
// a fresh descent; the finger's reach check and probe backoff make batches
// without locality stop paying for the attempt.
//
// Linearization. Every mutation a group makes — the owning chunk's slots and
// any split orphans — is reachable only through the group's locked node, so
// nothing a group does is observable until that node's single Release. Each
// group therefore linearizes as a unit at its release; a concurrent reader
// sees either none or all of a group, never a torn prefix. Cross-group
// ordering follows key order (groups commit left to right), and ops on the
// same key resolve in request order (last write wins), so the batch as a
// whole is equivalent to executing its ops sequentially in sorted-key,
// request-tiebroken order, with each group executed atomically. A group is
// not every key its chunk owns: the extent rule below may end it at the
// chunk's max, and tall keys and the removal of an indexed minimum commit
// apart.
//
// Tower heights. A put may need to raise an index tower. Heights are drawn at
// sort time, once per distinct key that contains a put — before any locks are
// taken — and the rare tall keys (probability 1/T_D) are routed around the
// group commit entirely, through the tower insert path with the
// pre-drawn height. This keeps the index-layer densities identical to
// singleton ingest: drawing under the lock and re-drawing on deferral would
// bias the distribution, and raising towers inside a group would reintroduce
// the multi-layer freeze protocol the group commit exists to amortize.

// BatchOp is one element of an ApplyBatch request.
type BatchOp[V any] struct {
	Key int64
	Val *V   // value for puts, read once during the call; ignored for deletes
	Del bool // delete Key instead of writing it
	// InsertOnly makes a put succeed only when Key is absent; an existing
	// key is left untouched and reported as BatchExists. The zero value is
	// an upsert (insert-or-overwrite).
	InsertOnly bool
}

// BatchOutcome reports what one batch op did; it aliases the chunk-level
// outcome so the multi-slot apply's results pass through unchanged.
type BatchOutcome = vectormap.SlotOutcome

// Per-op outcomes: puts report BatchInserted or BatchUpdated (BatchExists
// when InsertOnly found the key), deletes report BatchRemoved or BatchAbsent.
const (
	BatchInserted = vectormap.SlotInserted
	BatchUpdated  = vectormap.SlotUpdated
	BatchRemoved  = vectormap.SlotRemoved
	BatchAbsent   = vectormap.SlotAbsent
	BatchExists   = vectormap.SlotExists
)

// BatchResult reports the outcome of one BatchOp, positionally aligned with
// the request slice.
type BatchResult struct {
	Outcome BatchOutcome
}

// batchScratch holds the group commit's working buffers. Contexts are
// pooled, so the buffers amortize to zero allocations per batch; every user
// clears the pointer-bearing entries it wrote before it returns, so a pooled
// context never pins user values or retired nodes.
type batchScratch[V any] struct {
	order   []int              // request index of each op, in commit order
	heights []int              // tower height drawn at each tall key run's start, else 0
	slots   []vectormap.CellOp // the ops in commit order, values as stored
	outs    []vectormap.SlotOutcome
	segs    []*node[V] // applyLocked's segment chain; lockedRange's window
	segMins []int64
	commits []CommitOp[V] // commit-hook argument buffer (commit.go)
}

// batchSorter stably sorts the order permutation by op key without the
// reflection overhead of sort.Slice (the batch hot path sorts on every call).
type batchSorter[V any] struct {
	ops   []BatchOp[V]
	order []int
}

func (s *batchSorter[V]) Len() int { return len(s.order) }
func (s *batchSorter[V]) Less(a, b int) bool {
	return s.ops[s.order[a]].Key < s.ops[s.order[b]].Key
}
func (s *batchSorter[V]) Swap(a, b int) {
	s.order[a], s.order[b] = s.order[b], s.order[a]
}

// ApplyBatch applies ops and returns one result per op, in request order.
// Ops are committed in ascending key order, same-key ops in request order
// (last write wins), as a sequence of group commits, each atomic under a
// single lock acquisition. A group holds consecutive keys that one data
// chunk owns, but a run of keys owned by one chunk may take several groups:
// a group extends past the chunk's largest key only towards a next key
// within one key span of it, and a key that needs a tower or removes an
// indexed minimum commits on its own. ApplyBatch is not atomic as a whole —
// concurrent readers may observe a state between two group commits — but
// every state they can observe is one the equivalent sequential op sequence
// passes through.
func (m *Map[V]) ApplyBatch(ops []BatchOp[V]) []BatchResult {
	ctx := m.ctxs.get()
	defer m.ctxs.put(ctx)
	return m.applyBatchCtx(ctx, ops)
}

// applyBatchCtx is ApplyBatch against an explicit context (shared with
// Handle.ApplyBatch).
func (m *Map[V]) applyBatchCtx(ctx *opCtx[V], ops []BatchOp[V]) []BatchResult {
	for i := range ops {
		checkKey(ops[i].Key)
	}
	results := make([]BatchResult, len(ops))
	if len(ops) == 0 {
		return results
	}
	m.batchSize.Observe(ctx.stripe, int64(len(ops)))

	// Commit order: ascending key, same-key ops in request order. Bulk loads
	// arrive presorted, so detect that before paying for a sort.
	sc := &ctx.batch
	order := sc.order[:0]
	presorted := true
	for i := range ops {
		order = append(order, i)
		if i > 0 && ops[i].Key < ops[i-1].Key {
			presorted = false
		}
	}
	sc.order = order
	if !presorted {
		sort.Stable(&batchSorter[V]{ops: ops, order: order})
	}

	// Route each distinct key (see the file comment): a key run containing a
	// put draws its tower height now, stored at the run's start; a nonzero
	// height routes the whole run through the singleton paths.
	slots, outs, heights := sc.slots[:0], sc.outs[:0], sc.heights[:0]
	run, drawn := 0, false
	for p, oi := range order {
		op := &ops[oi]
		if p > 0 && op.Key != slots[p-1].Key {
			run, drawn = p, false
		}
		s := vectormap.CellOp{Key: op.Key, Del: op.Del, InsertOnly: op.InsertOnly}
		heights = append(heights, 0)
		if !op.Del {
			s.Val = m.cellOf(op.Val)
			if !drawn {
				heights[run], drawn = ctx.randomHeight(), true
			}
		}
		slots = append(slots, s)
		outs = append(outs, vectormap.SlotNone)
	}
	sc.slots, sc.outs, sc.heights = slots, outs, heights

	for i := 0; i < len(slots); {
		if heights[i] > 0 {
			j := keyRunEnd(slots, i)
			for p := i; p < j; p++ {
				outs[p] = m.writeKey(ctx, slots[p], heights[i])
			}
			m.batchGroupSize.Observe(ctx.stripe, int64(j-i))
			i = j
			continue
		}
		// Grouped span: every position up to the next tall run start.
		lim := i + 1
		for lim < len(slots) && heights[lim] == 0 {
			lim++
		}
		for i < lim {
			n, deferred := m.writeGroup(ctx, slots[i:lim], outs[i:lim], opBatch)
			if deferred {
				// Replay the run through the singleton paths at height 0,
				// which is correct: the run's key is present, so any insert
				// in it lands as a plain re-add of a just-removed data key,
				// and the top-down remove handles its tower.
				for p := i; p < i+n; p++ {
					outs[p] = m.writeKey(ctx, slots[p], 0)
				}
			}
			m.batchGroupSize.Observe(ctx.stripe, int64(n))
			i += n
		}
	}
	for i, oi := range order {
		results[oi].Outcome = outs[i]
	}
	clear(slots)
	return results
}

// keyRunEnd returns the end (exclusive) of the run of slots that share the
// key at position i.
func keyRunEnd(slots []vectormap.CellOp, i int) int {
	j := i + 1
	for j < len(slots) && slots[j].Key == slots[i].Key {
		j++
	}
	return j
}

// writeKey applies one op to its key as a singleton write and reports its
// outcome. height is the key's tower height, drawn by the caller and ignored
// by deletes. A towerless put and every delete are a group of one through
// writeGroup; only a tower insert and the removal of an indexed minimum take
// the paper's top-down paths (insertWithHeight, removeKey).
func (m *Map[V]) writeKey(ctx *opCtx[V], op vectormap.CellOp, height int) vectormap.SlotOutcome {
	var out vectormap.SlotOutcome
	switch {
	case op.Del:
		out = m.removeKey(ctx, op.Key)
	case height == 0:
		// Unlike Listing 3, a towerless put freezes nothing, and it grows a
		// full or too-narrow block inside the group's write hold, as every
		// group does; only bulk load and tower inserts reserve room while
		// frozen (ReserveKeys).
		out, _ = m.writeOne(ctx, op, opInsert)
	case m.insertWithHeight(ctx, op.Key, op.Val, height):
		out = vectormap.SlotInserted
	case op.InsertOnly:
		out = vectormap.SlotExists
	default:
		// A tall upsert that finds its key present overwrites it as a group
		// of one. Should the key vanish in between, the group re-adds it at
		// height 0: a legal shape, since any key may live in the data layer
		// alone.
		out, _ = m.writeOne(ctx, op, opInsert)
	}
	ctx.one[0] = vectormap.CellOp{} // don't pin the value past the call
	return out
}

// writeOne commits op as a group of one through the write kernel.
func (m *Map[V]) writeOne(ctx *opCtx[V], op vectormap.CellOp, kind opKind) (out vectormap.SlotOutcome, deferred bool) {
	slots, outs := ctx.single(op, vectormap.SlotNone)
	_, deferred = m.writeGroup(ctx, slots, outs, kind)
	return outs[0], deferred
}

// writeGroup is the data layer's one write kernel: ApplyBatch's groups and
// every singleton write that needs no tower go through it, a singleton as a
// group of one. It commits a prefix of slots — ascending keys, same-key runs
// in request order — under one lock acquisition of the data node owning
// slots[0].Key, and returns how many slots it consumed (always ≥ 1),
// charging restarts to kind. deferred reports that nothing was applied:
// slots[:n] is the run of slots[0].Key, whose net effect removes a
// non-orphan node's minimum, which the caller must apply top-down.
//
// The owner is found through the search finger, which the previous
// operation or group left on the rightmost node it touched, or else by the
// full descent; either way the postcondition is descendToData's: a hazard
// pointer and a validated snapshot of the owner.
func (m *Map[V]) writeGroup(
	ctx *opCtx[V], slots []vectormap.CellOp, outs []vectormap.SlotOutcome, kind opKind,
) (n int, deferred bool) {
	for ; ; m.restart(ctx, kind) {
		// Between-groups injection: a forced failure restarts this group
		// after its predecessors already committed — the batch must read as
		// a clean prefix of the sequential order at every such point.
		if chaos.Fail(chaos.CoreBatch) {
			continue
		}
		k0 := slots[0].Key
		curr, ver, ok := m.fingerSeek(ctx, k0, modeWrite)
		if ok && kind == opBatch {
			m.batchDescSaved.add(ctx.stripe, 1)
		} else if !ok {
			if curr, ver, ok = m.descendToData(ctx, k0, modeWrite); !ok {
				continue
			}
		}
		if n, deferred, ok = m.commitAt(ctx, curr, ver, slots, outs, kind); ok {
			return n, deferred
		}
	}
}

// succMinBound resolves the exclusive upper bound of curr's span — the first
// non-empty successor's minimum — with validated reads, while the caller
// holds curr's write lock. Under that lock nothing reachable only through
// curr can be unlinked from it and no key below that minimum can appear to
// the right (either mutation routes through curr's lock), so the bound holds
// until the lock's release. Empty orphans are skipped, not waited out: the
// group's own descent stops at curr and never crosses them, so restarting
// until someone unlinks them could spin forever on a privately-owned key
// range; a skipped empty node can only gain keys at or above the returned
// bound (absorption pulls from its right), which leaves it valid. No hazard
// pointers are needed — the chain hangs off the locked curr, and a node
// recycled mid-walk fails its validation. ok=false means a validated read
// lost a race (e.g. a successor mid-split); callers either retry the whole
// group or — on the extension path — simply keep the lock-exact prefix.
func (m *Map[V]) succMinBound(curr *node[V]) (int64, bool) {
	for next := curr.next.Load(); next != nil; {
		nv, ok := next.lock.ReadVersion()
		if !ok {
			return 0, false
		}
		nm, has := next.minKey()
		nn := next.next.Load()
		if !next.lock.Validate(nv) {
			return 0, false
		}
		if has {
			return nm, true
		}
		next = nn
	}
	return 0, false
}

// commitAt performs one optimistic group commit on curr, the owner of
// slots[0].Key under the validated snapshot ver: it takes curr's write lock,
// settles the group's extent and commits it. ok=false requests a restart;
// the other results are writeGroup's.
func (m *Map[V]) commitAt(
	ctx *opCtx[V], curr *node[V], ver seqlock.Version, slots []vectormap.CellOp, outs []vectormap.SlotOutcome, kind opKind,
) (n int, deferred, ok bool) {
	if !curr.lock.TryUpgrade(ver) {
		return 0, false, false
	}
	ctx.drop(curr)

	// Mid-group injection, after the lock is taken but before any slot is
	// applied: the abort must leave no trace of the group (Abort is legal —
	// nothing has been modified — and restores the pre-acquisition word).
	if chaos.Fail(chaos.CoreBatch) {
		m.abortAt(ctx, curr)
		return 0, false, false
	}

	// Group extent. A group of one needs none: the seek's validated
	// postcondition, which TryUpgrade just extended to the lock, proves curr
	// owns its key. While curr's write lock is held the data layer's
	// partition is frozen at curr: no key can enter or leave curr's span
	// (linking, merging, or unlinking a neighbor all require this lock), so
	// curr.chunk.Bounds() is exact and every group key ≤ max(curr) is
	// provably curr's — no successor reads at all. That covers nearly every
	// group of a uniform batch (groups of one or two keys deep inside a
	// chunk), which is what lets ApplyBatch dominate the singleton loop even
	// with no locality to exploit. Keys beyond max(curr) may still be curr's
	// — they can sit in the gap before the successor's minimum — but
	// resolving that costs a validated walk of successor minima
	// (succMinBound), so it is paid only when the next group key is within
	// curr's own key span (the locality scale at hand: if the batch is dense
	// enough to land ops within one span past the chunk, it is dense enough
	// to make extending the group worthwhile) or when curr offers no
	// evidence (k0 past its max, or an empty chunk).
	k0 := slots[0].Key
	g := 1
	minK, hasMin := int64(0), false
	if len(slots) == 1 && slots[0].Del {
		minK, hasMin = curr.minKey() // for the min-defer below; a put needs no bounds
	} else if len(slots) > 1 {
		var maxK int64
		minK, maxK, hasMin = curr.chunk.Bounds()
		if hasMin && k0 <= maxK {
			// g ≥ 1: k0 ≤ maxK. A failed extension walk just keeps this
			// prefix — never a restart.
			g = sort.Search(len(slots), func(i int) bool { return slots[i].Key > maxK })
			if g < len(slots) && uint64(slots[g].Key)-uint64(maxK) <= uint64(maxK)-uint64(minK) {
				if bound, ok := m.succMinBound(curr); ok {
					g = sort.Search(len(slots), func(i int) bool { return slots[i].Key >= bound })
				}
			}
		} else {
			// k0 landed in the gap past curr's max (ascending ingest) or
			// curr is empty: only the successor's minimum can prove
			// ownership. k0 ≥ bound means the positioning was stale —
			// restart. Committing [k0] alone instead would split a run that
			// lies wholly in the gap (TestChaosBatchAtomicity catches it).
			bound, ok := m.succMinBound(curr)
			if !ok || k0 >= bound {
				m.abortAt(ctx, curr)
				return 0, false, false
			}
			g = sort.Search(len(slots), func(i int) bool { return slots[i].Key >= bound })
		}
	}
	slots, outs = slots[:g], outs[:g]

	// Min-defer: removing the minimum key of a non-orphan node must take the
	// top-down path, because the key may own an index tower only that pass
	// can find and unlink (Listing 4 line 28's race check, on the data
	// layer). Only k0 can be curr's minimum (all group keys are ≥ k0 ≥
	// curr.min), and only a net removal matters: a run that leaves k0
	// present keeps any tower entry valid, and the intermediate states stay
	// inside the lock. k0 starts present, every put (insert-only included)
	// leaves it present and every delete leaves it absent, so the run's last
	// op decides its net effect. Splitting the group before k0 preserves
	// cross-group key order.
	if hasMin && minK == k0 && !curr.lock.IsOrphan() {
		if run := keyRunEnd(slots, 0); slots[run-1].Del {
			curr.lock.Abort()
			ctx.dropAll()
			return run, true, true
		}
	}

	// With snapshots pinned, a group that would change nothing (absent
	// deletes, insert-only hits) must leave the node and its verEpoch
	// untouched, as Abort requires, so it publishes no pre-image. Each
	// same-key run starts from the key's presence and only an effective op
	// changes it, so testing every op against the chunk as it is is exact.
	// Outcomes set here for a group that does change something are
	// overwritten by the apply.
	if m.snaps.count.Load() > 0 {
		noop := true
		for i := range slots {
			present := curr.data().Contains(slots[i].Key)
			switch {
			case slots[i].Del && !present:
				outs[i] = vectormap.SlotAbsent
			case slots[i].InsertOnly && present:
				outs[i] = vectormap.SlotExists
			default:
				noop = false
			}
		}
		if noop {
			m.abortAt(ctx, curr)
			return g, false, true
		}
	}
	m.applyLocked(ctx, curr, slots, outs, kind)
	return g, false, true
}

// noEffect reports whether every outcome left the chunk as it was.
func noEffect(outs []vectormap.SlotOutcome) bool {
	for _, o := range outs {
		if o != vectormap.SlotAbsent && o != vectormap.SlotExists {
			return false
		}
	}
	return true
}

// abortAt releases curr's write lock with nothing modified and remembers the
// restored word, a valid snapshot of the unchanged node, for the finger.
func (m *Map[V]) abortAt(ctx *opCtx[V], curr *node[V]) {
	m.recordFinger(ctx, curr, curr.lock.Abort())
	ctx.dropAll()
}

// applyLocked applies slots to the write-locked data node curr, which owns
// every key in them, then releases it. Split orphans are linked behind curr
// but remain unreachable until its release (reaching them requires
// validating curr), so the release publishes all of the group's effects at
// once: it is the group's linearization point. The CoW hook runs first —
// every exit before this one releases with Abort, which requires the node
// (verEpoch included) untouched. One epoch covers the group: private split
// orphans inherit curr's freshly stamped verEpoch, so a snapshot pinned
// before this point reads the whole group's pre-image from the version
// store (snapshot.go). A group that changed nothing (every outcome an absent
// delete or an insert-only hit) under no epoch left curr untouched
// (ApplyOps), so it aborts instead: a no-op write fails no reader's
// validation and no finger.
func (m *Map[V]) applyLocked(
	ctx *opCtx[V], curr *node[V], slots []vectormap.CellOp, outs []vectormap.SlotOutcome, kind opKind,
) {
	epoch := m.noteDataWrite(curr)

	// The segment chain: curr plus the private orphans split off so far, in
	// key order; segMins[i] bounds segment i's keys from below.
	sc := &ctx.batch
	segs := append(sc.segs[:0], curr)
	segMins := append(sc.segMins[:0], MinKey)
	si, pos := 0, 0
	for pos < len(slots) {
		// Settle on the segment owning slots[pos].Key, then apply the run of
		// slots below the following segment's minimum.
		for si+1 < len(segs) && segMins[si+1] <= slots[pos].Key {
			si++
		}
		runEnd := len(slots)
		if si+1 < len(segs) {
			runEnd = pos + sort.Search(len(slots)-pos, func(i int) bool {
				return slots[pos+i].Key >= segMins[si+1]
			})
		}
		s := segs[si]
		pos += s.data().ApplyOps(slots[pos:runEnd], outs[pos:runEnd])
		chaos.Step(chaos.CoreBatch)
		if pos < runEnd {
			// The segment filled mid-run: split its upper half into a fresh
			// private orphan and retry the remaining slots against whichever
			// half owns them. Both halves of a split are strictly below
			// capacity, so the group always makes progress.
			o, pivot := m.splitOrphanHalf(ctx, s)
			segs = append(segs, nil)
			segMins = append(segMins, 0)
			copy(segs[si+2:], segs[si+1:])
			copy(segMins[si+2:], segMins[si+1:])
			segs[si+1] = o
			segMins[si+1] = pivot
		}
	}
	sc.segs, sc.segMins = segs, segMins
	if epoch == 0 && len(segs) == 1 && noEffect(outs) {
		clear(segs)
		m.abortAt(ctx, curr)
		return
	}

	// The finger version for a split-orphan last segment must be read
	// *before* the release below makes the orphan reachable: afterwards a
	// concurrent writer could merge it away and recycle it into an arbitrary
	// position, even an index layer, leaving a clean word that the next
	// seek's Validate would accept. While the orphan is private its word is
	// stable and clean, making this read exact, and any post-release touch
	// then fails the finger's validation — a conservative miss.
	last := segs[len(segs)-1]
	lver := seqlock.Version(0)
	if last != curr {
		lver = last.lock.Current()
	}
	clear(segs) // a pooled context pins no nodes

	// Commit hook fires under the lock whose release linearizes the group, so
	// hook order matches group commit order for conflicting keys.
	ck := CommitSingleton
	if kind == opBatch {
		ck = CommitBatchGroup
	}
	m.logOps(ctx, ck, slots, outs)

	fver := curr.lock.Release()
	if last == curr {
		lver = fver
	}
	var delta int64
	for _, o := range outs {
		switch o {
		case vectormap.SlotInserted:
			delta++
		case vectormap.SlotRemoved:
			delta--
		}
	}
	if delta != 0 {
		m.length.add(ctx.stripe, delta)
	}
	// Remember the right end of the chain: the next group's keys are
	// higher, so its seek can usually walk right from here instead of
	// descending.
	m.recordFinger(ctx, last, lver)
	ctx.dropAll()
}
