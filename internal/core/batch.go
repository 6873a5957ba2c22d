package core

import (
	"sort"

	"skipvector/internal/chaos"
	"skipvector/internal/seqlock"
	"skipvector/internal/vectormap"
)

// Chunk-grouped batch updates. ApplyBatch sorts its ops, groups the runs of
// keys that fall inside one data chunk's span, and commits each run under a
// single seqlock acquisition: one traversal per group (through the search
// finger when it covers the group's first key), one lock/unlock, and a
// multi-slot apply inside the chunk, with capacity splits handled privately
// inside the held lock. The whole point of chunking — spatial locality — thus
// pays on the write path too: a batch of B keys landing in one chunk costs
// one descent and one lock round trip instead of B of each (the Jiffy
// argument, specialized to the skip vector's seqlock protocol).
//
// Two refinements keep the grouped path ahead of the singleton loop even
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
// request-tiebroken order, with each chunk-run executed atomically.
//
// Tower heights. A put may need to raise an index tower. Heights are drawn at
// sort time, once per distinct key that contains a put — before any locks are
// taken — and the rare tall keys (probability 1/T_D) are routed around the
// group commit entirely, through the ordinary singleton insert path with the
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

// batchScratch holds ApplyBatch's working buffers. Contexts are pooled, so
// the buffers amortize to zero allocations per batch; release drops the
// pointer-bearing entries so a pooled context never pins user values or
// retired nodes.
type batchScratch[V any] struct {
	order   []int
	tall    []bool
	heights []int
	cells   []vectormap.Cell // each op's value as stored, by request index
	slots   []vectormap.CellOp
	outs    []vectormap.SlotOutcome
	segs    []*node[V]
	segMins []int64
	commits []CommitOp[V] // commit-hook argument buffer (commit.go)

}

func (sc *batchScratch[V]) release() {
	clear(sc.cells[:cap(sc.cells)])
	clear(sc.slots[:cap(sc.slots)])
	clear(sc.segs[:cap(sc.segs)])
	clear(sc.commits[:cap(sc.commits)])
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
// (last write wins); each run of keys owned by one data chunk commits
// atomically under a single lock acquisition. ApplyBatch is not atomic as a
// whole — concurrent readers may observe a state between two group commits —
// but every state they can observe is one the equivalent sequential op
// sequence passes through.
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
	cells := sc.cells[:0]
	presorted := true
	for i := range ops {
		order = append(order, i)
		if i > 0 && ops[i].Key < ops[i-1].Key {
			presorted = false
		}
		var c vectormap.Cell
		if !ops[i].Del {
			c = m.cellOf(ops[i].Val)
		}
		cells = append(cells, c)
	}
	sc.order, sc.cells = order, cells
	if !presorted {
		sort.Stable(&batchSorter[V]{ops: ops, order: order})
	}

	// Route each distinct key (see the file comment): a key run containing a
	// put draws its tower height now; a nonzero height routes the whole run
	// through the singleton paths. tall[i] is set only at the run start.
	tall := sc.tall[:0]
	heights := sc.heights[:0]
	for range order {
		tall = append(tall, false)
		heights = append(heights, 0)
	}
	sc.tall, sc.heights = tall, heights
	for i := 0; i < len(order); {
		j := keyRunEnd(ops, order, i)
		hasPut := false
		for p := i; p < j; p++ {
			if !ops[order[p]].Del {
				hasPut = true
			}
		}
		if hasPut {
			if h := ctx.randomHeight(); h > 0 {
				tall[i], heights[i] = true, h
			}
		}
		i = j
	}

	for i := 0; i < len(order); {
		if tall[i] {
			j := keyRunEnd(ops, order, i)
			m.applyKeySingletons(ctx, ops, order[i:j], results, heights[i])
			m.batchGroupSize.Observe(ctx.stripe, int64(j-i))
			i = j
			continue
		}
		// Grouped span: every position up to the next tall run start.
		lim := i + 1
		for lim < len(order) && !tall[lim] {
			lim++
		}
		for i < lim {
			n := m.applyBatchGroup(ctx, ops, order[i:lim], results)
			m.batchGroupSize.Observe(ctx.stripe, int64(n))
			i += n
		}
	}
	sc.release()
	return results
}

// keyRunEnd returns the end (exclusive) of the run of order positions that
// share the key at position i.
func keyRunEnd[V any](ops []BatchOp[V], order []int, i int) int {
	k := ops[order[i]].Key
	j := i + 1
	for j < len(order) && ops[order[j]].Key == k {
		j++
	}
	return j
}

// applyKeySingletons replays a same-key run of batch ops through the ordinary
// singleton paths, in request order, recording per-op outcomes. height is the
// run's pre-drawn tower height (0 when the run reaches here via the min-defer
// path, whose key is already present and whose tower the top-down remove
// handles). Restarts inside these ops charge their native kinds.
func (m *Map[V]) applyKeySingletons(
	ctx *opCtx[V], ops []BatchOp[V], run []int, results []BatchResult, height int,
) {
	for _, oi := range run {
		op := &ops[oi]
		switch {
		case op.Del:
			if m.removeCtx(ctx, op.Key) {
				results[oi].Outcome = BatchRemoved
			} else {
				results[oi].Outcome = BatchAbsent
			}
		case op.InsertOnly:
			if m.insertWithHeight(ctx, op.Key, ctx.batch.cells[oi], height) {
				results[oi].Outcome = BatchInserted
			} else {
				results[oi].Outcome = BatchExists
			}
		default:
			if m.upsertWithHeight(ctx, op.Key, ctx.batch.cells[oi], height) {
				results[oi].Outcome = BatchInserted
			} else {
				results[oi].Outcome = BatchUpdated
			}
		}
	}
}

// applyBatchGroup commits a prefix of the grouped span (order positions with
// ascending keys) under one lock acquisition and returns how many positions
// it consumed (always ≥ 1).
func (m *Map[V]) applyBatchGroup(
	ctx *opCtx[V], ops []BatchOp[V], group []int, results []BatchResult,
) int {
	for {
		if n, done := m.batchGroupAttempt(ctx, ops, group, results); done {
			return n
		}
		m.restart(ctx, opBatch)
	}
}

// batchSeek positions a group commit on the data node owning k: through the
// search finger, which the previous group left on the rightmost node it
// touched, or else by the full descent. On success the postcondition is
// descendToData's: a hazard pointer and a validated snapshot of the owner.
func (m *Map[V]) batchSeek(ctx *opCtx[V], k int64) (*node[V], seqlock.Version, bool) {
	if curr, ver, hit := m.fingerSeek(ctx, k, modeWrite, fingerPoint); hit {
		m.batchDescSaved.add(ctx.stripe, 1)
		return curr, ver, true
	}
	return m.descendToData(ctx, k, modeWrite)
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

// batchGroupAttempt performs one optimistic group commit; done=false requests
// a restart.
func (m *Map[V]) batchGroupAttempt(
	ctx *opCtx[V], ops []BatchOp[V], group []int, results []BatchResult,
) (consumed int, done bool) {
	// Between-groups injection: a forced failure restarts this group after
	// its predecessors already committed — the batch must read as a clean
	// prefix of the sequential order at every such point.
	if chaos.Fail(chaos.CoreBatch) {
		return 0, false
	}
	k0 := ops[group[0]].Key
	curr, ver, ok := m.batchSeek(ctx, k0)
	if !ok {
		return 0, false
	}
	if !curr.lock.TryUpgrade(ver) {
		return 0, false
	}
	ctx.drop(curr)

	// Mid-group injection, after the lock is taken but before any slot is
	// applied: the abort must leave no trace of the group (Abort is legal —
	// nothing has been modified — and restores the pre-acquisition word).
	if chaos.Fail(chaos.CoreBatch) {
		m.recordFinger(ctx, curr, curr.lock.Abort())
		ctx.dropAll()
		return 0, false
	}

	// Group extent. While curr's write lock is held the data layer's
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
	g := 0
	minK, maxK, hasBounds := curr.chunk.Bounds()
	if hasBounds && k0 <= maxK {
		// g ≥ 1: k0 ≤ maxK. A failed extension walk just keeps this prefix —
		// never a restart.
		g = sort.Search(len(group), func(i int) bool { return ops[group[i]].Key > maxK })
		if g < len(group) && uint64(ops[group[g]].Key)-uint64(maxK) <= uint64(maxK)-uint64(minK) {
			if bound, ok := m.succMinBound(curr); ok {
				g = sort.Search(len(group), func(i int) bool { return ops[group[i]].Key >= bound })
			}
		}
	} else {
		// k0 landed in the gap past curr's max (ascending ingest) or curr is
		// empty: only the successor's minimum can prove ownership. k0 ≥
		// bound means the positioning was stale — restart.
		bound, ok := m.succMinBound(curr)
		if !ok || k0 >= bound {
			m.recordFinger(ctx, curr, curr.lock.Abort())
			ctx.dropAll()
			return 0, false
		}
		g = sort.Search(len(group), func(i int) bool { return ops[group[i]].Key >= bound })
	}

	// Min-defer: removing the minimum key of a non-orphan node must take the
	// top-down singleton path (the key may own an index tower only that pass
	// can find and unlink — the same race check as removeFromDataLayer).
	// Only k0 can be curr's minimum (all group keys are ≥ k0 ≥ curr.min),
	// and only a net removal matters: a run that leaves k0 present keeps any
	// tower entry valid, and the intermediate states stay inside the lock.
	// Splitting the group before k0 preserves cross-group key order.
	if hasBounds && minK == k0 && !curr.lock.IsOrphan() {
		run := keyRunEnd(ops, group, 0)
		// k0 starts present, every put (insert-only included) leaves it
		// present and every delete leaves it absent, so the run's last op
		// decides its net effect.
		if ops[group[run-1]].Del {
			curr.lock.Abort()
			ctx.dropAll()
			// Replay k0's ops as singletons; height 0 is correct because k0
			// is present, so any insert in the run lands as a plain re-add
			// of a just-removed data key.
			m.applyKeySingletons(ctx, ops, group[:run], results, 0)
			return run, true
		}
	}

	// Apply phase. Everything below happens under curr's write lock; split
	// orphans are linked behind curr but remain unreachable until its
	// release (reaching them requires validating curr), so the release
	// publishes all of the group's effects at once. The CoW hook runs only
	// now — every earlier exit releases with Abort, which requires the node
	// (verEpoch included) untouched. One epoch covers the group: private
	// split orphans inherit curr's freshly stamped verEpoch, so a snapshot
	// pinned before this point reads the whole group's pre-image from the
	// version store (snapshot.go).
	m.noteDataWrite(curr)
	sc := &ctx.batch
	slots := sc.slots[:0]
	outs := sc.outs[:0]
	for i := 0; i < g; i++ {
		op := &ops[group[i]]
		slots = append(slots, vectormap.CellOp{Key: op.Key, Val: sc.cells[group[i]], Del: op.Del, InsertOnly: op.InsertOnly})
		outs = append(outs, vectormap.SlotNone)
	}
	sc.slots, sc.outs = slots, outs

	// The segment chain: curr plus the private orphans split off so far, in
	// key order; segMins[i] bounds segment i's keys from below.
	segs := append(sc.segs[:0], curr)
	segMins := append(sc.segMins[:0], MinKey)
	si, pos := 0, 0
	for pos < g {
		// Settle on the segment owning slots[pos].Key, then apply the run of
		// slots below the following segment's minimum.
		for si+1 < len(segs) && segMins[si+1] <= slots[pos].Key {
			si++
		}
		runEnd := g
		if si+1 < len(segs) {
			runEnd = pos + sort.Search(g-pos, func(i int) bool {
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

	// Commit hook fires under the lock whose release linearizes the group, so
	// hook order matches group commit order for conflicting keys.
	m.logBatchGroup(ctx, slots, outs)

	// Single release: the group's linearization point.
	fver := curr.lock.Release()
	if last == curr {
		lver = fver
	}

	var delta int64
	for i := 0; i < g; i++ {
		results[group[i]] = BatchResult{Outcome: outs[i]}
		switch outs[i] {
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
	// higher, so its batchSeek can usually walk right from here instead of
	// descending.
	m.recordFinger(ctx, last, lver)
	ctx.dropAll()
	return g, true
}
