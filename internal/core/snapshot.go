package core

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"skipvector/internal/chaos"
	"skipvector/internal/vectormap"
)

// This file implements MVCC snapshots: Map.Snapshot() pins a point-in-time
// view that supports Get/Contains/Range/Cursor without ever blocking writers
// and — for scans — without ever restarting, no matter how much churn the
// live structure sees. The design is copy-on-write at chunk granularity, and
// a version is a chunk block itself, frozen (Jiffy's immutable revisions):
//
//   - A global epoch counter orders writes against snapshot acquisitions.
//     While at least one snapshot is pinned, every data-layer write advances
//     the epoch under its node's write lock; that Add is the write's
//     linearization point relative to snapshots, because the held lock
//     already fences every optimistic reader of the node.
//
//   - Each data node remembers verEpoch, the epoch at which its current
//     contents were installed. Before the first store of a write that
//     advanced the epoch to e, the writer moves the node onto a fresh copy
//     of its block (vectormap's Detach) and publishes the block it left into
//     the version store as the record visible on the epoch interval
//     [verEpoch, e), then stamps verEpoch = e. So every data-layer store
//     under a pin lands in a block detached in the same locked section, and
//     a block a reader took a view of (Share) under a validated read holds
//     that content for good: the record and the live view are one format,
//     and nothing is copied out. With no snapshots pinned, writers skip all
//     of this: a later snapshot pins an epoch ≥ every epoch ever issued, so
//     un-stamped nodes are trivially visible to it.
//
//   - The pin protocol closes the writer/snapshot race without making
//     writers wait: Snapshot raises snaps.count before reading the epoch,
//     and a writer consults snaps.count from inside its locked section. In
//     the sequentially consistent total order over those two atomics, a
//     writer that saw count == 0 precedes the pin's epoch read, so the pin's
//     epoch covers the write and no pre-image was needed; a writer that saw
//     count > 0 published the pre-image any pinned snapshot could require.
//
//   - Snapshot point reads ride the ordinary hazard-protected descent (they
//     may restart, charged to opSnap); if the landing node's verEpoch is ≤
//     the pinned epoch its live content answers, otherwise the version store
//     does. The store, not the node, is consulted for misses because
//     ownership of a key can move both left (splits) and right (min
//     removals) of where the current routing lands.
//
//   - Snapshot scans walk the data layer hand-over-hand with no hazard
//     pointers and no restarts: a validated node read takes a view of the
//     node's block, a torn one retries the same node. Versions visible at
//     one epoch have disjoint key ranges, so the scan emits the records
//     visible below a node's keys and then the node's view, in key order
//     with no merge. Unlinked nodes remain safe to traverse because
//     retirement is epoch-aware — retire stamps a data node's hazard retire record with
//     its retire epoch, a bound on the epoch of the unlinking write, and the
//     domain's recycle filter refuses to recycle the node while any pinned
//     snapshot's epoch is below that stamp. The stamp lives in the record,
//     not the node, because only the filter reads it. Any stale node a
//     post-pin walker can reach was unlinked after the pin (unlink happens
//     under locks the walker's validated reads respect, and stale next
//     pointers only lead to nodes that were in the list at unlink time), so
//     its retire epoch exceeds the pinned epoch and the filter keeps it.
//     Such nodes contribute nothing live to the scan — the write that
//     unlinked them also advanced their verEpoch past the pinned epoch —
//     and their content at the pinned epoch is covered by version-store
//     records. In leak mode there is no domain and no stamp: the collector
//     keeps every node a walker can still reach.

// opSnap restarts are charged by snapshot point reads (descent retries).
// Snapshot scans never restart by construction; they have no restart path.

// verRecord is one copy-on-write pre-image: a view of the block a data node
// held on the epoch interval [installed, superseded), which the node left
// for a copy before the write that ended the interval stored anything, so
// nothing writes it again. Values are as the node stored them (value.go: a
// boxed value's box is never written again either). lo and hi are its
// smallest and largest keys; a scan's bounds exclude the sentinels.
type verRecord[V any] struct {
	installed  uint64
	superseded uint64
	lo, hi     int64
	data       vectormap.Cells
}

// visibleAt reports whether the record is the version a snapshot pinned at
// epoch s must read.
func (r *verRecord[V]) visibleAt(s uint64) bool {
	return r.installed <= s && s < r.superseded
}

// versionStore holds every published pre-image record, ordered by
// (minKey, installed). The key invariant (proved by the unique-owner
// argument in DESIGN.md §9): records visible at any single epoch have
// pairwise disjoint key ranges, so a point lookup needs only the visible
// record with the largest minKey ≤ k, and a scan can concatenate visible
// records in minKey order.
type versionStore[V any] struct {
	mu   sync.RWMutex
	recs []*verRecord[V]

	// pushed/pruned are monotonic counters; resident records == pushed −
	// pruned is the mass-conservation identity the invariant suite checks.
	pushed atomic.Int64
	pruned atomic.Int64
}

// insert adds a record, keeping the (minKey, installed) order. It returns
// the resident record count after the insert (for the chain-length metric).
func (vs *versionStore[V]) insert(r *verRecord[V]) int {
	vs.mu.Lock()
	i := sort.Search(len(vs.recs), func(i int) bool {
		ri := vs.recs[i]
		return ri.lo > r.lo || (ri.lo == r.lo && ri.installed >= r.installed)
	})
	vs.recs = append(vs.recs, nil)
	copy(vs.recs[i+1:], vs.recs[i:])
	vs.recs[i] = r
	n := len(vs.recs)
	vs.mu.Unlock()
	vs.pushed.Add(1)
	return n
}

// get resolves key k at epoch s from the store. Scanning left from the
// insertion point for k, the first record visible at s is the unique
// visible record whose range can contain k, and its block's own search
// answers.
func (vs *versionStore[V]) get(s uint64, k int64) (vectormap.Cell, bool) {
	vs.mu.RLock()
	defer vs.mu.RUnlock()
	i := sort.Search(len(vs.recs), func(i int) bool { return vs.recs[i].lo > k })
	for i--; i >= 0; i-- {
		if r := vs.recs[i]; r.visibleAt(s) {
			return r.data.Get(k)
		}
	}
	return vectormap.Cell{}, false
}

// collect appends (into out, reused) the records visible at s whose key
// ranges intersect [lo, hi], in minKey order. The returned records are
// immutable and safe to read after the lock is dropped.
func (vs *versionStore[V]) collect(s uint64, lo, hi int64, out []*verRecord[V]) []*verRecord[V] {
	out = out[:0]
	vs.mu.RLock()
	for _, r := range vs.recs {
		if r.lo > hi {
			break
		}
		if r.hi >= lo && r.visibleAt(s) {
			out = append(out, r)
		}
	}
	vs.mu.RUnlock()
	return out
}

// resident returns the number of records currently in the store.
func (vs *versionStore[V]) resident() int {
	vs.mu.RLock()
	n := len(vs.recs)
	vs.mu.RUnlock()
	return n
}

// prune drops every record no pinned snapshot can see. A record is garbage
// once its superseded epoch is ≤ the minimum pinned epoch (new pins always
// acquire an epoch ≥ every issued epoch, so they can never need it either).
// A store left empty lets its backing array go, which a long pin may have
// grown to many thousand records. Returns the number of records dropped.
func (vs *versionStore[V]) prune(minPinned uint64, anyPinned bool) int {
	vs.mu.Lock()
	kept := vs.recs[:0]
	for _, r := range vs.recs {
		if !anyPinned || r.superseded <= minPinned {
			continue
		}
		kept = append(kept, r)
	}
	dropped := len(vs.recs) - len(kept)
	clear(vs.recs[len(kept):])
	if len(kept) == 0 {
		kept = nil
	}
	vs.recs = kept
	vs.mu.Unlock()
	vs.pruned.Add(int64(dropped))
	return dropped
}

// snapRegistry tracks pinned snapshots. count is the only field touched by
// writers' fast path (one shared read-only load per data write when no
// snapshot is pinned); everything else is mutex-protected cold state.
type snapRegistry struct {
	count atomic.Int64 // pinned snapshots, readable without the mutex

	mu     sync.Mutex
	pinned map[uint64]int // pinned epoch → snapshots pinned at it

	pinnedTotal   atomic.Int64
	releasedTotal atomic.Int64
	leaked        atomic.Int64 // snapshots reclaimed by a finalizer, never Closed
}

// minPinnedLocked returns the smallest pinned epoch. Caller holds mu.
func (r *snapRegistry) minPinnedLocked() (uint64, bool) {
	var mp uint64
	any := false
	for e := range r.pinned {
		if !any || e < mp {
			mp, any = e, true
		}
	}
	return mp, any
}

// Snapshot is an immutable point-in-time view of the map, pinned at a single
// epoch. It is safe for concurrent use by multiple goroutines. Close must be
// called to release the pin: a pinned snapshot retains every pre-image
// record and retired node it might still read. Using a snapshot after Close
// panics; Close itself is idempotent.
type Snapshot[V any] struct {
	m        *Map[V]
	epoch    uint64
	released atomic.Bool
}

// Snapshot pins the map's current state and returns a read-only view of it.
// Acquisition is linearizable and wait-free apart from one mutex-protected
// registry update: the snapshot's state is the map's state at the moment the
// epoch was read, and every write that linearizes later is invisible to it.
func (m *Map[V]) Snapshot() *Snapshot[V] {
	r := &m.snaps
	r.mu.Lock()
	// count must rise before the epoch is read: a writer that observes
	// count == 0 is thereby ordered before this epoch read, so the pinned
	// epoch covers its write and no pre-image is required from it.
	r.count.Add(1)
	s := m.epoch.Load()
	if r.pinned == nil {
		r.pinned = make(map[uint64]int)
	}
	r.pinned[s]++
	r.pinnedTotal.Add(1)
	r.mu.Unlock()
	// A fresh pin has the maximal epoch, so it cannot resurrect records an
	// earlier prune dropped; pruning here only clears leftovers from eras
	// with no pinned snapshots.
	m.pruneVersions()
	return &Snapshot[V]{m: m, epoch: s}
}

// Epoch returns the epoch the snapshot is pinned at (diagnostics/tests).
func (s *Snapshot[V]) Epoch() uint64 { return s.epoch }

// Closed reports whether the snapshot has been released.
func (s *Snapshot[V]) Closed() bool { return s.released.Load() }

// Close releases the pin, allowing pre-image records and retired nodes the
// snapshot was holding to be reclaimed. Idempotent.
func (s *Snapshot[V]) Close() {
	if s.released.Swap(true) {
		return
	}
	r := &s.m.snaps
	r.mu.Lock()
	r.pinned[s.epoch]--
	if r.pinned[s.epoch] <= 0 {
		delete(r.pinned, s.epoch)
	}
	r.count.Add(-1)
	r.releasedTotal.Add(1)
	r.mu.Unlock()
	s.m.pruneVersions()
}

// MarkLeaked records a snapshot that was garbage-collected without Close
// (invoked by the facade's finalizer) and then releases it.
func (s *Snapshot[V]) MarkLeaked() {
	if !s.released.Load() {
		s.m.snaps.leaked.Add(1)
		s.Close()
	}
}

func (s *Snapshot[V]) check() {
	if s.released.Load() {
		panic("core: use of closed snapshot")
	}
}

// pruneVersions drops unreachable pre-image records under the registry's
// current pin set.
func (m *Map[V]) pruneVersions() {
	r := &m.snaps
	r.mu.Lock()
	mp, any := r.minPinnedLocked()
	r.mu.Unlock()
	m.vstore.prune(mp, any)
}

// snapshotsPermitRecycle is the hazard domain's recycle filter: a retired
// data node must outlive every pinned snapshot whose epoch precedes the
// node's unlink, because a snapshot scan may still traverse its next
// pointer. retireEpoch is the bound retire stamped the node's retire record
// with; it is 0, and the node always recyclable, for an index node (never
// touched by unprotected snapshot reads) and for a data node retired with no
// snapshot pinned.
func (m *Map[V]) snapshotsPermitRecycle(_ *node[V], retireEpoch uint64) bool {
	if retireEpoch == 0 {
		return true
	}
	r := &m.snaps
	if r.count.Load() == 0 {
		return true
	}
	r.mu.Lock()
	mp, any := r.minPinnedLocked()
	r.mu.Unlock()
	return !any || mp >= retireEpoch
}

// noteDataWrite is the copy-on-write hook, called by every data-layer write
// with the node's write lock held and no mutation performed yet. With no
// snapshot pinned it is a single shared atomic load. Otherwise it advances
// the epoch (the write's linearization point relative to snapshots), moves
// the node onto a copy of its block and publishes the block it left as the
// pre-image, and stamps the node's verEpoch. It
// returns the epoch it issued (0 when no snapshot was pinned) so callers
// that create sibling nodes inside the same locked section can stamp them.
func (m *Map[V]) noteDataWrite(n *node[V]) uint64 {
	if m.snaps.count.Load() == 0 {
		return 0
	}
	e := m.epoch.Add(1)
	m.publishPreImage(n, e)
	return e
}

// noteDataWrite2 is noteDataWrite for an orphan merge, which fills a from b
// and empties b under one pair of held locks: both pre-images share a single
// linearization epoch. b is not moved onto a copy: AbsorbFrom moves it onto
// the empty block and stores nothing into the block it leaves.
func (m *Map[V]) noteDataWrite2(a, b *node[V]) uint64 {
	if m.snaps.count.Load() == 0 {
		return 0
	}
	e := m.epoch.Add(1)
	m.publishPreImage(a, e)
	m.publishRecord(b, e)
	return e
}

// publishPreImage publishes n's block as its pre-image (publishRecord) and
// moves n onto a copy of it, so that the write's stores never reach the
// record.
func (m *Map[V]) publishPreImage(n *node[V], e uint64) {
	m.publishRecord(n, e)
	n.data().Detach()
}

// publishRecord publishes the block n holds, which the caller never writes
// again, into the version store as the record for epochs [n.verEpoch, e),
// then installs verEpoch = e. The caller holds n's write lock and has not
// stored to the chunk yet, so the record is exact; snapshot readers cannot
// observe the intermediate states because the held lock blocks their
// validation until release, by which point both the record and the new
// verEpoch are in place. An empty node publishes nothing.
func (m *Map[V]) publishRecord(n *node[V], e uint64) {
	old := n.verEpoch.Load()
	n.verEpoch.Store(e)
	d := n.data()
	if lo, hi, ok := d.Bounds(); ok {
		r := &verRecord[V]{installed: old, superseded: e, lo: lo, hi: hi}
		r.data.Share(d)
		// Stretch the publication window (epoch advanced, record not yet
		// visible); safe because the node lock is held throughout.
		chaos.Step(chaos.CoreSnapshot)
		m.snapChainLen.Observe(int(e), int64(m.vstore.insert(r)))
	}
	// The caller saw a pin before it issued e, but the last Close may have
	// dropped the count to zero and pruned since, on a store that did not
	// hold this record yet. Nothing else would prune it until the next pin,
	// so the writer that lost that race cleans up. A count still above zero
	// here means a Close, and its prune, are yet to come. pruneVersions takes
	// snaps.mu then vstore.mu and never a node lock.
	if m.snaps.count.Load() == 0 {
		m.pruneVersions()
	}
}

// inheritVerEpoch stamps a freshly linked data node created from src's
// content inside src's locked section (splits). The child shares src's
// version: its content was part of src's at every epoch src's current
// verEpoch covers.
func inheritVerEpoch[V any](src, dst *node[V]) {
	if src.level == 0 {
		dst.verEpoch.Store(src.verEpoch.Load())
	}
}

// Get returns a copy of the value bound to k at the snapshot's epoch (see
// Map.Lookup for the result pointer).
func (s *Snapshot[V]) Get(k int64) (v *V, ok bool) {
	v = new(V)
	ok = s.GetInto(k, v)
	return
}

// GetInto is Get copying the value into *out, which it leaves alone when k
// is absent.
func (s *Snapshot[V]) GetInto(k int64, out *V) bool {
	c, ok := s.get(k)
	if ok && out != nil {
		s.m.load(c, out)
	}
	return ok
}

func (s *Snapshot[V]) get(k int64) (vectormap.Cell, bool) {
	s.check()
	checkKey(k)
	m := s.m
	ctx := m.ctxs.get()
	defer m.ctxs.put(ctx)
	for {
		curr, ver, ok := m.descendToData(ctx, k, modeRead)
		if !ok {
			m.restart(ctx, opSnap)
			continue
		}
		ve := curr.verEpoch.Load()
		c, found := curr.data().Get(k)
		if !curr.lock.Validate(ver) {
			m.restart(ctx, opSnap)
			continue
		}
		ctx.dropAll()
		if ve <= s.epoch && found {
			// The node is unchanged since before the pin, and in-chunk
			// membership implies current ownership of k, so this is the
			// pinned version of k.
			return c, true
		}
		// Either the node moved past the pin (its pinned content is in the
		// store) or k is absent from its unchanged owner — in which case k
		// may still exist at the pinned epoch under a node that has since
		// changed (ownership moves across splits/merges/min-removals), which
		// the store also answers.
		return s.m.vstore.get(s.epoch, k)
	}
}

// Contains reports whether k was present at the snapshot's epoch.
func (s *Snapshot[V]) Contains(k int64) bool { return s.GetInto(k, nil) }

// Range calls fn in ascending key order for every pair with lo ≤ k ≤ hi at
// the snapshot's epoch. fn returning false stops the iteration. The scan
// never restarts and never blocks writers. v points at a copy that the next
// call overwrites.
func (s *Snapshot[V]) Range(lo, hi int64, fn func(k int64, v *V) bool) {
	s.RangeStored(lo, hi, func(k int64, v *V, _ Stored) bool { return fn(k, v) })
}

// RangeStored is Range that also reports each value as the map stored it,
// so a caller can later tell whether the key was rewritten since the
// snapshot (Stored.Same against Map.RangeStored).
func (s *Snapshot[V]) RangeStored(lo, hi int64, fn func(k int64, v *V, st Stored) bool) {
	s.check()
	checkKey(lo)
	checkKey(hi)
	if lo > hi {
		return
	}
	s.scan(lo, hi, fn)
}

// Ascend calls fn for every pair in the snapshot in ascending key order.
func (s *Snapshot[V]) Ascend(fn func(k int64, v *V) bool) {
	s.check()
	s.scan(MinKey+1, MaxKey-1, func(k int64, v *V, _ Stored) bool { return fn(k, v) })
}

// scan walks [lo, hi] for Range, RangeStored and Ascend.
func (s *Snapshot[V]) scan(lo, hi int64, fn func(k int64, v *V, st Stored) bool) {
	var v V
	w := s.newWalker(lo, hi)
	for w.step() {
		for i, c := range w.outV {
			s.m.load(c, &v)
			if !fn(w.outK[i], &v, Stored{c}) {
				return
			}
		}
	}
}

// Len counts the snapshot's pairs with a full scan.
func (s *Snapshot[V]) Len() int {
	s.check()
	n := 0
	w := s.newWalker(MinKey+1, MaxKey-1)
	for w.step() {
		n += len(w.outK)
	}
	return n
}

// Cursor returns an iterator over the snapshot's pairs with keys ≥ start,
// in ascending order. Next is amortized O(1); the cursor holds no locks and
// never restarts. The cursor borrows the snapshot: it must not be used
// after the snapshot is closed.
func (s *Snapshot[V]) Cursor(start int64) *SnapCursor[V] {
	s.check()
	checkKey(start)
	return &SnapCursor[V]{w: s.newWalker(start, MaxKey-1)}
}

// SnapCursor iterates a pinned snapshot. Not safe for concurrent use.
type SnapCursor[V any] struct {
	w *snapWalker[V]
	i int
}

// Next returns the next pair, with a copy of its value, or ok=false when
// the scan is exhausted (see Map.Lookup for the result pointer).
func (c *SnapCursor[V]) Next() (k int64, v *V, ok bool) {
	v = new(V)
	k, ok = c.NextInto(v)
	return
}

// NextInto is Next copying the value into *out, which it leaves alone when
// the scan is exhausted.
func (c *SnapCursor[V]) NextInto(out *V) (int64, bool) {
	c.w.s.check()
	for c.i >= len(c.w.outK) {
		if !c.w.step() {
			return 0, false
		}
		c.i = 0
	}
	k := c.w.outK[c.i]
	c.w.s.m.load(c.w.outV[c.i], out)
	c.i++
	return k, true
}

// snapWalker is the restart-free scan engine shared by Range, Ascend and
// SnapCursor. It walks the data layer hand-over-hand; for every visited node
// whose live content is visible at the pinned epoch it emits the
// version-store records covering the key window up to that content, then the
// content itself, each key exactly once in ascending order. Nodes whose
// content moved past the pin contribute nothing live — the records that
// cover them are emitted as later windows open (or at the tail).
type snapWalker[V any] struct {
	s        *Snapshot[V]
	n        *node[V]
	pos      int64 // next key to emit is ≥ pos
	hi       int64 // inclusive upper bound of the scan
	finished bool

	// scratch reused across node visits
	live vectormap.Cells // a view of the current node's block
	recs []*verRecord[V]
	next *node[V]
	qual bool

	// output of the last successful step
	outK []int64
	outV []vectormap.Cell
}

// newWalker seeks the data node owning lo via the ordinary hazard-protected
// descent and positions a walker there. The descent may restart (charged to
// opSnap); everything after it is restart-free. Dropping the hazard pointers
// before walking is safe: any node the walker can reach that is later
// unlinked was unlinked after the pin, so the epoch-aware recycle filter
// keeps it until the snapshot closes (in leak mode the collector does).
func (s *Snapshot[V]) newWalker(lo, hi int64) *snapWalker[V] {
	m := s.m
	ctx := m.ctxs.get()
	var start *node[V]
	for {
		n, _, ok := m.descendToData(ctx, lo, modeRead)
		if !ok {
			m.restart(ctx, opSnap)
			continue
		}
		start = n
		ctx.dropAll()
		break
	}
	m.ctxs.put(ctx)
	return &snapWalker[V]{s: s, n: start, pos: lo, hi: hi}
}

// readNode reads the walker's current node under seqlock validation: a view
// of its block, its next pointer, and whether its content is visible at the
// pinned epoch. A torn read retries the same node — never the scan.
func (w *snapWalker[V]) readNode() {
	n := w.n
	for {
		if chaos.Fail(chaos.CoreSnapshot) {
			// Simulate a torn read; the retry stays on this node.
			runtime.Gosched()
			continue
		}
		ver, ok := n.lock.ReadVersion()
		if !ok {
			runtime.Gosched()
			continue
		}
		w.qual = n.verEpoch.Load() <= w.s.epoch
		w.live.Share(n.data())
		w.next = n.next.Load()
		if n.lock.Validate(ver) {
			return
		}
	}
}

// step advances the walk until it has produced at least one pair (in
// outK/outV) or exhausted the scan. It returns false when no output remains.
func (w *snapWalker[V]) step() bool {
	w.outK, w.outV = w.outK[:0], w.outV[:0]
	for !w.finished {
		if w.pos > w.hi {
			w.finished = true
			break
		}
		w.readNode()
		if w.next == nil {
			// Tail sentinel: emit the remaining records and finish.
			w.emitWindow(w.hi, nil)
			w.finished = true
			break
		}
		// Only the tail holds MaxKey; a head node holding nothing but its
		// sentinel reads MinKey, below every pos.
		if u, ok := w.live.MaxKey(); w.qual && ok && u >= w.pos {
			w.emitWindow(u, &w.live)
		}
		w.n = w.next
		if len(w.outK) > 0 {
			return true
		}
	}
	return len(w.outK) > 0
}

// emitWindow appends to outK/outV the pairs on [pos, min(u, hi)] in
// ascending key order, first those of the version-store records visible
// there, then those of live, the current node's view (nil at the tail),
// whose largest key is u, and advances pos past the window. Versions visible
// at one epoch have disjoint key ranges (DESIGN.md §9), so the records lie
// below live's keys and minKey order is key order. The one exception is a
// record published from live's own version between the read and this query:
// the very block live views, reaching u. It is skipped.
func (w *snapWalker[V]) emitWindow(u int64, live *vectormap.Cells) {
	top := min(u, w.hi)
	w.recs = w.s.m.vstore.collect(w.s.epoch, w.pos, top, w.recs)
	for _, r := range w.recs {
		if live == nil || r.hi < u {
			w.emit(&r.data, top)
		}
	}
	if live != nil {
		w.emit(live, top)
	}
	w.pos = top + 1
}

// emit appends c's pairs on [pos, top] to outK/outV in ascending key order.
func (w *snapWalker[V]) emit(c *vectormap.Cells, top int64) {
	c.ForEachOrdered(func(k int64, v vectormap.Cell) bool {
		if k >= w.pos && k <= top {
			w.outK = append(w.outK, k)
			w.outV = append(w.outV, v)
		}
		return k < top
	})
}
