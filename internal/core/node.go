package core

import (
	"sync"
	"sync/atomic"

	"skipvector/internal/hazard"
	"skipvector/internal/seqlock"
	"skipvector/internal/vectormap"
)

// node is a skip vector node at any layer: one sequence lock, one next
// pointer and one chunk (the paper's Listing 1). A data-layer node (level 0)
// reads the chunk as key → value cell through data() (value.go); an index
// node reads it as key → child node one layer down through index().
//
// The sequence lock protects the chunk and the next pointer. Optimistic
// readers snapshot the lock, read atomic cells, and validate; writers hold
// the lock. The lock word is never reset when a node is recycled, so its
// sequence number grows monotonically across lifetimes and a validation
// against a stale snapshot from a previous lifetime always fails.
//
// Field order: everything a traversal hop reads (lock, next, the chunk's
// block pointer and size, level) lies in the first 36 bytes; the snapshot
// epoch word, which only data-layer writers and snapshots touch, comes last.
// The whole node is 48 bytes on 64-bit platforms, a Go size class: the keys
// and payloads live in the chunk's block, sized to what the chunk holds. The
// epoch at which a retired node was unlinked is not a field: it is only read
// by reclamation, so it rides in the node's hazard retire record (retire).
type node[V any] struct {
	lock  seqlock.Lock
	next  atomic.Pointer[node[V]]
	chunk vectormap.Chunk[node[V]]
	level int32

	// verEpoch is the snapshot epoch at which the node's current data-layer
	// contents were installed. It is only advanced by a writer holding the
	// node's write lock, and only while at least one snapshot is pinned
	// (m.snaps.active()); with no snapshots pinned writers leave it alone,
	// which is sound because any later snapshot pins an epoch ≥ every epoch
	// ever issued. A snapshot pinned at epoch s treats the node's live
	// contents as visible iff verEpoch ≤ s; otherwise the pre-image record
	// the advancing writer pushed into the version store covers the node.
	// Meaningful only for data-layer nodes; index nodes never consult it.
	verEpoch atomic.Uint64
}

// isIndex reports whether the node belongs to an index layer.
func (n *node[V]) isIndex() bool { return n.level > 0 }

// index returns the chunk as an index node reads it. The caller must know
// the node is an index node (level > 0).
func (n *node[V]) index() *vectormap.Chunk[node[V]] { return &n.chunk }

// data returns the chunk as a data node reads it: untyped payload cells,
// words in an inline map and value boxes in a boxed one (value.go). The
// caller must know the node is a data node (level 0).
//
// Which view is right is decided by level alone, and an optimistic reader may
// still be choosing it for a node that has since been retired and recycled.
// So a node's class must never change across lifetimes: a recycled data node
// is only ever handed out as a data node again and an index node as an index
// node, which is why memory keeps freeData and freeIndex apart. Were the
// class to flip, such a reader could load a value cell and follow it as a
// *node[V].
func (n *node[V]) data() *vectormap.Cells { return &n.chunk.Cells }

// size returns the node's current element count. Like minKey and maxKey it
// reads only the chunk's keys and size, which do not depend on the payload
// type, so it needs no view.
func (n *node[V]) size() int { return n.chunk.Size() }

// minKey returns the smallest key in the node (ok=false when empty).
func (n *node[V]) minKey() (int64, bool) { return n.chunk.MinKey() }

// maxKey returns the largest key in the node (ok=false when empty).
func (n *node[V]) maxKey() (int64, bool) { return n.chunk.MaxKey() }

// markOrphanPrivate flags an unpublished node as an orphan. The node must
// not be reachable by other goroutines yet: the transient lock acquisition
// cannot block anyone and Abort leaves the sequence number untouched.
func (n *node[V]) markOrphanPrivate() {
	n.lock.Acquire()
	n.lock.SetOrphan(true)
	n.lock.Abort()
}

// memory allocates and recycles nodes. In hazard mode, retired nodes flow
// through the hazard domain's scan into per-layer-class freelists and are
// reused, giving the paper's precise reclamation; in leak mode nodes are
// always freshly allocated and unlinked nodes are left to the collector.
type memory[V any] struct {
	cfg    *Config
	inline bool                    // data chunks are word-celled (value.go)
	domain *hazard.Domain[node[V]] // nil in leak mode

	mu        sync.Mutex
	freeData  []*node[V]
	freeIndex []*node[V]

	allocs  atomic.Int64
	reuses  atomic.Int64
	retires atomic.Int64
}

func newMemory[V any](cfg *Config, inline bool) *memory[V] {
	m := &memory[V]{cfg: cfg, inline: inline}
	if cfg.Reclaim == ReclaimHazard {
		m.domain = hazard.NewDomain(m.recycle)
	}
	return m
}

// recycle receives nodes the hazard scan proved unreachable.
func (m *memory[V]) recycle(n *node[V]) {
	m.mu.Lock()
	if n.level == 0 {
		m.freeData = append(m.freeData, n)
	} else {
		m.freeIndex = append(m.freeIndex, n)
	}
	m.mu.Unlock()
}

// allocRaw returns a node for the given layer with an initialized, empty
// chunk. Recycled nodes keep their sequence-lock word (see node docs) but
// have next cleared and their chunk reset to the shared empty block, so a
// node parked on a freelist holds no chunk storage.
func (m *memory[V]) allocRaw(level int) *node[V] {
	var n *node[V]
	if m.domain != nil {
		m.mu.Lock()
		if level == 0 {
			if l := len(m.freeData); l > 0 {
				n, m.freeData = m.freeData[l-1], m.freeData[:l-1]
			}
		} else {
			if l := len(m.freeIndex); l > 0 {
				n, m.freeIndex = m.freeIndex[l-1], m.freeIndex[:l-1]
			}
		}
		m.mu.Unlock()
	}
	if n == nil {
		n = &node[V]{}
		m.allocs.Add(1)
	} else {
		m.reuses.Add(1)
		n.next.Store(nil)
		n.verEpoch.Store(0)
		if n.lock.IsOrphan() {
			// Clear the stale orphan flag from the previous lifetime.
			n.lock.Acquire()
			n.lock.SetOrphan(false)
			n.lock.Abort()
		}
	}
	n.level = int32(level)
	switch {
	case level == 0 && m.inline:
		n.chunk.InitWords(m.cfg.TargetDataVectorSize, m.cfg.SortedData)
	case level == 0:
		n.chunk.Init(m.cfg.TargetDataVectorSize, m.cfg.SortedData)
	default:
		n.chunk.Init(m.cfg.TargetIndexVectorSize, m.cfg.SortedIndex)
	}
	return n
}

// lengthCounter is a striped counter: per-stripe atomics avoid making the
// map size a global contention point on the hot insert/remove paths.
type lengthCounter struct {
	stripes [8]struct {
		v atomic.Int64
		_ [7]int64 // pad to a cache line to avoid false sharing
	}
}

func (c *lengthCounter) add(stripe int, delta int64) {
	c.stripes[stripe&7].v.Add(delta)
}

func (c *lengthCounter) load() int64 {
	var sum int64
	for i := range c.stripes {
		sum += c.stripes[i].v.Load()
	}
	return sum
}

// Stats exposes internal event counters for benchmarks and ablations. All
// counters are updated on rare paths (splits, merges, orphans), never on
// the per-element hot path.
type Stats struct {
	Splits  atomic.Int64 // chunk splits (capacity or keyed)
	Merges  atomic.Int64 // orphan merges (including empty-orphan unlinks)
	Orphans atomic.Int64 // orphan nodes created (capacity splits + index-tower removals)
}

// StatsSnapshot is a plain-value copy of Stats, extended with the memory,
// hazard-domain, and search-finger counters. Collection is tear-free in the
// sense that every field is a single atomic load (striped counters are sums
// of atomic loads) taken with no lock held: a snapshot under concurrent
// mutators shows each counter at some instant during the call. Restarts is
// the sum of the per-kind restart counters, so RestartsLookup+…+RestartsSnap
// = Restarts holds by construction. Reclaimed loads before RetiredTotal (a
// node is counted retired before it can be counted reclaimed), so
// Reclaimed ≤ RetiredTotal holds even mid-churn.
type StatsSnapshot struct {
	Restarts       int64 // sum of the per-kind counters below
	RestartsLookup int64
	RestartsInsert int64
	RestartsRemove int64
	RestartsNav    int64 // Floor/Ceiling (and the facades' Min/Max through them)
	RestartsRange  int64 // range-window establishment
	RestartsBatch  int64 // ApplyBatch group commits
	RestartsSnap   int64 // snapshot point-read descents (snapshot scans cannot restart)
	Splits         int64
	Merges         int64
	Orphans        int64
	Freezes        int64 // successful tower-insert freezes; recorded only while telemetry is enabled
	Allocs         int64
	Reuses         int64
	Retired        int64 // nodes retired but not yet recycled (bounded garbage)
	RetiredTotal   int64 // monotonic Retire calls into the hazard domain
	Reclaimed      int64 // nodes a scan proved unreachable and recycled
	Scans          int64 // hazard reclamation scans
	RetireHWM      int64 // longest retired list any handle reached (telemetry-gated)
	Handles        int64 // hazard handles registered with the domain
	FingerHits     int64 // operations that resumed from the search finger
	FingerMisses   int64 // finger attempts that fell back to the full descent

	BatchDescentsSaved int64 // batch groups positioned by the search finger, no descent

	SnapshotsPinned   int64 // snapshots acquired (monotonic)
	SnapshotsReleased int64 // snapshots released via Close (monotonic; ≤ SnapshotsPinned)
	SnapshotsActive   int64 // snapshots currently pinned
	SnapshotCow       int64 // pre-image records pushed by copy-on-write writes
	SnapshotCowPruned int64 // pre-image records pruned (≤ SnapshotCow)
	SnapshotRecords   int64 // records resident in the version store (= Cow − Pruned at quiescence)
}

// Stats returns a snapshot of the map's internal counters.
func (m *Map[V]) Stats() StatsSnapshot {
	s := StatsSnapshot{
		RestartsLookup: m.restartsByOp[opLookup].Load(),
		RestartsInsert: m.restartsByOp[opInsert].Load(),
		RestartsRemove: m.restartsByOp[opRemove].Load(),
		RestartsNav:    m.restartsByOp[opNav].Load(),
		RestartsRange:  m.restartsByOp[opRange].Load(),
		RestartsBatch:  m.restartsByOp[opBatch].Load(),
		RestartsSnap:   m.restartsByOp[opSnap].Load(),
	}
	s.Restarts = s.RestartsLookup + s.RestartsInsert + s.RestartsRemove + s.RestartsNav +
		s.RestartsRange + s.RestartsBatch + s.RestartsSnap
	s.Splits = m.stats.Splits.Load()
	s.Merges = m.stats.Merges.Load()
	s.Orphans = m.stats.Orphans.Load()
	s.Freezes = m.freezes.Load()
	s.Allocs = m.mem.allocs.Load()
	s.Reuses = m.mem.reuses.Load()
	s.FingerHits = m.fingerHits.load()
	s.FingerMisses = m.fingerMisses.load()
	s.BatchDescentsSaved = m.batchDescSaved.load()
	// Released and Pruned load before Pinned and Cow respectively (a release
	// is counted only after its pin; a prune only after its push), so
	// Released ≤ Pinned and Pruned ≤ Cow hold in any snapshot.
	s.SnapshotsReleased = m.snaps.releasedTotal.Load()
	s.SnapshotsPinned = m.snaps.pinnedTotal.Load()
	s.SnapshotsActive = m.snaps.count.Load()
	s.SnapshotCowPruned = m.vstore.pruned.Load()
	s.SnapshotCow = m.vstore.pushed.Load()
	s.SnapshotRecords = int64(m.vstore.resident())
	if d := m.mem.domain; d != nil {
		// Reclaimed before RetiredTotal; see the type comment.
		s.Reclaimed = d.RecycledCount()
		s.RetiredTotal = d.RetiredTotal()
		s.Retired = d.RetiredCount()
		s.Scans = d.Scans()
		s.RetireHWM = d.RetireHWM()
		s.Handles = int64(d.Handles())
	}
	return s
}
