// Package hazard implements Michael-style hazard pointers, the precise
// memory-reclamation scheme the skip vector pairs with sequence locks
// (Section III-B of the paper, citing Michael [9]).
//
// In the paper's C++ implementation, hazard pointers prevent a node from
// being freed while another thread may still dereference it, giving a tight
// bound on garbage. Go's collector already guarantees memory safety, so a
// literal port would be invisible; instead this package drives an explicit
// node-recycling freelist: retired nodes are pushed onto the freelist — and
// thus become eligible for immediate reuse — only once a scan proves no
// handle still protects them. That reproduces both sides of the paper's
// claim: the protocol's per-traversal publication cost on the read path and
// the bounded-garbage property on the write path (at most R retired nodes
// per handle await a scan). The skip vector's "Leak" configurations bypass
// this package entirely and let the collector reclaim nodes, mirroring the
// paper's leaky baselines.
//
// The usual hazard-pointer subtlety — publishing a pointer and then
// re-checking that it is still reachable — composes with sequence locks
// exactly as the paper describes: after publishing a hazard pointer for a
// node found in some predecessor, validating the predecessor's sequence lock
// proves the node had not been unlinked when the hazard pointer became
// visible (unlinking bumps the predecessor's sequence number before the node
// is retired).
package hazard

import (
	"sync"
	"sync/atomic"

	"skipvector/internal/chaos"
	"skipvector/internal/telemetry"
)

// SlotsPerHandle is the number of hazard pointers each handle can hold at
// once. Skip vector traversals need at most a handful (current node, next or
// down node, and short-lived extras around merges), far below this bound.
const SlotsPerHandle = 8

// ScanThreshold is the retired-list length that triggers a scan. Michael's
// analysis wants R = Ω(H) where H is the total slot count; a fixed small
// constant keeps garbage tightly bounded, which is the property the paper
// highlights. Exported so the invariant suite can state the bound it implies:
// a handle's retired list never exceeds ScanThreshold entries before a scan,
// and a scan leaves at most one node per protected slot, so domain-wide
// pending garbage is O(handles × (ScanThreshold + SlotsPerHandle)).
const ScanThreshold = 64

// Domain tracks every handle's hazard slots and supplies Retire/scan. A
// domain is typically owned by one data structure instance. T is the node
// type being protected.
type Domain[T any] struct {
	mu      sync.Mutex // guards handles slice growth
	handles atomic.Pointer[[]*Handle[T]]

	// recycle receives nodes proven unreachable; typically it pushes them
	// onto a freelist. If nil, nodes are simply dropped for the GC.
	recycle func(*T)

	// retiredCount tracks nodes retired but not yet recycled, across all
	// handles. Exposed for tests and stats: it is the "bounded garbage".
	retiredCount atomic.Int64
	recycled     atomic.Int64

	// retiredTotal is the monotonic count of Retire calls; with recycled it
	// gives the reclamation identity pending = retiredTotal − recycled that
	// the invariant suite checks. scans counts reclamation sweeps. Both sit
	// on cold paths, so they are always-on plain atomics rather than gated
	// telemetry types.
	retiredTotal atomic.Int64
	scans        atomic.Int64

	// retireHWM records the longest retired list any handle reached
	// (telemetry-gated: one atomic load per Retire when disabled).
	retireHWM telemetry.Max

	// suppressReclaim is a test hook: while set, scans are skipped entirely,
	// so retired nodes are never recycled. The invariant suite uses it to
	// prove its reclamation assertions detect a broken scan.
	suppressReclaim atomic.Bool

	// recycleFilter, when installed, is consulted by scans for every retired
	// node that no hazard pointer protects, with the tag its Retire call
	// recorded: returning false keeps the node on the retired list for a
	// later scan. It extends the reclamation condition from "no hazard
	// pointer" to "no hazard pointer AND the filter agrees", which is how
	// MVCC snapshots pin retired pre-image nodes past their unlink
	// (epoch-aware reclamation): the tag is the node's retire epoch, and the
	// filter holds back any node whose retire epoch a pinned snapshot can
	// still see. The filter must be monotone per record — once it returns
	// true for a node and tag it must keep doing so — since a node it
	// releases may be recycled immediately.
	recycleFilter atomic.Pointer[func(p *T, tag uint64) bool]
}

// NewDomain creates a hazard-pointer domain. recycle, if non-nil, is invoked
// (on the retiring goroutine) for each node once no hazard pointer can
// reference it.
func NewDomain[T any](recycle func(*T)) *Domain[T] {
	d := &Domain[T]{recycle: recycle}
	empty := make([]*Handle[T], 0)
	d.handles.Store(&empty)
	return d
}

// Handle is a participant's set of hazard-pointer slots plus its private
// retired list. Handles are not safe for concurrent use; acquire one per
// goroutine (or pool them).
type Handle[T any] struct {
	domain  *Domain[T]
	slots   [SlotsPerHandle]atomic.Pointer[T]
	used    int // high-water mark of slots in use (stack discipline not required)
	retired []retiree[T]
	inUse   atomic.Bool
}

// retiree is one retired-list record: the node and the tag its Retire call
// gave, which scans hand to the recycle filter. Keeping the tag here, not in
// the node, costs the node nothing for a word only reclamation reads.
type retiree[T any] struct {
	p   *T
	tag uint64
}

// NewHandle registers a new handle with the domain. Handles are never
// unregistered (their slots read as nil once released); pools should reuse
// them via Acquire/ReleaseToPool semantics of the caller.
func (d *Domain[T]) NewHandle() *Handle[T] {
	h := &Handle[T]{domain: d, retired: make([]retiree[T], 0, ScanThreshold+8)}
	h.inUse.Store(true)
	d.mu.Lock()
	old := *d.handles.Load()
	next := make([]*Handle[T], len(old)+1)
	copy(next, old)
	next[len(old)] = h
	d.handles.Store(&next)
	d.mu.Unlock()
	return h
}

// Handles returns the number of registered handles (for stats/tests).
func (d *Domain[T]) Handles() int { return len(*d.handles.Load()) }

// RetiredCount returns the number of nodes retired but not yet recycled.
func (d *Domain[T]) RetiredCount() int64 { return d.retiredCount.Load() }

// RecycledCount returns the number of nodes passed to the recycle hook.
func (d *Domain[T]) RecycledCount() int64 { return d.recycled.Load() }

// RetiredTotal returns the monotonic count of Retire calls since creation.
func (d *Domain[T]) RetiredTotal() int64 { return d.retiredTotal.Load() }

// Scans returns the number of reclamation scans performed.
func (d *Domain[T]) Scans() int64 { return d.scans.Load() }

// RetireHWM returns the longest retired list any handle reached while
// telemetry recording was enabled.
func (d *Domain[T]) RetireHWM() int64 { return d.retireHWM.Load() }

// SetReclaimSuppressed toggles the scan-suppression test hook. While
// suppressed, Retire still appends to the retired list but no scan runs, so
// nothing is ever recycled — deliberately violating the precise-reclamation
// bound so tests can confirm their assertions notice.
func (d *Domain[T]) SetReclaimSuppressed(on bool) { d.suppressReclaim.Store(on) }

// SetRecycleFilter installs (or, with nil, removes) the epoch-aware
// reclamation filter, which a scan calls with each unprotected retired node
// and the tag its Retire call recorded (the skip vector's tag is the node's
// retire epoch); see the field comment for the contract. Installation is not
// synchronized against in-flight scans: a scan that already read the
// previous filter may recycle a node the new filter would have kept, so the
// filter must be installed before any node it needs to protect is retired
// (the skip vector installs it at construction time).
func (d *Domain[T]) SetRecycleFilter(f func(p *T, tag uint64) bool) {
	if f == nil {
		d.recycleFilter.Store(nil)
		return
	}
	d.recycleFilter.Store(&f)
}

// ResetRetireHWM clears the retire-list high-water mark. The mark is sticky
// by design (a transient pile-up should stay visible); resetting it is for
// tests that injected such a pile-up on purpose and want to verify the domain
// returns to bounded behaviour afterwards.
func (d *Domain[T]) ResetRetireHWM() { d.retireHWM.Reset() }

// Protect publishes p in slot i. The caller must subsequently re-validate
// (via the owning node's sequence lock) that p is still reachable before
// dereferencing it. Protecting nil clears the slot.
func (h *Handle[T]) Protect(i int, p *T) {
	h.slots[i].Store(p)
}

// Slot returns the pointer currently protected by slot i (nil when free).
func (h *Handle[T]) Slot(i int) *T {
	return h.slots[i].Load()
}

// Clear drops the hazard pointer in slot i.
func (h *Handle[T]) Clear(i int) {
	h.slots[i].Store(nil)
}

// ClearAll drops every hazard pointer held by the handle. Called on
// operation restart ("HP.dropAll" in the paper's listings).
func (h *Handle[T]) ClearAll() {
	for i := range h.slots {
		if h.slots[i].Load() != nil {
			h.slots[i].Store(nil)
		}
	}
}

// Retire marks p as logically deleted ("HP.mark" in the listings). Once no
// handle protects p and the recycle filter, if any, accepts p with its tag,
// p is handed to the domain's recycle hook. The tag is at most one value,
// kept in p's retired-list record for the filter; none is tag 0. Retire may
// trigger a scan of all handles' slots.
func (h *Handle[T]) Retire(p *T, tag ...uint64) {
	r := retiree[T]{p: p}
	if len(tag) > 0 {
		r.tag = tag[0]
	}
	h.retired = append(h.retired, r)
	h.domain.retiredCount.Add(1)
	h.domain.retiredTotal.Add(1)
	h.domain.retireHWM.Observe(int64(len(h.retired)))
	// A forced chaos failure scans early, racing reclamation against
	// in-flight traversals far more often than the threshold would.
	if len(h.retired) >= ScanThreshold || chaos.Fail(chaos.HazardRetire) {
		h.scan()
	}
}

// Flush forces a scan regardless of the retired-list length. Useful when a
// handle is about to be parked in a pool.
func (h *Handle[T]) Flush() {
	if len(h.retired) > 0 {
		h.scan()
	}
}

// scan implements Michael's reclamation scan: snapshot every published
// hazard pointer, then recycle retired nodes not in the snapshot.
func (h *Handle[T]) scan() {
	if h.domain.suppressReclaim.Load() {
		return
	}
	h.domain.scans.Add(1)
	handles := *h.domain.handles.Load()
	protected := make(map[*T]struct{}, len(handles)*2)
	for _, other := range handles {
		for i := range other.slots {
			if p := other.slots[i].Load(); p != nil {
				protected[p] = struct{}{}
			}
		}
	}
	// Perturbing between the snapshot and the sweep stretches the window
	// in which a traversal may publish a hazard pointer the snapshot
	// missed; the protocol tolerates it because such a node was already
	// unreachable when it was retired.
	chaos.Step(chaos.HazardScan)
	var filter func(*T, uint64) bool
	if fp := h.domain.recycleFilter.Load(); fp != nil {
		filter = *fp
	}
	keep := h.retired[:0]
	for _, r := range h.retired {
		if _, live := protected[r.p]; live {
			keep = append(keep, r)
			continue
		}
		if filter != nil && !filter(r.p, r.tag) {
			keep = append(keep, r)
			continue
		}
		h.domain.retiredCount.Add(-1)
		h.domain.recycled.Add(1)
		if h.domain.recycle != nil {
			h.domain.recycle(r.p)
		}
	}
	// Zero the tail so recycled nodes are not pinned by the backing array.
	clear(h.retired[len(keep):])
	h.retired = keep
}
