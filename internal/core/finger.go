package core

import (
	"skipvector/internal/chaos"
	"skipvector/internal/seqlock"
)

// The search finger is a per-context locality cache in the spirit of
// "finger search" skip lists: every operation that settles on a data-layer
// node remembers that node together with the seqlock version it validated.
// The next operation through the same context first asks whether its key
// still falls inside the remembered node's span; if so, it skips the whole
// top-down descent (descendToData) and resumes directly at the data layer —
// O(1) instead of O(log_T n) for the spatially local access patterns the
// paper's chunking already favours (cursors, range scans, Zipfian traffic,
// ascending bulk ingest).
//
// Safety: the finger's authoritative content is (node, version); everything
// else it carries (cached bounds, backoff counters) is heuristic. Nothing
// about the node is trusted until the next operation (a) publishes a hazard
// pointer for it and (b) revalidates the remembered version. The publication/validation order is
// the same as everywhere else in the traversal: under Go's sequentially
// consistent atomics, a successful validation proves no writer locked, froze,
// or released the node between record and seek, and any writer that retires
// the node afterwards must first lock it — changing the word forever, since
// sequence numbers grow monotonically across node lifetimes — and will then
// see the published hazard pointer during its reclamation scan. A validation
// failure (or a frozen/orphan/locked word at record time, or an out-of-span
// key) simply falls back to the full descent, so the finger can delay but
// never change any operation's outcome.
//
// Ownership is derived fresh at seek time instead of being cached: once the
// remembered node n is validated and its minimum is ≤ k, n is a legal start
// for the ordinary rightward walk (traverseRightN), which lands on the true
// owner — the rightmost node with minimum ≤ k — exactly as the last step of
// a descent does. The walk is bounded (fingerHops): keys in the gap past
// n.max (ascending ingest), on the successor (a cursor crossing a chunk
// boundary) or a few chunks further right (the next group of a sorted
// batch) resume without a descent; anything further is cheaper to descend
// to. This (node, version) pair is the only resume state an operation
// context keeps.

// finger remembers where the previous operation through a context finished.
//
// Two refinements keep the finger near-free when locality is absent:
//
//   - Bound caching: a validated probe caches the node's exact [lo, hi] key
//     bounds. They are trusted again only while the node's lock word still
//     equals ver (any modification bumps the word), which lets a run of
//     read-only operations on the same chunk skip the bounds read, and lets
//     a key out of reach (inReach) be rejected before any shared-memory
//     write.
//   - Probe backoff: every wasted probe (failed validation, a key beyond
//     reach, or a walk past the hop budget; see fingerMiss) doubles a skip
//     window, during which seeks decline to probe at all (two branches).
//     Any hit resets the window. Under uniform or scrambled-Zipfian traffic — where consecutive operations almost
//     never share a chunk — the finger quickly throttles itself to one probe
//     per 2^maxFingerPenalty operations, bounding its overhead to well under
//     a percent; when the workload turns local again the first successful
//     probe restores full eagerness.
type finger[V any] struct {
	node *node[V]
	ver  seqlock.Version
	lo   int64 // cached bounds, exact while node's word == ver
	hi   int64
	// hasBounds marks lo/hi as valid for ver. Cleared whenever the finger
	// moves to a new (node, ver) pair without a validated bounds read.
	hasBounds bool
	backoff   uint8 // probes still to skip
	penalty   uint8 // log2 of the next skip window
}

// maxFingerPenalty caps the probe backoff at one probe per 2^6-1 = 63
// operations: small enough to notice a workload turning local within tens of
// operations, large enough to make wasted probes statistically invisible.
const maxFingerPenalty = 6

// punish widens the skip window after a wasted full probe.
func (f *finger[V]) punish() {
	if f.penalty < maxFingerPenalty {
		f.penalty++
	}
	f.backoff = (1 << f.penalty) - 1
}

// fingerHops bounds the finger's rightward walk. Consecutive operations of
// a locality-bearing workload sit zero or one chunk apart (an empty orphan
// or a fresh split in between at worst); past a few hops a full descent is
// cheaper than the validated crawl.
const fingerHops = 4

// inReach reports whether k may be resolved from a node whose exact bounds
// are [lo, hi] within the hop budget. The node's own key span is a free
// density estimate for the chunks around it: when k lies past hi by more
// than fingerHops such spans, its owner is almost certainly out of reach (a
// uniform workload puts consecutive keys thousands of chunks apart). Both
// subtractions are non-negative under the guards, so the uint64 arithmetic
// is exact, and dividing by the span sidesteps overflow.
func inReach(lo, hi, k int64) bool {
	return lo <= k && (k <= hi || (uint64(k)-uint64(hi))/(uint64(hi)-uint64(lo)+1) <= fingerHops)
}

// fingerSeek tries to resume at the remembered data node and walk to the
// owner of k in the caller's traverse mode. On a hit the caller holds a
// hazard pointer on the returned node and a validated snapshot of its lock
// — exactly the postcondition of descendToData. On a miss nothing is held
// and the caller performs the full descent.
func (m *Map[V]) fingerSeek(ctx *opCtx[V], k int64, mode traverseMode) (*node[V], seqlock.Version, bool) {
	f := &ctx.fing
	n := f.node
	if n == nil {
		m.fingerMisses.add(ctx.stripe, 1)
		return nil, 0, false
	}
	if f.backoff > 0 {
		// Still backing off after wasted probes: decline without touching
		// the node (misses here include skipped probes by design).
		f.backoff--
		m.fingerMisses.add(ctx.stripe, 1)
		return nil, 0, false
	}
	// Reach reject on the cached bounds, before any shared-memory write: a
	// node's keys can only change under its lock, so if the bounds are
	// stale the reject is merely conservative (a miss is always safe).
	// inReach also checks k ≥ min, the walk's entry precondition: a
	// rightward walk can never correct a start that is already right of
	// the owner, and its stop test, k ≤ max, would happily return such a
	// node. The validation below proves cached bounds exact.
	if f.hasBounds && !inReach(f.lo, f.hi, k) {
		return m.fingerMiss(ctx, k > f.hi)
	}
	// Publish the hazard pointer first, then revalidate: a successful
	// validation proves the node was still live (not retired) when the
	// pointer became visible, so it is protected from here on.
	ctx.take(n)
	if chaos.Fail(chaos.CoreFinger) || !n.lock.Validate(f.ver) {
		f.node = nil // stale: the node changed (or was merged away) behind us
		return m.fingerMiss(ctx, true)
	}
	// n is unchanged since the finger was recorded, so its chunk reads below
	// are consistent — and cached bounds, taken under the same word, are
	// still exact and save the read.
	if !f.hasBounds {
		lo, hi, ok := n.chunk.Bounds()
		if !ok {
			return m.fingerMiss(ctx, true)
		}
		f.lo, f.hi, f.hasBounds = lo, hi, true
		if !inReach(lo, hi, k) {
			return m.fingerMiss(ctx, k > hi)
		}
	}
	curr, ver, ok := m.traverseRightN(ctx, n, f.ver, k, mode, fingerHops)
	if !ok {
		// Budget exhausted or a validation lost a race: nothing was locked
		// and nothing observed inconsistently, so no restart is charged.
		return m.fingerMiss(ctx, true)
	}
	f.penalty = 0
	m.fingerHits.add(ctx.stripe, 1)
	return curr, ver, true
}

// fingerMiss declines a probe: it drops every hazard pointer the probe
// published, counts the miss and, when punish is set, widens the skip
// window. Every miss punishes except a key below the finger's node: that is
// a session moving back (a cursor restarting, a batch after a lookup further
// right), which the descent it falls back to re-anchors, not a sign that
// locality is absent.
func (m *Map[V]) fingerMiss(ctx *opCtx[V], punish bool) (*node[V], seqlock.Version, bool) {
	ctx.dropAll()
	if punish {
		ctx.fing.punish()
	}
	m.fingerMisses.add(ctx.stripe, 1)
	return nil, 0, false
}

// recordFinger remembers the data node an operation finished on, for the
// next operation through the same context to resume from. n must be a
// data-layer node. ver must be a snapshot the caller just validated (or the
// return of Release/Abort on a lock it held, or a clean Current() word of a
// node the caller just published). Locked or frozen words are not recorded —
// the writer's release would invalidate them immediately. Orphan nodes ARE
// recorded: capacity splits leave long-lived orphans that are exactly the
// hot node of an ascending ingest, and a merge that absorbs one bumps its
// lock, so the next seek's validation detects it. Recording is O(1) —
// ownership is recomputed at seek time.
//
// recordFinger must not dereference n: callers may invoke it after dropping
// hazard protection, when a concurrent retire could already be recycling the
// node — its non-atomic fields may be mid-reinitialization. Only the pointer
// and the version are stored; nothing about the node is trusted until the
// next probe re-publishes a hazard pointer and revalidates ver (which a
// recycled node's monotonic lock word always fails).
func (m *Map[V]) recordFinger(ctx *opCtx[V], n *node[V], ver seqlock.Version) {
	if n == nil {
		return
	}
	if ver.Locked() || ver.Frozen() {
		return
	}
	f := &ctx.fing
	if f.node == n && f.ver == ver {
		return // unchanged — keep the cached bounds (and backoff state)
	}
	f.node, f.ver = n, ver
	f.hasBounds = false
}
