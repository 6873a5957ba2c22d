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
// Ownership is derived fresh at seek time from the validated chunk instead of
// being cached: the data layer partitions the key space, so an unchanged node
// n owns exactly [n.min, succ(n).min), and succ(n).min cannot decrease while
// n's word is unchanged (linking or merging a successor requires locking n).
// Keys in (n.max, succ(n).min) — the common case for ascending ingest — are
// resolved with one extra validated read of the successor's minimum.

// finger remembers where the previous operation through a context finished.
//
// Two refinements keep the finger near-free when locality is absent:
//
//   - Bound caching: a successful probe caches the node's exact [lo, hi] key
//     bounds. They are trusted again only while the node's lock word still
//     equals ver (any modification bumps the word), which lets a run of
//     read-only operations on the same chunk skip the O(T_D) bounds scan —
//     a probe is then one load, one compare against the word, and two key
//     compares.
//   - Probe backoff: every wasted full probe (failed validation or
//     out-of-span key) doubles a skip window, during which seeks decline to
//     probe at all (two branches). Any hit resets the window. Under uniform
//     or scrambled-Zipfian traffic — where consecutive operations almost
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

// fingerMode selects the ownership test fingerSeek applies.
type fingerMode int

const (
	// fingerPoint requires the key to lie strictly inside the remembered
	// node's span: [min, succMin).
	fingerPoint fingerMode = iota
	// fingerScan additionally accepts key == succMin: Ceiling walks right
	// hand-over-hand anyway, so starting one node early is still O(1) and
	// lets sequential scans cross chunk boundaries without a descent.
	fingerScan
	// fingerRemove excludes key == min: removing a node's minimum must take
	// the full descent, because the key may own an index tower that only the
	// top-down pass can find and unlink.
	fingerRemove
)

// fingerSeek tries to resume at the remembered data node. On a hit the
// caller holds a hazard pointer on the returned node and a validated
// snapshot of its lock — exactly the postcondition of descendToData. On a
// miss nothing is held and the caller performs the full descent.
func (m *Map[V]) fingerSeek(ctx *opCtx[V], k int64, mode fingerMode) (*node[V], seqlock.Version, bool) {
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
	// Quick reject on the cached lower bound, before any shared-memory
	// write: a node's minimum can only change under its lock, so if the
	// bounds are stale the reject is merely conservative (a miss is always
	// safe). Keys above hi are NOT rejected here — they may sit in the gap
	// before the successor (the ascending-ingest case) and need the probe.
	if f.hasBounds && k < f.lo {
		m.fingerMisses.add(ctx.stripe, 1)
		return nil, 0, false
	}
	// Publish the hazard pointer first, then revalidate: a successful
	// validation proves the node was still live (not retired) when the
	// pointer became visible, so it is protected from here on.
	ctx.take(n)
	if chaos.Fail(chaos.CoreFinger) || !n.lock.Validate(f.ver) {
		ctx.drop(n)
		f.node = nil // stale: the node changed (or was merged away) behind us
		f.punish()
		m.fingerMisses.add(ctx.stripe, 1)
		return nil, 0, false
	}
	// n is unchanged since the finger was recorded, so its chunk reads below
	// are consistent — and cached bounds, taken under the same word, are
	// still exact and save the scan.
	var minK, maxK int64
	if f.hasBounds {
		minK, maxK = f.lo, f.hi
	} else {
		var ok bool
		minK, maxK, ok = n.chunk.Bounds()
		if !ok {
			ctx.drop(n)
			f.punish()
			m.fingerMisses.add(ctx.stripe, 1)
			return nil, 0, false
		}
		f.lo, f.hi, f.hasBounds = minK, maxK, true
	}
	if k < minK || (mode == fingerRemove && k == minK) {
		ctx.drop(n)
		f.punish()
		m.fingerMisses.add(ctx.stripe, 1)
		return nil, 0, false
	}
	if k > maxK {
		// k may still belong to n if it falls in the gap before the
		// successor's minimum. One validated read of succ.min decides; the
		// final revalidation of n proves succ was n's successor throughout.
		// The successor follows the usual exposure rule: publish its hazard
		// pointer, revalidate n (unlinking the successor would have locked
		// n), and only then dereference it.
		next := n.next.Load()
		hit := false
		if next != nil {
			ctx.take(next)
			if n.lock.Validate(f.ver) {
				if nv, ok := next.lock.ReadVersion(); ok {
					if nm, has := next.minKey(); has && next.lock.Validate(nv) && n.lock.Validate(f.ver) {
						hit = k < nm || (mode == fingerScan && k == nm)
					}
				}
			}
			ctx.drop(next)
		}
		if !hit {
			ctx.drop(n)
			f.punish()
			m.fingerMisses.add(ctx.stripe, 1)
			return nil, 0, false
		}
	}
	f.penalty = 0
	m.fingerHits.add(ctx.stripe, 1)
	return n, f.ver, true
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
