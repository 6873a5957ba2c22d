package vectormap

import (
	"math/bits"
	"sync/atomic"
	"unsafe"
)

// Branchless intra-chunk search. The sorted-chunk paths of indexOf, FindLE
// and FindGE were three near-identical binary searches, each taking a hard-
// to-predict branch per probe: on a uniformly distributed key every probe is
// a coin flip, so a 64-slot chunk costs ~6 probes × ~50% mispredicts on the
// hottest loop in the structure. This file replaces them with one shared
// lower/upper-bound core in the conditional-move shape ("Bridging Cache-
// Friendliness and Concurrency", and Khuong & Morin's branchless binary
// search). Go's if-conversion pass declines to CMOV-ify conditional updates
// of loop-carried values, so the select is spelled out arithmetically: each
// probe's signed comparison becomes a bits.Sub64 borrow (an intrinsic — one
// SUB/SBB pair) whose 0/1 result is negated into an all-ones/zero mask that
// gates the base advance. The loop thus has no data-dependent branches at
// all, only the trip count, which depends solely on the size.
//
// Bounds checks are hoisted out by construction rather than left to the
// compiler: probes use raw offset arithmetic on the block's key-array base.
// The safety argument is exactly chunk.load's: every probe index stays in
// [0, s) and s is clamped to the capacity of the block being probed, which
// the caller loaded once, so even a torn size, a replaced block or
// concurrently shifting keys can only yield garbage *values* (discarded when
// the seqlock validation fails), never an out-of-bounds access. The fuzz
// suite (FuzzLowerBound) proves the core equivalent to the textbook binary
// search on every non-decreasing array — duplicates included — and in-bounds
// and terminating on arbitrary (torn, unsorted) array states.
//
// That textbook search is test-only code (search_ref_test.go); nothing
// selects between the two at run time.

// cellSize is the stride of a wide block's key cells. atomic.Int64 is
// exactly its payload (the align64/noCopy markers are zero-sized), which the
// compile-time assertion below pins.
const cellSize = unsafe.Sizeof(atomic.Int64{})

var _ [1]struct{} = [cellSize / 8]struct{}{} // cellSize == 8

// signFlip maps int64 order onto uint64 order: a < b (signed) iff
// uint64(a)^signFlip < uint64(b)^signFlip (unsigned), which lets a probe's
// comparison be computed as the borrow of an unsigned subtract.
const signFlip = 1 << 63

// probeLT loads the wide key at cell index i and returns half when it is < k
// (with k pre-biased by signFlip), else 0 — the branch-free advance amount.
func probeLT(base unsafe.Pointer, i, half uintptr, kb uint64) uintptr {
	probe := uint64((*atomic.Int64)(unsafe.Add(base, i*cellSize)).Load()) ^ signFlip
	_, borrow := bits.Sub64(probe, kb, 0) // 1 iff probe < k
	return half & -uintptr(borrow)
}

// probeLE is probeLT's ≤ sibling: half when the key at i is ≤ k, else 0.
func probeLE(base unsafe.Pointer, i, half uintptr, kb uint64) uintptr {
	probe := uint64((*atomic.Int64)(unsafe.Add(base, i*cellSize)).Load()) ^ signFlip
	_, borrow := bits.Sub64(kb, probe, 0) // 1 iff k < probe
	return half & (uintptr(borrow) - 1)
}

// lowerBound returns the first position in [0, s) whose key is ≥ k, or s
// when no key qualifies, probing branchlessly (see the file comment). It
// branches once on the block's width: a narrow block's lower halves take the
// 32-bit probe. s must already be clamped to b's capacity (chunk.load); s ≤ 0
// returns 0.
func (b *block) lowerBound(k int64, s int) int {
	if s <= 0 {
		return 0
	}
	off, n := uintptr(0), uintptr(s)
	// Two probes per iteration: the trip count is ⌈log2 s⌉ total, so the 2×
	// unroll halves loop overhead for the 64-slot default without bloating
	// the small-chunk case.
	if b.narrow() {
		if i := b.outside(k, s); i >= 0 {
			return i
		}
		base, kl := unsafe.Pointer(b.lo(0)), uint32(k)
		for n > 1 {
			half := n >> 1
			off += probeLT32(base, off+half-1, half, kl)
			n -= half
			if n > 1 {
				half = n >> 1
				off += probeLT32(base, off+half-1, half, kl)
				n -= half
			}
		}
		return int(off + probeLT32(base, off, 1, kl))
	}
	base, kb := unsafe.Pointer(b.key(0)), uint64(k)^signFlip
	for n > 1 {
		half := n >> 1
		off += probeLT(base, off+half-1, half, kb)
		n -= half
		if n > 1 {
			half = n >> 1
			off += probeLT(base, off+half-1, half, kb)
			n -= half
		}
	}
	return int(off + probeLT(base, off, 1, kb))
}

// upperBound returns the first position in [0, s) whose key is > k, or s
// when no key qualifies. Same shape and safety argument as lowerBound; using
// a distinct ≤ comparison instead of lowerBound(k+1) sidesteps the k ==
// PosInf overflow.
func (b *block) upperBound(k int64, s int) int {
	if s <= 0 {
		return 0
	}
	off, n := uintptr(0), uintptr(s)
	if b.narrow() {
		if i := b.outside(k, s); i >= 0 {
			return i
		}
		base, kl := unsafe.Pointer(b.lo(0)), uint32(k)
		for n > 1 {
			half := n >> 1
			off += probeLE32(base, off+half-1, half, kl)
			n -= half
			if n > 1 {
				half = n >> 1
				off += probeLE32(base, off+half-1, half, kl)
				n -= half
			}
		}
		return int(off + probeLE32(base, off, 1, kl))
	}
	base, kb := unsafe.Pointer(b.key(0)), uint64(k)^signFlip
	for n > 1 {
		half := n >> 1
		off += probeLE(base, off+half-1, half, kb)
		n -= half
		if n > 1 {
			half = n >> 1
			off += probeLE(base, off+half-1, half, kb)
			n -= half
		}
	}
	return int(off + probeLE(base, off, 1, kb))
}

// The narrow kernels. Within a narrow block's upper half the lower halves
// sort as unsigned integers, so the probe compares them with no bias; a key
// with another upper half lies wholly before or after the block and
// resolves without a probe.

// probeLT32 is probeLT over the lower halves of a narrow block. Both halves
// widen to int64, where their difference is negative iff probe < k, so its
// arithmetic shift is the all-ones/zero mask (bits.Sub32 is no intrinsic).
func probeLT32(base unsafe.Pointer, i, half uintptr, kl uint32) uintptr {
	probe := (*atomic.Uint32)(unsafe.Add(base, i*loSize)).Load()
	return half & uintptr((int64(probe)-int64(kl))>>63)
}

// probeLE32 is probeLE over the lower halves of a narrow block.
func probeLE32(base unsafe.Pointer, i, half uintptr, kl uint32) uintptr {
	probe := (*atomic.Uint32)(unsafe.Add(base, i*loSize)).Load()
	return half &^ uintptr((int64(kl)-int64(probe))>>63) // kept iff k ≥ probe
}

// outside resolves k against a narrow block without a probe: it returns 0
// when k lies below the block's upper half, s when above, and -1 when k
// shares the block's upper half and must be searched for.
func (b *block) outside(k int64, s int) int {
	switch kh := hiOf(k); {
	case kh == b.hi:
		return -1
	case int32(kh) < int32(b.hi):
		return 0
	default:
		return s
	}
}

// The unsorted scans: each branches once on the block's width and then
// compares whole cells, lower halves only in a narrow block. Cells.indexOf
// holds the exact-match scan, so that Get pays no further call.

// floor returns the position of the largest of b's first s keys that is
// ≤ k, or -1.
func (b *block) floor(k int64, s int) int {
	best := -1
	if b.narrow() {
		kl := uint32(k)
		switch b.outside(k, s) {
		case 0:
			return -1
		case s:
			kl = ^uint32(0) // every key of the block is ≤ k
		}
		var bestLo uint32
		for i := 0; i < s; i++ {
			if l := b.lo(i).Load(); l <= kl && (best < 0 || l > bestLo) {
				best, bestLo = i, l
			}
		}
		return best
	}
	var bestKey int64
	for i := 0; i < s; i++ {
		if kk := b.key(i).Load(); kk <= k && (best < 0 || kk > bestKey) {
			best, bestKey = i, kk
		}
	}
	return best
}

// ceil returns the position of the smallest of b's first s keys that is
// ≥ k, or -1.
func (b *block) ceil(k int64, s int) int {
	best := -1
	if b.narrow() {
		kl := uint32(k)
		switch b.outside(k, s) {
		case s:
			return -1
		case 0:
			kl = 0 // every key of the block is ≥ k
		}
		var bestLo uint32
		for i := 0; i < s; i++ {
			if l := b.lo(i).Load(); l >= kl && (best < 0 || l < bestLo) {
				best, bestLo = i, l
			}
		}
		return best
	}
	var bestKey int64
	for i := 0; i < s; i++ {
		if kk := b.key(i).Load(); kk >= k && (best < 0 || kk < bestKey) {
			best, bestKey = i, kk
		}
	}
	return best
}

// minKey returns the smallest of b's first s ≥ 1 keys.
func (b *block) minKey(s int) int64 {
	if b.narrow() {
		lo := b.lo(0).Load()
		for i := 1; i < s; i++ {
			lo = min(lo, b.lo(i).Load())
		}
		return b.base() | int64(lo)
	}
	k := b.key(0).Load()
	for i := 1; i < s; i++ {
		k = min(k, b.key(i).Load())
	}
	return k
}

// maxKey returns the largest of b's first s ≥ 1 keys.
func (b *block) maxKey(s int) int64 {
	if b.narrow() {
		lo := b.lo(0).Load()
		for i := 1; i < s; i++ {
			lo = max(lo, b.lo(i).Load())
		}
		return b.base() | int64(lo)
	}
	k := b.key(0).Load()
	for i := 1; i < s; i++ {
		k = max(k, b.key(i).Load())
	}
	return k
}

// bounds returns the smallest and the largest of b's first s ≥ 1 keys.
func (b *block) bounds(s int) (minK, maxK int64) {
	if b.narrow() {
		lo := b.lo(0).Load()
		hi := lo
		for i := 1; i < s; i++ {
			l := b.lo(i).Load()
			lo, hi = min(lo, l), max(hi, l)
		}
		return b.base() | int64(lo), b.base() | int64(hi)
	}
	minK = b.key(0).Load()
	maxK = minK
	for i := 1; i < s; i++ {
		k := b.key(i).Load()
		minK, maxK = min(minK, k), max(maxK, k)
	}
	return minK, maxK
}
