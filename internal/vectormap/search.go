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

// cellSize is the stride of the probe pointer arithmetic. atomic.Int64 is
// exactly its payload (the align64/noCopy markers are zero-sized), which the
// compile-time assertion below pins.
const cellSize = unsafe.Sizeof(atomic.Int64{})

var _ [1]struct{} = [cellSize / 8]struct{}{} // cellSize == 8

// signFlip maps int64 order onto uint64 order: a < b (signed) iff
// uint64(a)^signFlip < uint64(b)^signFlip (unsigned), which lets a probe's
// comparison be computed as the borrow of an unsigned subtract.
const signFlip = 1 << 63

// probeLT loads the key at cell index i and returns half when it is < k
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
// when no key qualifies, probing branchlessly (see the file comment). s must
// already be clamped to b's capacity (chunk.load); s ≤ 0 returns 0.
func (b *block) lowerBound(k int64, s int) int {
	if s <= 0 {
		return 0
	}
	base := unsafe.Pointer(b.key(0))
	kb := uint64(k) ^ signFlip
	off, n := uintptr(0), uintptr(s)
	// Two probes per iteration: the trip count is ⌈log2 s⌉ total, so the 2×
	// unroll halves loop overhead for the 64-slot default without bloating
	// the small-chunk case.
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
	off += probeLT(base, off, 1, kb)
	return int(off)
}

// upperBound returns the first position in [0, s) whose key is > k, or s
// when no key qualifies. Same shape and safety argument as lowerBound; using
// a distinct ≤ comparison instead of lowerBound(k+1) sidesteps the k ==
// PosInf overflow.
func (b *block) upperBound(k int64, s int) int {
	if s <= 0 {
		return 0
	}
	base := unsafe.Pointer(b.key(0))
	kb := uint64(k) ^ signFlip
	off, n := uintptr(0), uintptr(s)
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
	off += probeLE(base, off, 1, kb)
	return int(off)
}
