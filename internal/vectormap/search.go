package vectormap

import (
	"math/bits"
	"sync/atomic"
	"unsafe"
)

// The chunk kernels. Each is written once, generic over its block's key-cell
// type T, and each call branches once on the block's width to pick the
// instantiation, in the Cells method that calls it. The three cell
// types are distinct GC shapes, so each gets its own stenciled code, in
// which unsafe.Sizeof(T(0)) is a constant: the kernels pass it to the
// non-generic, inlined helpers (load, store, pivot, pair, cellOf, probe),
// whose width branches fold away. They call no method on T and no generic
// function, so nothing goes through the dictionary; -gcflags=-m reports
// each helper inlined once per instantiation. A kernel compares cells, never
// keys: cellOf resolves a key with another prefix against the whole block
// before any cell is read, and within one prefix unsigned cell order is key
// order (block.go). Unsorted scans read two 2-byte cells per 4-byte load.
//
// The sorted search is branchless, in the conditional-move shape ("Bridging
// Cache-Friendliness and Concurrency", and Khuong & Morin's branchless
// binary search): a binary search's branch per probe is a coin flip on a
// uniformly distributed key. Go's if-conversion pass declines to CMOV-ify
// conditional updates of loop-carried values, so each probe's comparison is
// a bits.Sub64 borrow (an intrinsic, one SUB/SBB pair) negated into an
// all-ones/zero mask that gates the base advance. The loop's only branch is
// its trip count, which depends solely on the size.
//
// Probes use raw offset arithmetic on the block's key-array base, with no
// bounds checks. The safety argument is exactly Cells.load's: every probe
// index stays in [0, s) and s is clamped to the capacity of the block being
// probed, which the caller loaded once, so a torn size, a replaced block or
// concurrently shifting keys can only yield garbage *values* (discarded when
// the seqlock validation fails), never an out-of-bounds access. The fuzz
// suite (FuzzLowerBound) proves the search equal to the textbook binary
// search (search_ref_test.go, test-only) on every non-decreasing array of
// every width, duplicates included, and in-bounds and terminating on
// arbitrary (torn, unsorted) array states.

// cell is a key-cell type: a block of 2-, 4- or 8-byte cells.
type cell interface{ uint16 | uint32 | uint64 }

// pivot loads the cell a search probes at i: cell i, or for 2-byte cells
// the high cell of word i.
func pivot(keys unsafe.Pointer, i, size uintptr) uint64 {
	if size == 2 {
		return uint64(atomic.LoadUint32((*uint32)(unsafe.Add(keys, i*4)))) >> 16
	}
	return load(keys, i, size)
}

// probe returns half when the cell x is < c, else 0: the branch-free
// advance amount.
func probe(x uint64, half uintptr, c uint64) uintptr {
	_, borrow := bits.Sub64(x, c, 0) // 1 iff x < c
	return half & -uintptr(borrow)
}

// stride is how many cells a scan takes per load (pair).
func stride(size uintptr) int { return 1 + int(size&2)/2 }

// pair loads the cells i and, for 2-byte cells, i+1 as x and y, in one load;
// y repeats x for wider cells and when i+1 = s, which leaves every scan's
// result as it is.
func pair(keys unsafe.Pointer, i, s int, size uintptr) (x, y uint64) {
	if size == 8 {
		x = atomic.LoadUint64((*uint64)(unsafe.Add(keys, uintptr(i)*8)))
		return x, x
	}
	w := uint64(atomic.LoadUint32((*uint32)(unsafe.Add(keys, uintptr(i)*size))))
	if x = w & (1<<(8*size) - 1); size == 4 || i+1 == s {
		return x, x
	}
	return x, w >> 16
}

// What find looks for among a block's first s keys.
const (
	lower = iota // the first position whose key is ≥ k, or s
	upper        // the first position whose key is > k, or s
	exact        // k's position in a sorted block, or -1
	scan         // k's position in an unsorted block, or -1
	below        // the position of the largest key ≤ k in an unsorted block, or -1
	above        // the position of the smallest key ≥ k in an unsorted block, or -1
)

// find is the search of a block in every mode. s must already be clamped to
// b's capacity (Cells.load). The upper bound of a cell c is the lower bound
// of c+1, unless c is the largest cell, which every key is ≤. The nearest
// key above k is the nearest below over complemented cells, whose order is
// reversed.
func find[T cell](b *block, k int64, s int, mode int) int {
	size := unsafe.Sizeof(T(0))
	c, side := b.cellOf(k, size)
	keys, i := b.keys(), 0
	switch {
	case mode == scan: // two 2-byte cells per load
		for ; i < s && side == 0; i += stride(size) {
			switch x, y := pair(keys, i, s, size); c {
			case x:
				return i
			case y:
				return i + 1
			}
		}
		return -1
	case mode >= below:
		mask, flip := uint64(1)<<(8*size)-1, uint64(0)
		if mode == above {
			flip, c, side = mask, c^mask, -side
		}
		switch {
		case side < 0:
			return -1
		case side > 0:
			c = mask // every key of the block is on k's side
		}
		best, bestC := -1, uint64(0)
		for ; i < s; i += stride(size) {
			x, y := pair(keys, i, s, size)
			if x ^= flip; x <= c && (best < 0 || x > bestC) {
				best, bestC = i, x
			}
			if y ^= flip; y <= c && (best < 0 || y > bestC) {
				best, bestC = i+1, y
			}
		}
		return best
	case side > 0 || mode == upper && side == 0 && c == 1<<(8*size)-1:
		i = s
	case side == 0 && s > 0:
		if mode == upper {
			c++
		}
		// Two probes per iteration: the trip count is ⌈log2 s⌉ total, so
		// the 2× unroll halves loop overhead for the 64-slot default without
		// bloating the small-chunk case. 2-byte cells are searched by whole
		// words, on each word's high cell, and the word found is then
		// settled on its low cell: every probe is an aligned load and a
		// constant shift.
		off, n := uintptr(0), uintptr(s)
		if size == 2 {
			n /= 2
		}
		for n > 1 {
			half := n >> 1
			off += probe(pivot(keys, off+half-1, size), half, c)
			n -= half
			if n > 1 {
				half = n >> 1
				off += probe(pivot(keys, off+half-1, size), half, c)
				n -= half
			}
		}
		if n == 1 {
			off += probe(pivot(keys, off, size), 1, c)
		}
		if size == 2 {
			if off *= 2; int(off) < s {
				off += probe(load(keys, off, 2), 1, c)
			}
		}
		i = int(off)
	}
	if mode == exact && (side != 0 || i >= s || load(keys, uintptr(i), size) != c) {
		return -1
	}
	return i
}

// top returns the largest of b's first s ≥ 1 keys, or with low the
// smallest, which is the largest over complemented cells.
func top[T cell](b *block, s int, low bool) int64 {
	size, keys, flip, c := unsafe.Sizeof(T(0)), b.keys(), uint64(0), uint64(0)
	if low {
		flip = 1<<(8*size) - 1
	}
	for i := 0; i < s; i += stride(size) {
		x, y := pair(keys, i, s, size)
		c = max(c, x^flip, y^flip)
	}
	return b.keyOf(c^flip, size)
}

// bounds returns the smallest and the largest of b's first s ≥ 1 keys.
func bounds[T cell](b *block, s int) (int64, int64) {
	size, keys := unsafe.Sizeof(T(0)), b.keys()
	lo, hi := ^uint64(0), uint64(0)
	for i := 0; i < s; i += stride(size) {
		x, y := pair(keys, i, s, size)
		lo, hi = min(lo, x, y), max(hi, x, y)
	}
	return b.keyOf(lo, size), b.keyOf(hi, size)
}

// shift moves the n key cells of b from src to dst = src±1, each read
// before it is overwritten, with one atomic load and store per cell.
func shift[T cell](b *block, dst, src, n int) {
	size, keys := unsafe.Sizeof(T(0)), b.keys()
	first, step := 0, 1
	if dst > src {
		first, step = n-1, -1
	}
	for i, j := 0, first; i < n; i, j = i+1, j+step {
		store(keys, uintptr(dst+j), size, load(keys, uintptr(src+j), size))
	}
}

// shift is the writers' width dispatch for the shift kernel. Every other
// kernel is dispatched where it is called, in the Cells methods, so that a
// read reaches its kernel in one call.
func (b *block) shift(dst, src, n int) {
	switch b.width() {
	case w2:
		shift[uint16](b, dst, src, n)
	case w4:
		shift[uint32](b, dst, src, n)
	default:
		shift[uint64](b, dst, src, n)
	}
}
