package vectormap

import (
	"math/bits"
	"sync/atomic"
	"unsafe"
)

// The chunk kernels. Each is written once, generic over its block's key-cell
// type T, and each call branches once on the block's width to pick the
// instantiation, in the Cells method that calls it. The four cell
// types are distinct GC shapes, so each gets its own stenciled code, in
// which unsafe.Sizeof(T(0)) is a constant: the kernels pass it to the
// non-generic, inlined helpers (load, store, pivot, probe, lanesAt, tail,
// lane, cellOf), whose width branches fold away. They call no method on T
// and no generic function, so nothing goes through the dictionary;
// scripts/inline-check.sh fails unless -gcflags=-m reports each helper
// inlined once per instantiation. A kernel compares cells, never keys:
// cellOf resolves a key outside the block's window against the whole block
// before any cell is read, and inside the window a cell is the key's offset
// from the window's base, so unsigned cell order is key order (block.go).
//
// The unsorted scans run one lane loop: each aligned 4-byte word is loaded
// once and its four 1-byte or two 2-byte lanes are tested in registers (a
// wider cell is a lane of its own), the last word's lanes past the size
// replaced by copies of its first (tail). The exact-match scan tests all
// lanes of a word at once with the zero-lane test of Hacker's Delight
// (ch. 6); the nearest-key scans and top and bounds take the lanes in turn,
// a lane count fixed per width.
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
// the seqlock validation fails), never an out-of-bounds access. A word
// holding a cell below s lies wholly inside the key array, which is padded
// to whole 8-byte words; its lanes at or past s are never read as keys. The fuzz
// suite (FuzzLowerBound) proves the search equal to the textbook binary
// search (search_ref_test.go, test-only) on every non-decreasing array of
// every width, duplicates included, and in-bounds and terminating on
// arbitrary (torn, unsorted) array states.

// cell is a key-cell type: a block of 1-, 2-, 4- or 8-byte cells.
type cell interface {
	uint8 | uint16 | uint32 | uint64
}

// lanes is how many cells one load of a scan reads: the 4/size cells of an
// aligned 4-byte word for cells narrower than 4 bytes, else the one cell.
func lanes(size uintptr) int {
	if size < 4 {
		return int(4 / size)
	}
	return 1
}

// lanesAt loads the cells from i, a multiple of lanes(size), in one load:
// lane j of the word, in the bits from 8·size·j, is cell i+j. The lanes of
// the last word at or past s hold a stale cell or padding: a kernel passes
// that word through tail.
func lanesAt(keys unsafe.Pointer, i int, size uintptr) uint64 {
	if size == 8 {
		return atomic.LoadUint64((*uint64)(unsafe.Add(keys, uintptr(i)*8)))
	}
	return uint64(atomic.LoadUint32((*uint32)(unsafe.Add(keys, uintptr(i)*size))))
}

// tail is the word w of size-byte cells with its lanes from n on replaced
// by copies of lane 0: a repeat of a cell below s changes no maximum,
// minimum, nearest key or first match.
func tail(w uint64, n int, size uintptr) uint64 {
	keep := uint64(1)<<(8*size*uintptr(n)) - 1
	return w&keep | lane(w, 0, size)*ones(size)&^keep
}

// lane is lane j of w, a word of size-byte cells from lanesAt.
func lane(w uint64, j int, size uintptr) uint64 {
	return w >> (8 * size * uintptr(j)) & (1<<(8*size) - 1)
}

// nearer is the search below's step over the cell x at position i: the
// position and cell of the largest cell ≤ c so far, the first of equals.
func nearer(best int, bestC uint64, i int, x, c uint64) (int, uint64) {
	if x <= c && (best < 0 || x > bestC) {
		return i, x
	}
	return best, bestC
}

// ones has the low bit of every lane of a word of size-byte cells set.
func ones(size uintptr) uint64 {
	switch size {
	case 1:
		return 0x0101_0101
	case 2:
		return 0x0001_0001
	}
	return 1
}

// pivot loads the cell a search probes at i: cell i, or for cells narrower
// than 4 bytes the high lane of word i.
func pivot(keys unsafe.Pointer, i, size uintptr) uint64 {
	if size < 4 {
		return uint64(atomic.LoadUint32((*uint32)(unsafe.Add(keys, i*4)))) >> (32 - 8*size)
	}
	return load(keys, i, size)
}

// probe returns half when the cell x is < c, else 0: the branch-free
// advance amount.
func probe(x uint64, half uintptr, c uint64) uintptr {
	_, borrow := bits.Sub64(x, c, 0) // 1 iff x < c
	return half & -uintptr(borrow)
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
	mask := uint64(1)<<(8*size) - 1
	c, side := b.cellOf(k, size)
	keys, i := b.keys(), 0
	switch {
	case mode == scan:
		if side != 0 {
			return -1
		}
		// The zero-lane test of Hacker's Delight (ch. 6) on w ^ c in every
		// lane of each word: a lane's high bit is flagged when the lane is
		// 0, and a borrow out of a zero lane can flag lanes above it, never
		// below, so the lowest flag is exact.
		lo, per := ones(size), lanes(size)
		hi, bc := lo<<(8*size-1), c*lo
		for ; i < s; i += per {
			w := lanesAt(keys, i, size)
			if per > 1 && s-i < per {
				w = tail(w, s-i, size)
			}
			if t := w ^ bc; (t-lo)&^t&hi != 0 {
				return i + bits.TrailingZeros64((t-lo)&^t&hi)/(8*int(size))
			}
		}
		return -1
	case mode >= below:
		flip := uint64(0)
		if mode == above {
			flip, c, side = mask, c^mask, -side
		}
		switch {
		case side < 0:
			return -1
		case side > 0:
			c = mask // every key of the block is on k's side
		}
		best, bestC, per := -1, uint64(0), lanes(size)
		for ; i < s; i += per {
			w := lanesAt(keys, i, size)
			if per > 1 && s-i < per {
				w = tail(w, s-i, size)
			}
			w ^= flip * ones(size)
			best, bestC = nearer(best, bestC, i, lane(w, 0, size), c)
			if per > 1 {
				best, bestC = nearer(best, bestC, i+1, lane(w, 1, size), c)
			}
			if per > 2 {
				best, bestC = nearer(best, bestC, i+2, lane(w, 2, size), c)
				best, bestC = nearer(best, bestC, i+3, lane(w, 3, size), c)
			}
		}
		return best
	case side > 0 || mode == upper && side == 0 && c == mask:
		i = s
	case side == 0 && s > 0:
		if mode == upper {
			c++
		}
		// Two probes per iteration: the trip count is ⌈log2 s⌉ total, so
		// the 2× unroll halves loop overhead for the 64-slot default without
		// bloating the small-chunk case. Cells narrower than 4 bytes are
		// searched by whole words, on each word's high lane, and the word
		// found is then settled in ⌈log2 lanes⌉ probes of its other lanes:
		// every load is an aligned word.
		per := uintptr(lanes(size))
		off, n := uintptr(0), uintptr(s)/per
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
		if off *= per; per > 1 && int(off) < s {
			// Every key of a whole word below off is < c and its high
			// lane is ≥ c. A last word short of s has its lanes at or past
			// s read as the largest cell, which no c exceeds.
			w := lanesAt(keys, int(off), size) | ^uint64(0)<<(8*size*(uintptr(s)-off))
			j := uintptr(0)
			for half := per / 2; half > 0; half /= 2 {
				j += probe(w>>(8*size*(j+half-1))&mask, half, c)
			}
			off += j
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
	mask := uint64(1)<<(8*size) - 1
	if low {
		flip = mask
	}
	for i, per := 0, lanes(size); i < s; i += per {
		w := lanesAt(keys, i, size)
		if per > 1 && s-i < per {
			w = tail(w, s-i, size)
		}
		w ^= flip * ones(size)
		c = max(c, lane(w, 0, size))
		if per > 1 {
			c = max(c, lane(w, 1, size))
		}
		if per > 2 {
			c = max(c, lane(w, 2, size), lane(w, 3, size))
		}
	}
	return b.keyOf(c^flip, size)
}

// bounds returns the smallest and the largest of b's first s ≥ 1 keys.
func bounds[T cell](b *block, s int) (int64, int64) {
	size, keys := unsafe.Sizeof(T(0)), b.keys()
	lo, hi := ^uint64(0), uint64(0)
	for i, per := 0, lanes(size); i < s; i += per {
		w := lanesAt(keys, i, size)
		if per > 1 && s-i < per {
			w = tail(w, s-i, size)
		}
		lo, hi = min(lo, lane(w, 0, size)), max(hi, lane(w, 0, size))
		if per > 1 {
			lo, hi = min(lo, lane(w, 1, size)), max(hi, lane(w, 1, size))
		}
		if per > 2 {
			lo, hi = min(lo, lane(w, 2, size), lane(w, 3, size)), max(hi, lane(w, 2, size), lane(w, 3, size))
		}
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
	case w1:
		shift[uint8](b, dst, src, n)
	case w2:
		shift[uint16](b, dst, src, n)
	case w4:
		shift[uint32](b, dst, src, n)
	default:
		shift[uint64](b, dst, src, n)
	}
}
