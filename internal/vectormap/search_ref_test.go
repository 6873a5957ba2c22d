package vectormap

import (
	"math/rand"
	"testing"
)

// lowerBoundRef is the textbook binary search the branchless core in
// search.go displaced, kept verbatim as the differential oracle of
// FuzzLowerBound and the "ref" column of BenchmarkChunkIndexOf.
func (b *block) lowerBoundRef(k int64, s int) int {
	lo, hi := 0, s
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b.loadKey(mid) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// upperBoundRef is the reference upper bound (first key > k).
func (b *block) upperBoundRef(k int64, s int) int {
	lo, hi := 0, s
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b.loadKey(mid) <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// getRef is Get's sorted-chunk path over lowerBoundRef, so the two columns of
// BenchmarkChunkIndexOf differ in the search and nothing else.
func (c *Chunk[P]) getRef(k int64) (*P, bool) {
	b, s := c.load()
	if i := b.lowerBoundRef(k, s); i < s && b.loadKey(i) == k {
		return (*P)(b.loadVal(i)), true
	}
	return nil, false
}

// TestLaneKernelsMatchReference holds the unsorted kernels, which read a
// word of lanes per load, to one-key-at-a-time loops over loadKey at every
// width and every size up to 40 (whole and part words of every lane count),
// with stale keys in the cells past the size and duplicates among the keys:
// scan finds the first match, below and above the first of the nearest keys,
// and top and bounds the ends. The probes lie inside the block's window,
// on its cells' extremes and outside it on both sides.
func TestLaneKernelsMatchReference(t *testing.T) {
	const capacity = 40
	rng := rand.New(rand.NewSource(1))
	for _, w := range []width{w8, w4, w2, w1} {
		mask := uint64(1)<<w.bits() - 1
		for s := 0; s <= capacity; s++ {
			for range 20 {
				base := int64(rng.Uint64() &^ mask)
				b := newBlock(capacity, false, w, span{base, base | int64(mask)})
				// A few distinct low parts make duplicates likely.
				lows := []uint64{0, mask, rng.Uint64() & mask, rng.Uint64() & mask, rng.Uint64() & mask}
				for i := range capacity {
					b.storeKey(i, base|int64(lows[rng.Intn(len(lows))]))
				}
				probes := []int64{base - 1, base + int64(mask) + 1}
				for _, l := range lows {
					probes = append(probes, base|int64(l), base|int64(l^1))
				}
				for _, k := range probes {
					scanRef, belowRef, aboveRef := -1, -1, -1
					for i := s - 1; i >= 0; i-- {
						ki := b.loadKey(i)
						if ki == k {
							scanRef = i
						}
						if ki <= k && (belowRef < 0 || ki >= b.loadKey(belowRef)) {
							belowRef = i
						}
						if ki >= k && (aboveRef < 0 || ki <= b.loadKey(aboveRef)) {
							aboveRef = i
						}
					}
					var c Cells
					for mode, want := range map[int]int{scan: scanRef, below: belowRef, above: aboveRef} {
						if got := c.indexOf(b, s, k, mode); got != want {
							t.Fatalf("%d-byte keys, s=%d, mode %d, key %d: position %d, want %d", w.bytes(), s, mode, k, got, want)
						}
					}
				}
				if s == 0 {
					continue
				}
				lo, hi := b.loadKey(0), b.loadKey(0)
				for i := 1; i < s; i++ {
					lo, hi = min(lo, b.loadKey(i)), max(hi, b.loadKey(i))
				}
				var gotLo, gotHi, minK, maxK int64
				switch w {
				case w1:
					gotLo, gotHi = bounds[uint8](b, s)
					minK, maxK = top[uint8](b, s, true), top[uint8](b, s, false)
				case w2:
					gotLo, gotHi = bounds[uint16](b, s)
					minK, maxK = top[uint16](b, s, true), top[uint16](b, s, false)
				case w4:
					gotLo, gotHi = bounds[uint32](b, s)
					minK, maxK = top[uint32](b, s, true), top[uint32](b, s, false)
				default:
					gotLo, gotHi = bounds[uint64](b, s)
					minK, maxK = top[uint64](b, s, true), top[uint64](b, s, false)
				}
				if gotLo != lo || gotHi != hi || minK != lo || maxK != hi {
					t.Fatalf("%d-byte keys, s=%d: bounds %d..%d, top %d..%d, want %d..%d",
						w.bytes(), s, gotLo, gotHi, minK, maxK, lo, hi)
				}
			}
		}
	}
}
