package vectormap

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
