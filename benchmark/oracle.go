package main

// The oracle. Thread t is the only writer of keys k ≡ t (mod threads), so it
// knows exactly which of its own keys are present at every instant and can
// judge every result that touches them; results on the other thread's stripe
// are judged by what holds at any instant: a present key maps to valueOf(key),
// and scans ascend inside their bounds.

// stripe is the set of thread t's keys that are in the map.
type stripe struct {
	t    int
	bits []uint64
}

func newStripe(seed uint64, t int) *stripe {
	s := &stripe{t: t, bits: make([]uint64, keySpace/threads/64)}
	for k := int64(t); k < keySpace; k += threads {
		if prefilled(seed, k) {
			s.set(k, true)
		}
	}
	return s
}

func (s *stripe) owns(k int64) bool { return k >= 0 && k < keySpace && int(k%threads) == s.t }

func (s *stripe) has(k int64) bool {
	i := uint64(k / threads)
	return s.bits[i/64]>>(i%64)&1 == 1
}

// set records the key as present or absent and reports whether it was present.
func (s *stripe) set(k int64, present bool) bool {
	i := uint64(k / threads)
	was := s.bits[i/64]>>(i%64)&1 == 1
	if present {
		s.bits[i/64] |= 1 << (i % 64)
	} else {
		s.bits[i/64] &^= 1 << (i % 64)
	}
	return was
}

// count returns how many own keys lie in [lo, hi].
func (s *stripe) count(lo, hi int64) int {
	n := 0
	for k := s.ceil(lo); k <= hi && k < keySpace; k += threads {
		if s.has(k) {
			n++
		}
	}
	return n
}

// ceil is the smallest own key ≥ k, present or not.
func (s *stripe) ceil(k int64) int64 {
	if k < 0 {
		k = 0
	}
	return k + (int64(s.t)-k%threads+threads)%threads
}

// median returns the own present key with as many own present keys of
// (lo, hi) below it as above it — the split point handed to SplitShard.
func (s *stripe) median(lo, hi int64) int64 {
	half := s.count(lo+1, hi-1) / 2
	for k := s.ceil(lo + 1); k < hi; k += threads {
		if s.has(k) {
			if half == 0 {
				return k
			}
			half--
		}
	}
	return (lo + hi) / 2
}

// checker judges one thread's results. Each method returns true when the
// result is one the map could correctly have given.
type checker struct{ own *stripe }

func (c *checker) lookup(k int64, v uint64, found bool) bool {
	if found && v != valueOf(k) {
		return false
	}
	return !c.own.owns(k) || found == c.own.has(k)
}

func (c *checker) floor(k, rk int64, v uint64, found bool) bool {
	if !found {
		return c.own.count(0, k) == 0
	}
	return rk >= 0 && rk <= k && v == valueOf(rk) &&
		(!c.own.owns(rk) || c.own.has(rk)) && c.own.count(rk+1, k) == 0
}

func (c *checker) ceiling(k, rk int64, v uint64, found bool) bool {
	if !found {
		return c.own.count(k, keySpace-1) == 0
	}
	return rk >= k && rk < keySpace && v == valueOf(rk) &&
		(!c.own.owns(rk) || c.own.has(rk)) && c.own.count(k, rk-1) == 0
}

func (c *checker) insert(k int64, inserted bool) bool { return inserted == !c.own.set(k, true) }
func (c *checker) remove(k int64, removed bool) bool  { return removed == c.own.set(k, false) }

func (c *checker) batch(keys []int64, inserted []bool) bool {
	ok := true
	for i, k := range keys {
		if inserted[i] == c.own.set(k, true) {
			ok = false
		}
	}
	return ok
}

// scan judges a RangeQuery or Cursor walk as its keys arrive. Own-stripe keys
// must be exactly the model's: only this thread changes them, and it is busy
// scanning.
type scan struct {
	c       *checker
	lo, hi  int64
	last    int64
	ownSeen int
	bad     bool
}

func (c *checker) beginScan(lo, hi int64) scan { return scan{c: c, lo: lo, hi: hi, last: lo - 1} }

func (s *scan) visit(k int64, v uint64) bool {
	if k <= s.last || k > s.hi || v != valueOf(k) {
		s.bad = true
	}
	if s.c.own.owns(k) {
		s.ownSeen++
		if !s.c.own.has(k) {
			s.bad = true
		}
	}
	s.last = k
	return true
}

// end closes a scan that covered [lo, through].
func (s *scan) end(through int64) bool {
	return !s.bad && s.ownSeen == s.c.own.count(s.lo, through)
}

// sweep compares the quiescent map with the merged model of all stripes and
// returns the number of keys on which they disagree, plus one if Len is not
// the number of keys Ascend yields and one for a failed invariant check.
func sweep(tg target, stripes []*stripe) (mismatches int, err error) {
	yielded := 0
	next := int64(0) // smallest key not yet accounted for
	present := func(k int64) bool { return stripes[k%threads].has(k) }
	tg.Ascend(func(k int64, v uint64) bool {
		yielded++
		if k < next || k >= keySpace {
			mismatches++ // out of order, duplicate or out of range
			return true
		}
		for ; next < k; next++ {
			if present(next) {
				mismatches++ // lost key
			}
		}
		if !present(k) || v != valueOf(k) {
			mismatches++ // phantom key or wrong value
		}
		next = k + 1
		return true
	})
	for ; next < keySpace; next++ {
		if present(next) {
			mismatches++
		}
	}
	if tg.Len() != yielded {
		mismatches++
	}
	if err = tg.CheckInvariants(); err != nil {
		mismatches++
	}
	return mismatches, err
}
