package main

import (
	"sync"
	"testing"
	"time"
)

// fakeMap is a correct ordered map behind one mutex, with three switchable
// faults. It stands in for the library so that the oracle itself is tested:
// a checker that accepts a broken map would make every "0 failed" worthless.
type fakeMap struct {
	mu      sync.Mutex
	present []bool

	dropUpsertOf int64 // acknowledge but do not apply the Upsert of this key
	staleOn      int64 // return a wrong value for the Lookup of this key
	swapScanAt   int64 // yield the first two keys of the RangeQuery from this key swapped
}

const noFault = -1

func newFakeMap(seed uint64) *fakeMap {
	f := &fakeMap{present: make([]bool, keySpace), dropUpsertOf: noFault, staleOn: noFault, swapScanAt: noFault}
	for k := int64(0); k < keySpace; k++ {
		f.present[k] = prefilled(seed, k)
	}
	return f
}

func (f *fakeMap) Close()                       {}
func (f *fakeMap) CheckInvariants() error       { return nil }
func (f *fakeMap) Counters() map[string]float64 { return nil }

// fakeTarget is the fake as a target; the fake itself is every thread's session.
type fakeTarget struct{ *fakeMap }

func (t fakeTarget) Session() session { return t.fakeMap }
func (t fakeTarget) Close() error     { return nil }

func (f *fakeMap) Len() int {
	n := 0
	f.Ascend(func(int64, uint64) bool { n++; return true })
	return n
}

func (f *fakeMap) Ascend(fn func(k int64, v uint64) bool) { f.RangeQuery(0, keySpace-1, fn) }

func (f *fakeMap) Lookup(k int64) (uint64, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if k == f.staleOn {
		return valueOf(k) + 2, f.present[k]
	}
	return valueOf(k), f.present[k]
}

func (f *fakeMap) Floor(k int64) (int64, uint64, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for ; k >= 0; k-- {
		if f.present[k] {
			return k, valueOf(k), true
		}
	}
	return 0, 0, false
}

func (f *fakeMap) Ceiling(k int64) (int64, uint64, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for ; k < keySpace; k++ {
		if f.present[k] {
			return k, valueOf(k), true
		}
	}
	return 0, 0, false
}

func (f *fakeMap) put(k int64, present bool) (was bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	was = f.present[k]
	f.present[k] = present
	return was
}

func (f *fakeMap) Insert(k int64, _ uint64) (bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.present[k] {
		return false, nil
	}
	f.present[k] = true
	return true, nil
}

func (f *fakeMap) Upsert(k int64, _ uint64) (bool, error) {
	if k == f.dropUpsertOf {
		f.mu.Lock()
		defer f.mu.Unlock()
		return !f.present[k], nil
	}
	return !f.put(k, true), nil
}

func (f *fakeMap) Remove(k int64) (bool, error) { return f.put(k, false), nil }

func (f *fakeMap) UpsertBatch(keys []int64, _ []uint64, inserted []bool) error {
	for i, k := range keys {
		inserted[i] = !f.put(k, true)
	}
	return nil
}

func (f *fakeMap) RangeQuery(lo, hi int64, fn func(k int64, v uint64) bool) {
	f.mu.Lock()
	var keys []int64
	for k := lo; k <= hi && k < keySpace; k++ {
		if f.present[k] {
			keys = append(keys, k)
		}
	}
	f.mu.Unlock()
	if lo == f.swapScanAt && len(keys) >= 2 {
		keys[0], keys[1] = keys[1], keys[0]
	}
	for _, k := range keys {
		if !fn(k, valueOf(k)) {
			return
		}
	}
}

func (f *fakeMap) CursorWalk(start int64, steps int, fn func(k int64, v uint64) bool) {
	for i := 0; i < steps; i++ {
		k, v, ok := f.Ceiling(start)
		if !ok || !fn(k, v) {
			return
		}
		start = k + 1
	}
}

// judgeFake runs the op lists against the fake and returns how many ops the
// oracle failed, the end-of-run sweep included.
func judgeFake(f *fakeMap, seed uint64, lists [][]op) int {
	stripes := make([]*stripe, threads)
	runners := make([]*runner, threads)
	for t := range runners {
		stripes[t] = newStripe(seed, t)
		runners[t] = newRunner(t, lists[t], stripes[t], 16, false)
		runners[t].tg, runners[t].s = fakeTarget{f}, f
	}
	drive(runners, time.Minute)
	failed, _ := sweep(fakeTarget{f}, stripes)
	for _, r := range runners {
		failed += r.failed
	}
	return failed
}

// A correct map passes every workload's traffic with zero failed ops.
func TestOracleAcceptsCorrectMap(t *testing.T) {
	for _, w := range workloads {
		lists := make([][]op, threads)
		for th := range lists {
			lists[th] = genOps(w, 3, 0, th, 3000)
		}
		if failed := judgeFake(newFakeMap(3), 3, lists); failed != 0 {
			t.Errorf("%s: correct map failed %d ops", w.name, failed)
		}
	}
}

// A map that drops one write, returns one stale value and yields one scan key
// out of order fails exactly three ops: the lost key at the sweep, the lookup,
// and the scan.
func TestOracleCatchesEachFault(t *testing.T) {
	const seed = 5
	free := func(from int64, present bool) int64 { // first thread-0 key ≥ from in the given state
		for k := own(from, 0); ; k += threads {
			if prefilled(seed, k) == present {
				return k
			}
		}
	}
	dropped, stale, scanAt := free(1000, false), free(5000, true), int64(9000)
	lists := [][]op{
		{
			{opLookup, int32(stale)}, {opUpsert, int32(dropped)}, {opRange, int32(scanAt)},
			{opInsert, int32(free(20000, false))}, {opRemove, int32(free(30000, true))},
			{opCursor, 40000}, {opBatchSeq, 50000}, {opFloor, 60001}, {opCeiling, 60001},
		},
		{{opLookup, 70001}, {opUpsert, 70003}, {opRange, 80000}, {opBatchRand, 90001}},
	}

	if failed := judgeFake(newFakeMap(seed), seed, lists); failed != 0 {
		t.Fatalf("correct map failed %d ops on the hand-built lists", failed)
	}
	for _, c := range []struct {
		name   string
		break_ func(f *fakeMap)
		want   int
	}{
		{"dropped write", func(f *fakeMap) { f.dropUpsertOf = dropped }, 1},
		{"stale value", func(f *fakeMap) { f.staleOn = stale }, 1},
		{"out-of-order scan", func(f *fakeMap) { f.swapScanAt = scanAt }, 1},
		{"all three", func(f *fakeMap) { f.dropUpsertOf, f.staleOn, f.swapScanAt = dropped, stale, scanAt }, 3},
	} {
		f := newFakeMap(seed)
		c.break_(f)
		if failed := judgeFake(f, seed, lists); failed != c.want {
			t.Errorf("%s: %d failed ops, want %d", c.name, failed, c.want)
		}
	}
}
