package vectormap

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func newChunk(t *testing.T, target int, sorted bool) *Chunk[int64] {
	t.Helper()
	var c Chunk[int64]
	c.Init(target, sorted)
	return &c
}

func val(x int64) *int64 { return &x }

func bothPolicies(t *testing.T, fn func(t *testing.T, sorted bool)) {
	t.Run("sorted", func(t *testing.T) { fn(t, true) })
	t.Run("unsorted", func(t *testing.T) { fn(t, false) })
}

func TestInitCapacity(t *testing.T) {
	c := newChunk(t, 8, true)
	if c.Cap() != 16 {
		t.Fatalf("Cap = %d, want 16", c.Cap())
	}
	if c.Size() != 0 {
		t.Fatalf("Size = %d, want 0", c.Size())
	}
	if c.Full() {
		t.Fatal("fresh chunk reported full")
	}
}

func TestInitRejectsBadTarget(t *testing.T) {
	for _, target := range []int{0, MaxTarget + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for targetSize %d", target)
				}
			}()
			var c Chunk[int64]
			c.Init(target, true)
		}()
	}
	var c Chunk[int64]
	c.Init(MaxTarget, true)
	if got := c.Cap(); got != 2*MaxTarget {
		t.Fatalf("Cap() at MaxTarget = %d, want %d", got, 2*MaxTarget)
	}
}

func TestInsertGetRemove(t *testing.T) {
	bothPolicies(t, func(t *testing.T, sorted bool) {
		c := newChunk(t, 8, sorted)
		keys := []int64{5, 1, 9, 3, 7}
		for _, k := range keys {
			if !c.Insert(k, val(k*10)) {
				t.Fatalf("Insert(%d) = false", k)
			}
		}
		if c.Insert(5, val(0)) {
			t.Fatal("duplicate Insert should fail")
		}
		if c.Size() != len(keys) {
			t.Fatalf("Size = %d, want %d", c.Size(), len(keys))
		}
		for _, k := range keys {
			v, ok := c.Get(k)
			if !ok || *v != k*10 {
				t.Fatalf("Get(%d) = %v,%t", k, v, ok)
			}
		}
		if _, ok := c.Get(4); ok {
			t.Fatal("Get(4) should miss")
		}
		if v, ok := c.Remove(3); !ok || *v != 30 {
			t.Fatalf("Remove(3) = %v,%t", v, ok)
		}
		if _, ok := c.Remove(3); ok {
			t.Fatal("double Remove should fail")
		}
		if c.Contains(3) {
			t.Fatal("removed key still present")
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSetUpdatesPayload(t *testing.T) {
	bothPolicies(t, func(t *testing.T, sorted bool) {
		c := newChunk(t, 4, sorted)
		c.Insert(1, val(10))
		if !c.Set(1, val(99)) {
			t.Fatal("Set on present key failed")
		}
		if v, _ := c.Get(1); *v != 99 {
			t.Fatalf("after Set, Get = %d", *v)
		}
		if c.Set(2, val(0)) {
			t.Fatal("Set on absent key should fail")
		}
	})
}

func TestMinMaxKey(t *testing.T) {
	bothPolicies(t, func(t *testing.T, sorted bool) {
		c := newChunk(t, 8, sorted)
		if _, ok := c.MinKey(); ok {
			t.Fatal("MinKey on empty chunk should fail")
		}
		if _, ok := c.MaxKey(); ok {
			t.Fatal("MaxKey on empty chunk should fail")
		}
		for _, k := range []int64{42, -7, 100, 0} {
			c.Insert(k, val(k))
		}
		if minK, _ := c.MinKey(); minK != -7 {
			t.Fatalf("MinKey = %d, want -7", minK)
		}
		if maxK, _ := c.MaxKey(); maxK != 100 {
			t.Fatalf("MaxKey = %d, want 100", maxK)
		}
	})
}

func TestFindLE(t *testing.T) {
	bothPolicies(t, func(t *testing.T, sorted bool) {
		c := newChunk(t, 8, sorted)
		for _, k := range []int64{10, 20, 30, 40} {
			c.Insert(k, val(k))
		}
		cases := []struct {
			q      int64
			want   int64
			wantOK bool
		}{
			{5, 0, false},
			{10, 10, true},
			{15, 10, true},
			{40, 40, true},
			{99, 40, true},
		}
		for _, tc := range cases {
			k, v, ok := c.FindLE(tc.q)
			if ok != tc.wantOK || (ok && k != tc.want) {
				t.Fatalf("FindLE(%d) = %d,%t want %d,%t", tc.q, k, ok, tc.want, tc.wantOK)
			}
			if ok && *v != tc.want {
				t.Fatalf("FindLE(%d) payload = %d", tc.q, *v)
			}
		}
		empty := newChunk(t, 4, sorted)
		if _, _, ok := empty.FindLE(5); ok {
			t.Fatal("FindLE on empty chunk should fail")
		}
	})
}

func TestInsertFullPanics(t *testing.T) {
	c := newChunk(t, 1, true)
	c.Insert(1, val(1))
	c.Insert(2, val(2))
	if !c.Full() {
		t.Fatal("chunk should be full")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Insert into full chunk")
		}
	}()
	c.Insert(3, val(3))
}

func TestMoveGreaterTo(t *testing.T) {
	bothPolicies(t, func(t *testing.T, sorted bool) {
		c := newChunk(t, 8, sorted)
		dst := newChunk(t, 8, sorted)
		for _, k := range []int64{10, 20, 30, 40, 50} {
			c.Insert(k, val(k))
		}
		c.MoveGreaterTo(25, dst)
		wantLeft, wantRight := []int64{10, 20}, []int64{30, 40, 50}
		checkKeys(t, c, wantLeft)
		checkKeys(t, dst, wantRight)
		for _, k := range wantRight {
			if v, ok := dst.Get(k); !ok || *v != k {
				t.Fatalf("payload for %d lost in move", k)
			}
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if err := dst.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestMoveGreaterToBoundaryKey(t *testing.T) {
	bothPolicies(t, func(t *testing.T, sorted bool) {
		c := newChunk(t, 4, sorted)
		dst := newChunk(t, 4, sorted)
		for _, k := range []int64{1, 2, 3} {
			c.Insert(k, val(k))
		}
		c.MoveGreaterTo(3, dst) // strictly greater: nothing moves
		checkKeys(t, c, []int64{1, 2, 3})
		checkKeys(t, dst, nil)
		c.MoveGreaterTo(0, dst) // everything moves
		checkKeys(t, c, nil)
		checkKeys(t, dst, []int64{1, 2, 3})
	})
}

func TestSplitUpperHalfTo(t *testing.T) {
	bothPolicies(t, func(t *testing.T, sorted bool) {
		c := newChunk(t, 4, sorted)
		dst := newChunk(t, 4, sorted)
		all := []int64{5, 3, 8, 1, 9, 7, 2, 6}
		for _, k := range all {
			c.Insert(k, val(k))
		}
		pivot := c.SplitUpperHalfTo(dst)
		if got := c.Size() + dst.Size(); got != len(all) {
			t.Fatalf("elements lost in split: %d", got)
		}
		// Everything in dst >= pivot > everything in c.
		if maxLeft, _ := c.MaxKey(); maxLeft >= pivot {
			t.Fatalf("left max %d >= pivot %d", maxLeft, pivot)
		}
		if minRight, _ := dst.MinKey(); minRight != pivot {
			t.Fatalf("right min %d != pivot %d", minRight, pivot)
		}
		// Sizes roughly balanced.
		if c.Size() != 4 || dst.Size() != 4 {
			t.Fatalf("unbalanced split: %d / %d", c.Size(), dst.Size())
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if err := dst.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAbsorbFrom(t *testing.T) {
	bothPolicies(t, func(t *testing.T, sorted bool) {
		c := newChunk(t, 4, sorted)
		src := newChunk(t, 4, sorted)
		for _, k := range []int64{1, 2, 3} {
			c.Insert(k, val(k))
		}
		for _, k := range []int64{10, 11} {
			src.Insert(k, val(k))
		}
		c.AbsorbFrom(src)
		checkKeys(t, c, []int64{1, 2, 3, 10, 11})
		if src.Size() != 0 {
			t.Fatalf("src size = %d after absorb", src.Size())
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAbsorbFromUnsortedIntoSorted(t *testing.T) {
	c := newChunk(t, 4, true)
	var src Chunk[int64]
	src.Init(4, false)
	c.Insert(1, val(1))
	for _, k := range []int64{12, 10, 11} {
		src.Insert(k, val(k))
	}
	c.AbsorbFrom(&src)
	checkKeys(t, c, []int64{1, 10, 11, 12})
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAbsorbOverflowPanics(t *testing.T) {
	c := newChunk(t, 1, true)
	src := newChunk(t, 1, true)
	c.Insert(1, val(1))
	src.Insert(2, val(2))
	src.Insert(3, val(3))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on overflowing absorb")
		}
	}()
	c.AbsorbFrom(src)
}

func TestForEachOrdered(t *testing.T) {
	bothPolicies(t, func(t *testing.T, sorted bool) {
		c := newChunk(t, 8, sorted)
		keys := []int64{9, 2, 7, 4, 1}
		for _, k := range keys {
			c.Insert(k, val(k))
		}
		var got []int64
		c.ForEachOrdered(func(k int64, v *int64) bool {
			got = append(got, k)
			return true
		})
		want := append([]int64(nil), keys...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			t.Fatalf("got %d keys, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("position %d: got %d want %d", i, got[i], want[i])
			}
		}
	})
}

func TestForEachEarlyStop(t *testing.T) {
	c := newChunk(t, 8, true)
	for k := int64(1); k <= 5; k++ {
		c.Insert(k, val(k))
	}
	n := 0
	c.ForEach(func(k int64, v *int64) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("ForEach visited %d, want 3", n)
	}
}

// TestInitDropsBlock: a recycled chunk holds no storage until it is used
// again, so nodes parked on a freelist cost their header and nothing more.
func TestInitDropsBlock(t *testing.T) {
	c := newChunk(t, 4, true)
	for k := int64(0); k < 8; k++ {
		c.Insert(k, val(k))
	}
	c.Init(4, false)
	if c.Size() != 0 || c.Sorted() || c.Cap() != 8 {
		t.Fatalf("reinit failed: size=%d sorted=%t cap=%d", c.Size(), c.Sorted(), c.Cap())
	}
	if b := c.blk.Load(); b != &emptyBlock {
		t.Fatalf("reinit kept a block of %d cells", b.cap())
	}
	c.Insert(3, val(3))
	if v, ok := c.Get(3); !ok || *v != 3 {
		t.Fatal("chunk unusable after reinit")
	}
}

// checkKeys asserts the chunk contains exactly the given key set.
func checkKeys(t *testing.T, c *Chunk[int64], want []int64) {
	t.Helper()
	got := c.Keys()
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	w := append([]int64(nil), want...)
	sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
	if len(got) != len(w) {
		t.Fatalf("keys = %v, want %v", got, w)
	}
	for i := range w {
		if got[i] != w[i] {
			t.Fatalf("keys = %v, want %v", got, w)
		}
	}
}

// --- property-based tests -------------------------------------------------

// TestPropertyChunkMatchesModel replays random op sequences against a Go map
// model for both policies.
func TestPropertyChunkMatchesModel(t *testing.T) {
	bothPolicies(t, func(t *testing.T, sorted bool) {
		f := func(ops []uint16, seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			var c Chunk[int64]
			c.Init(8, sorted)
			model := map[int64]int64{}
			for _, raw := range ops {
				k := int64(raw % 32)
				switch rng.Intn(3) {
				case 0: // insert
					if len(model) == c.Cap() {
						continue
					}
					_, inModel := model[k]
					got := c.Insert(k, val(k*3))
					if got == inModel {
						return false
					}
					if got {
						model[k] = k * 3
					}
				case 1: // remove
					_, inModel := model[k]
					_, got := c.Remove(k)
					if got != inModel {
						return false
					}
					delete(model, k)
				case 2: // lookup
					v, got := c.Get(k)
					mv, inModel := model[k]
					if got != inModel || (got && *v != mv) {
						return false
					}
				}
				if c.CheckInvariants() != nil || c.Size() != len(model) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPropertySplitMergeConservation checks that split followed by absorb is
// the identity on the key set, for random chunk contents.
func TestPropertySplitMergeConservation(t *testing.T) {
	bothPolicies(t, func(t *testing.T, sorted bool) {
		f := func(rawKeys []int64) bool {
			// Dedup and bound the key count to chunk capacity.
			seen := map[int64]struct{}{}
			var keys []int64
			for _, k := range rawKeys {
				if _, dup := seen[k]; dup || len(keys) >= 16 {
					continue
				}
				seen[k] = struct{}{}
				keys = append(keys, k)
			}
			if len(keys) < 2 {
				return true
			}
			var c, d Chunk[int64]
			c.Init(8, sorted)
			d.Init(8, sorted)
			for _, k := range keys {
				c.Insert(k, val(k))
			}
			before := c.Keys()
			sort.Slice(before, func(i, j int) bool { return before[i] < before[j] })
			c.SplitUpperHalfTo(&d)
			if maxL, _ := c.MaxKey(); d.Size() > 0 {
				if minR, _ := d.MinKey(); c.Size() > 0 && maxL >= minR {
					return false
				}
			}
			c.AbsorbFrom(&d)
			after := c.Keys()
			sort.Slice(after, func(i, j int) bool { return after[i] < after[j] })
			if len(before) != len(after) {
				return false
			}
			for i := range before {
				if before[i] != after[i] {
					return false
				}
			}
			return c.CheckInvariants() == nil
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPropertyFindLEMatchesScan cross-checks FindLE against a brute-force
// scan for random contents and random queries.
func TestPropertyFindLEMatchesScan(t *testing.T) {
	bothPolicies(t, func(t *testing.T, sorted bool) {
		f := func(rawKeys []int64, queries []int64) bool {
			var c Chunk[int64]
			c.Init(8, sorted)
			for _, k := range rawKeys {
				if c.Full() {
					break
				}
				c.Insert(k, val(k))
			}
			keys := c.Keys()
			for _, q := range queries {
				var want int64
				found := false
				for _, k := range keys {
					if k <= q && (!found || k > want) {
						want, found = k, true
					}
				}
				k, _, ok := c.FindLE(q)
				if ok != found || (ok && k != want) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestFindGE(t *testing.T) {
	bothPolicies(t, func(t *testing.T, sorted bool) {
		c := newChunk(t, 8, sorted)
		for _, k := range []int64{10, 20, 30, 40} {
			c.Insert(k, val(k))
		}
		cases := []struct {
			q      int64
			want   int64
			wantOK bool
		}{
			{5, 10, true},
			{10, 10, true},
			{15, 20, true},
			{40, 40, true},
			{41, 0, false},
		}
		for _, tc := range cases {
			k, v, ok := c.FindGE(tc.q)
			if ok != tc.wantOK || (ok && k != tc.want) {
				t.Fatalf("FindGE(%d) = %d,%t want %d,%t", tc.q, k, ok, tc.want, tc.wantOK)
			}
			if ok && *v != tc.want {
				t.Fatalf("FindGE(%d) payload = %d", tc.q, *v)
			}
		}
		empty := newChunk(t, 4, sorted)
		if _, _, ok := empty.FindGE(5); ok {
			t.Fatal("FindGE on empty chunk should fail")
		}
	})
}

// TestPropertyFindGEMatchesScan cross-checks FindGE against a brute-force
// scan for random contents and queries.
func TestPropertyFindGEMatchesScan(t *testing.T) {
	bothPolicies(t, func(t *testing.T, sorted bool) {
		f := func(rawKeys []int64, queries []int64) bool {
			var c Chunk[int64]
			c.Init(8, sorted)
			for _, k := range rawKeys {
				if c.Full() {
					break
				}
				c.Insert(k, val(k))
			}
			keys := c.Keys()
			for _, q := range queries {
				var want int64
				found := false
				for _, k := range keys {
					if k >= q && (!found || k < want) {
						want, found = k, true
					}
				}
				k, _, ok := c.FindGE(q)
				if ok != found || (ok && k != want) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
			t.Fatal(err)
		}
	})
}
