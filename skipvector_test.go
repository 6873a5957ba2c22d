package skipvector

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestPublicAPIBasics(t *testing.T) {
	m := New[string]()
	if !m.Insert(1, "one") {
		t.Fatal("Insert failed")
	}
	if m.Insert(1, "uno") {
		t.Fatal("duplicate Insert succeeded")
	}
	if v, ok := m.Lookup(1); !ok || v != "one" {
		t.Fatalf("Lookup = %q,%t", v, ok)
	}
	if !m.Contains(1) || m.Contains(2) {
		t.Fatal("Contains wrong")
	}
	if !m.Remove(1) || m.Remove(1) {
		t.Fatal("Remove semantics wrong")
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestUpsert(t *testing.T) {
	m := New[string]()
	if !m.Upsert(5, "a") {
		t.Fatal("first Upsert should report insert")
	}
	if m.Upsert(5, "b") {
		t.Fatal("second Upsert should report replace")
	}
	if v, _ := m.Lookup(5); v != "b" {
		t.Fatalf("value = %q, want b", v)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestUpsertConcurrent(t *testing.T) {
	m := New[int]()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				m.Upsert(int64(i%40), id)
				if i%7 == 0 {
					m.Remove(int64(i % 40))
				}
			}
		}(g)
	}
	wg.Wait()
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOptionsApply(t *testing.T) {
	m := New[int](
		WithLayerCount(4),
		WithTargetDataVectorSize(8),
		WithTargetIndexVectorSize(4),
		WithMergeFactor(1.5),
		WithSortedIndex(false),
		WithSortedData(true),
		WithHazardPointers(false),
		WithSeed(7),
	)
	for k := int64(0); k < 500; k++ {
		m.Insert(k, int(k))
	}
	if m.Len() != 500 {
		t.Fatalf("Len = %d", m.Len())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if s := m.Stats(); s.Reuses != 0 {
		t.Fatal("leak mode must not reuse nodes")
	}
}

func TestInvalidOptionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid option")
		}
	}()
	New[int](WithLayerCount(-1))
}

func TestRangeQueryOrderAndBounds(t *testing.T) {
	m := New[int64]()
	for k := int64(0); k < 300; k += 3 {
		m.Insert(k, k*2)
	}
	var got []int64
	m.RangeQuery(30, 90, func(k int64, v int64) bool {
		if v != k*2 {
			t.Fatalf("value mismatch at %d", k)
		}
		got = append(got, k)
		return true
	})
	var want []int64
	for k := int64(30); k <= 90; k += 3 {
		want = append(want, k)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("RangeQuery = %v, want %v", got, want)
	}
}

func TestRangeQueryEarlyStop(t *testing.T) {
	m := New[int]()
	for k := int64(0); k < 100; k++ {
		m.Insert(k, 0)
	}
	n := 0
	m.RangeQuery(0, 99, func(k int64, v int) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Fatalf("visited %d, want 10", n)
	}
	// Map must be fully usable afterwards (locks released).
	if !m.Insert(1000, 1) {
		t.Fatal("Insert after early-stopped range failed")
	}
}

func TestRangeUpdateCount(t *testing.T) {
	m := New[int]()
	for k := int64(0); k < 50; k++ {
		m.Insert(k, 1)
	}
	n := m.RangeUpdate(10, 19, func(k int64, v int) int { return v + 100 })
	if n != 10 {
		t.Fatalf("updated %d, want 10", n)
	}
	for k := int64(0); k < 50; k++ {
		v, _ := m.Lookup(k)
		want := 1
		if k >= 10 && k <= 19 {
			want = 101
		}
		if v != want {
			t.Fatalf("key %d = %d, want %d", k, v, want)
		}
	}
}

func TestAscend(t *testing.T) {
	m := New[int]()
	keys := []int64{5, -3, 99, 0, 42}
	for _, k := range keys {
		m.Insert(k, int(k))
	}
	var got []int64
	m.Ascend(func(k int64, v int) bool {
		got = append(got, k)
		return true
	})
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	if fmt.Sprint(got) != fmt.Sprint(keys) {
		t.Fatalf("Ascend = %v, want %v", got, keys)
	}
}

func TestEmptyRange(t *testing.T) {
	m := New[int]()
	m.Insert(5, 5)
	called := false
	m.RangeQuery(10, 3, func(int64, int) bool { called = true; return true })
	if called {
		t.Fatal("inverted range should visit nothing")
	}
	if n := m.RangeUpdate(100, 200, func(_ int64, v int) int { return v }); n != 0 {
		t.Fatalf("empty window updated %d", n)
	}
}

func TestStructValues(t *testing.T) {
	type rec struct {
		Name string
		N    int
	}
	m := New[rec]()
	m.Insert(1, rec{Name: "x", N: 7})
	v, ok := m.Lookup(1)
	if !ok || v.Name != "x" || v.N != 7 {
		t.Fatalf("Lookup = %+v", v)
	}
}

// TestQuickMatchesReference property-tests the public API against a
// reference map + sorted-keys oracle, including range queries.
func TestQuickMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New[int64](WithTargetDataVectorSize(4), WithTargetIndexVectorSize(4), WithLayerCount(4))
		ref := map[int64]int64{}
		for i := 0; i < 500; i++ {
			k := int64(rng.Intn(120))
			switch rng.Intn(4) {
			case 0:
				_, had := ref[k]
				if m.Insert(k, k) == had {
					return false
				}
				if !had {
					ref[k] = k
				}
			case 1:
				_, had := ref[k]
				if m.Remove(k) != had {
					return false
				}
				delete(ref, k)
			case 2:
				_, had := ref[k]
				if m.Contains(k) != had {
					return false
				}
			case 3:
				lo := k - int64(rng.Intn(20))
				hi := k + int64(rng.Intn(20))
				var got []int64
				m.RangeQuery(lo, hi, func(kk int64, _ int64) bool {
					got = append(got, kk)
					return true
				})
				var want []int64
				for rk := range ref {
					if rk >= lo && rk <= hi {
						want = append(want, rk)
					}
				}
				sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
				if fmt.Sprint(got) != fmt.Sprint(want) {
					return false
				}
			}
		}
		return m.CheckInvariants() == nil && m.Len() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func ExampleMap() {
	m := New[string]()
	m.Insert(3, "three")
	m.Insert(1, "one")
	m.Insert(2, "two")
	m.Ascend(func(k int64, v string) bool {
		fmt.Println(k, v)
		return true
	})
	// Output:
	// 1 one
	// 2 two
	// 3 three
}

func TestNavigationAPI(t *testing.T) {
	m := New[string]()
	if _, _, ok := m.Min(); ok {
		t.Fatal("Min on empty map")
	}
	if _, _, ok := m.Max(); ok {
		t.Fatal("Max on empty map")
	}
	m.Insert(10, "ten")
	m.Insert(30, "thirty")
	m.Insert(20, "twenty")
	if k, v, ok := m.Min(); !ok || k != 10 || v != "ten" {
		t.Fatalf("Min = %d,%q,%t", k, v, ok)
	}
	if k, v, ok := m.Max(); !ok || k != 30 || v != "thirty" {
		t.Fatalf("Max = %d,%q,%t", k, v, ok)
	}
	if k, v, ok := m.Floor(25); !ok || k != 20 || v != "twenty" {
		t.Fatalf("Floor(25) = %d,%q,%t", k, v, ok)
	}
	if k, v, ok := m.Ceiling(25); !ok || k != 30 || v != "thirty" {
		t.Fatalf("Ceiling(25) = %d,%q,%t", k, v, ok)
	}
	if _, _, ok := m.Floor(5); ok {
		t.Fatal("Floor(5) should miss")
	}
	if _, _, ok := m.Ceiling(35); ok {
		t.Fatal("Ceiling(35) should miss")
	}
}

func TestNewFromSorted(t *testing.T) {
	keys := []int64{1, 5, 9, 13}
	vals := []string{"a", "b", "c", "d"}
	m, err := NewFromSorted(keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := m.Lookup(9); !ok || v != "c" {
		t.Fatalf("Lookup(9) = %q,%t", v, ok)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFromSorted([]int64{2, 1}, []string{"x", "y"}); err == nil {
		t.Fatal("descending keys accepted")
	}
	if _, err := NewFromSorted[string]([]int64{1}, nil); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
}

func TestApplyBatchFacade(t *testing.T) {
	m := New[string]()
	m.Insert(2, "two")
	m.Insert(4, "four")
	res := m.ApplyBatch([]BatchOp[string]{
		{Key: 1, Val: "one"},                    // fresh insert
		{Key: 2, Val: "TWO"},                    // overwrite
		{Key: 4, Val: "FOUR", InsertOnly: true}, // blocked: key present
		{Key: 3, Val: "three", InsertOnly: true},
		{Key: 2, Delete: true},
		{Key: 9, Delete: true}, // absent
	})
	want := []BatchOutcome{BatchInserted, BatchUpdated, BatchExists, BatchInserted, BatchRemoved, BatchAbsent}
	for i, w := range want {
		if res[i].Outcome != w {
			t.Fatalf("op %d: outcome %v, want %v", i, res[i].Outcome, w)
		}
	}
	if v, ok := m.Lookup(4); !ok || v != "four" {
		t.Fatalf("InsertOnly overwrote: Lookup(4) = %q,%t", v, ok)
	}
	if m.Contains(2) {
		t.Fatal("deleted key 2 still present")
	}
	if m.Len() != 3 { // {1, 3, 4}
		t.Fatalf("Len = %d, want 3", m.Len())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

func TestApplyBatchFacadeDuplicateKeys(t *testing.T) {
	m := New[int]()
	res := m.ApplyBatch([]BatchOp[int]{
		{Key: 7, Val: 1},
		{Key: 7, Val: 2},
		{Key: 7, Delete: true},
		{Key: 7, Val: 3, InsertOnly: true},
	})
	want := []BatchOutcome{BatchInserted, BatchUpdated, BatchRemoved, BatchInserted}
	for i, w := range want {
		if res[i].Outcome != w {
			t.Fatalf("op %d: outcome %v, want %v", i, res[i].Outcome, w)
		}
	}
	if v, ok := m.Lookup(7); !ok || v != 3 {
		t.Fatalf("last write did not win: Lookup(7) = %d,%t", v, ok)
	}
}

func TestApplyBatchFacadeValueCopies(t *testing.T) {
	// The facade must copy each op's value: mutating the ops slice after
	// ApplyBatch returns must not reach into the map.
	m := New[[2]int]()
	ops := []BatchOp[[2]int]{{Key: 1, Val: [2]int{10, 20}}}
	m.ApplyBatch(ops)
	ops[0].Val[0] = 999
	if v, _ := m.Lookup(1); v != [2]int{10, 20} {
		t.Fatalf("stored value aliased the request slice: %v", v)
	}
}

func TestHandleUpsertAndApplyBatch(t *testing.T) {
	m := New[int]()
	h := m.NewHandle()
	defer h.Close()
	if !h.Upsert(3, 30) {
		t.Fatal("handle Upsert should insert")
	}
	if h.Upsert(3, 33) {
		t.Fatal("handle Upsert should replace")
	}
	for base := int64(0); base < 256; base += 16 {
		ops := make([]BatchOp[int], 16)
		for i := range ops {
			ops[i] = BatchOp[int]{Key: base + int64(i), Val: int(base) + i}
		}
		for _, r := range h.ApplyBatch(ops) {
			if r.Outcome != BatchInserted && r.Outcome != BatchUpdated {
				t.Fatalf("unexpected outcome %v", r.Outcome)
			}
		}
	}
	if m.Len() != 256 {
		t.Fatalf("Len = %d, want 256", m.Len())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}
