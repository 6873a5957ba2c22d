package skipvector

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

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
