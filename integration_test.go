package skipvector

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestManyMapsIndependent verifies instances share no hidden state.
func TestManyMapsIndependent(t *testing.T) {
	maps := make([]*Map[int], 8)
	for i := range maps {
		maps[i] = New[int](WithSeed(uint64(i)))
	}
	var wg sync.WaitGroup
	for i, m := range maps {
		wg.Add(1)
		go func(i int, m *Map[int]) {
			defer wg.Done()
			for k := int64(0); k < 500; k++ {
				m.Insert(k*int64(i+1), i)
			}
		}(i, m)
	}
	wg.Wait()
	for i, m := range maps {
		if m.Len() != 500 {
			t.Fatalf("map %d has %d keys", i, m.Len())
		}
		if v, ok := m.Lookup(int64(i + 1)); !ok || v != i {
			t.Fatalf("map %d cross-contaminated", i)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("map %d: %v", i, err)
		}
	}
}

// TestKitchenSink drives every public API surface concurrently against one
// map for a sustained period: point ops, upserts, range queries, range
// updates, navigation queries, and cursors — then verifies the full
// structural invariant suite and an accounting oracle.
func TestKitchenSink(t *testing.T) {
	m := New[int64](
		WithTargetDataVectorSize(4),
		WithTargetIndexVectorSize(4),
		WithLayerCount(5),
		WithSeed(1234),
	)
	const (
		keySpace = 2048
		workers  = 6
		opsEach  = 4000
	)
	var inserted, removed [keySpace]atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			cur := m.Cursor(0)
			for i := 0; i < opsEach; i++ {
				k := int64(rng.Intn(keySpace))
				switch rng.Intn(10) {
				case 0, 1, 2:
					if m.Insert(k, k) {
						inserted[k].Add(1)
					}
				case 3, 4:
					if m.Remove(k) {
						removed[k].Add(1)
					}
				case 5:
					if v, ok := m.Lookup(k); ok && v%keySpace != k%keySpace {
						t.Errorf("corrupt value at %d: %d", k, v)
						return
					}
				case 6:
					lo := k
					hi := k + int64(rng.Intn(64))
					prev := int64(-1)
					m.RangeQuery(lo, hi, func(kk int64, _ int64) bool {
						if kk < lo || kk > hi || kk <= prev {
							t.Errorf("range scan inconsistency at %d", kk)
							return false
						}
						prev = kk
						return true
					})
				case 7:
					m.RangeUpdate(k, k+16, func(kk int64, v int64) int64 {
						return v + keySpace // preserves v mod keySpace
					})
				case 8:
					if fk, _, ok := m.Floor(k); ok && fk > k {
						t.Errorf("Floor(%d) = %d", k, fk)
						return
					}
					if ck, _, ok := m.Ceiling(k); ok && ck < k {
						t.Errorf("Ceiling(%d) = %d", k, ck)
						return
					}
				default:
					kk, v, ok := cur.Next()
					if !ok {
						cur.SeekTo(0)
					} else if v%keySpace != kk%keySpace {
						t.Errorf("cursor corrupt value at %d", kk)
						return
					}
				}
			}
		}(int64(w) + 99)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	total := 0
	for k := 0; k < keySpace; k++ {
		diff := inserted[k].Load() - removed[k].Load()
		if diff != 0 && diff != 1 {
			t.Fatalf("key %d: inserted-removed = %d", k, diff)
		}
		present := m.Contains(int64(k))
		if present != (diff == 1) {
			t.Fatalf("key %d: present=%t diff=%d", k, present, diff)
		}
		if present {
			total++
		}
	}
	if m.Len() != total {
		t.Fatalf("Len = %d, oracle %d", m.Len(), total)
	}
}
