package core

import (
	"sync"
	"testing"
)

// buildOrphanChain constructs a map whose data layer contains several
// consecutive orphan nodes by removing the indexed (tower) keys between
// chunked runs of height-0 keys. Removing an indexed key marks its data
// node an orphan (Listing 4), and lookups/inserts must then traverse the
// orphan chain through next pointers alone.
func buildOrphanChain(t *testing.T) (*Map[int64], []int64) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.TargetDataVectorSize = 2
	cfg.TargetIndexVectorSize = 2
	cfg.LayerCount = 5
	// Large MergeFactor would eagerly merge the orphans away on the next
	// write; keep it tiny so the chain persists (merges only fire when the
	// combined size is *below* the threshold).
	cfg.MergeFactor = 0.01
	m := newTestMap(t, cfg)
	for k := int64(0); k < 400; k++ {
		m.Insert(k, v64(k))
	}
	// Find the keys that have index towers (minima of non-orphan data
	// nodes, excluding sentinels): removing them orphans their nodes.
	var towers []int64
	for n := m.heads[0]; n != nil; n = n.next.Load() {
		if n == m.heads[0] || n.next.Load() == nil {
			continue
		}
		if !n.lock.IsOrphan() {
			if minK, ok := n.minKey(); ok {
				towers = append(towers, minK)
			}
		}
	}
	if len(towers) < 8 {
		t.Fatalf("expected many indexed keys, got %d", len(towers))
	}
	for _, k := range towers {
		if !m.Remove(k) {
			t.Fatalf("Remove(%d) failed", k)
		}
	}
	mustCheck(t, m)
	return m, towers
}

func TestLookupAcrossOrphanChains(t *testing.T) {
	m, towers := buildOrphanChain(t)
	removed := map[int64]bool{}
	for _, k := range towers {
		removed[k] = true
	}
	// Count surviving orphans to confirm the scenario is non-trivial.
	orphans := 0
	for n := m.heads[0]; n != nil; n = n.next.Load() {
		if n.lock.IsOrphan() {
			orphans++
		}
	}
	if orphans < 4 {
		t.Fatalf("only %d orphan nodes; scenario too weak", orphans)
	}
	for k := int64(0); k < 400; k++ {
		_, found := m.Lookup(k)
		if found == removed[k] {
			t.Fatalf("Lookup(%d) = %t, removed=%t", k, found, removed[k])
		}
	}
	// Navigation across orphan chains.
	for _, k := range towers {
		if ck, _, ok := m.Ceiling(k); ok && ck < k {
			t.Fatalf("Ceiling(%d) = %d", k, ck)
		}
		if fk, _, ok := m.Floor(k); ok && fk > k {
			t.Fatalf("Floor(%d) = %d", k, fk)
		}
	}
}

func TestWritesMergeOrphanChains(t *testing.T) {
	m, _ := buildOrphanChain(t)
	before := m.Stats().Merges
	// Raise the effective merge appetite by removing most keys: empty
	// orphans are unlinked by any operation, under-full ones by writers.
	for k := int64(0); k < 400; k++ {
		m.Remove(k)
	}
	mustCheck(t, m)
	if m.Len() != 0 {
		t.Fatalf("Len = %d", m.Len())
	}
	if after := m.Stats().Merges; after <= before {
		t.Fatalf("no merges happened during drain (before %d, after %d)", before, after)
	}
	// The data layer should have collapsed to near-minimal length.
	if counts := m.NodeCount(); counts[0] > 8 {
		t.Fatalf("data layer still has %d nodes after drain", counts[0])
	}
}

func TestRangeQueryAcrossOrphanChain(t *testing.T) {
	m, towers := buildOrphanChain(t)
	removed := map[int64]bool{}
	for _, k := range towers {
		removed[k] = true
	}
	var got []int64
	m.RangeQuery(0, 399, func(k int64, _ *int64) bool {
		got = append(got, k)
		return true
	})
	want := 0
	for k := int64(0); k < 400; k++ {
		if !removed[k] {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("range saw %d keys, want %d", len(got), want)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatal("range out of order across orphan chain")
		}
	}
}

// TestRestartCounterUnderContention sanity-checks the restart statistic:
// heavy same-chunk contention must produce at least some restarts, and the
// structure must stay correct.
func TestRestartCounterUnderContention(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TargetDataVectorSize = 64 // one hot chunk
	cfg.LayerCount = 2
	m := newTestMap(t, cfg)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(base int64) {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				k := base + int64(i%16)
				m.Insert(k, v64(k))
				m.Remove(k)
			}
		}(int64(g) * 16)
	}
	wg.Wait()
	mustCheck(t, m)
	if m.Stats().Restarts == 0 {
		t.Log("note: zero restarts under contention (possible on a single-core scheduler)")
	}
}
