package core

import (
	"math/rand"
	"sync"
	"testing"
)

func sortedKeys(n int) []int64 {
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i * 3)
	}
	return keys
}

func TestBulkLoadBasic(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, cfg Config) {
		keys := sortedKeys(1000)
		vals := make([]int64, len(keys))
		for i, k := range keys {
			vals[i] = k * 10
		}
		m, err := BulkLoad(cfg, keys, vals)
		if err != nil {
			t.Fatal(err)
		}
		if m.Len() != len(keys) {
			t.Fatalf("Len = %d", m.Len())
		}
		mustCheck(t, m)
		for _, k := range keys {
			v, found := m.Lookup(k)
			if !found || *v != k*10 {
				t.Fatalf("Lookup(%d) = %v,%t", k, v, found)
			}
		}
		if _, found := m.Lookup(1); found {
			t.Fatal("absent key found")
		}
	})
}

func TestBulkLoadEmpty(t *testing.T) {
	m, err := BulkLoad[int64](DefaultConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 0 {
		t.Fatal("empty load not empty")
	}
	mustCheck(t, m)
	if !m.Insert(5, v64(5)) {
		t.Fatal("insert after empty bulk load failed")
	}
}

func TestBulkLoadNilValues(t *testing.T) {
	m, err := BulkLoad[int64](DefaultConfig(), sortedKeys(100), nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, found := m.Lookup(0); !found || *v != 0 {
		t.Fatalf("Lookup = %v,%t, want the zero value", v, found)
	}
	mustCheck(t, m)
}

func TestBulkLoadRejectsBadInput(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := BulkLoad(cfg, []int64{1, 1}, []int64{1, 1}); err == nil {
		t.Fatal("duplicate keys accepted")
	}
	if _, err := BulkLoad(cfg, []int64{2, 1}, []int64{1, 1}); err == nil {
		t.Fatal("descending keys accepted")
	}
	if _, err := BulkLoad(cfg, []int64{MinKey}, []int64{1}); err == nil {
		t.Fatal("sentinel key accepted")
	}
	if _, err := BulkLoad(cfg, []int64{1, 2}, []int64{1}); err == nil {
		t.Fatal("mismatched vals accepted")
	}
	bad := cfg
	bad.LayerCount = 0
	if _, err := BulkLoad[int64](bad, []int64{1}, nil); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestBulkLoadThenMutate verifies the loaded structure behaves identically
// to an incrementally built one under further mutation.
func TestBulkLoadThenMutate(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, cfg Config) {
		keys := sortedKeys(600)
		m, err := BulkLoad[int64](cfg, keys, nil)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(10))
		model := map[int64]bool{}
		for _, k := range keys {
			model[k] = true
		}
		for i := 0; i < 4000; i++ {
			k := int64(rng.Intn(2000))
			if rng.Intn(2) == 0 {
				if m.Insert(k, v64(k)) == model[k] {
					t.Fatalf("op %d: Insert(%d) disagreed with model", i, k)
				}
				model[k] = true
			} else {
				if m.Remove(k) != model[k] {
					t.Fatalf("op %d: Remove(%d) disagreed with model", i, k)
				}
				delete(model, k)
			}
		}
		if m.Len() != len(model) {
			t.Fatalf("Len = %d, model %d", m.Len(), len(model))
		}
		mustCheck(t, m)
	})
}

// TestBulkLoadConcurrentAccess hammers a bulk-loaded map concurrently right
// after construction (no quiescent warm-up).
func TestBulkLoadConcurrentAccess(t *testing.T) {
	cfg := testConfigs()["tiny-chunks"]
	keys := sortedKeys(2000)
	m, err := BulkLoad[int64](cfg, keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				k := int64(rng.Intn(6000))
				switch rng.Intn(3) {
				case 0:
					m.Insert(k, v64(k))
				case 1:
					m.Remove(k)
				default:
					m.Lookup(k)
				}
			}
		}(int64(g))
	}
	wg.Wait()
	mustCheck(t, m)
}

func TestBulkLoadChunkPacking(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TargetDataVectorSize = 8
	cfg.TargetIndexVectorSize = 4
	cfg.LayerCount = 4
	m, err := BulkLoad[int64](cfg, sortedKeys(512), nil)
	if err != nil {
		t.Fatal(err)
	}
	counts := m.NodeCount()
	// 512 keys / 8 per node = 64 data nodes (+2 sentinels).
	if counts[0] != 66 {
		t.Fatalf("data layer nodes = %d, want 66", counts[0])
	}
	// 64 refs / 4 per node = 16 index nodes at L1 (+2).
	if counts[1] != 18 {
		t.Fatalf("L1 nodes = %d, want 18", counts[1])
	}
	// 16/4 = 4 at L2 (+2); 4/4 → 1 at top (+2).
	if counts[2] != 6 || counts[3] != 3 {
		t.Fatalf("upper layers = %v", counts)
	}
	mustCheck(t, m)
}

func TestBulkLoadUnchunkedIndexHalves(t *testing.T) {
	// T_I = 1 is the USL/SL emulation. One entry per index node would copy
	// every entry into every layer, so a lookup walks a top layer as long as
	// the data layer; each layer must instead halve, like randomHeight's
	// p = 1/2 for this configuration.
	cfg := DefaultConfig()
	cfg.TargetDataVectorSize = 1
	cfg.TargetIndexVectorSize = 1
	cfg.LayerCount = 6
	m, err := BulkLoad[int64](cfg, sortedKeys(256), nil)
	if err != nil {
		t.Fatal(err)
	}
	counts := m.NodeCount()
	want := []int{256 + 2, 128 + 2, 64 + 2, 32 + 2, 16 + 2, 8 + 2}
	for l, w := range want {
		if counts[l] != w {
			t.Fatalf("layer node counts = %v, want %v", counts, want)
		}
	}
	mustCheck(t, m)
	// Index nodes are loaded full (capacity 2); writes must split them.
	for k := int64(1); k < 768; k += 3 {
		m.Insert(k, nil)
	}
	for k := int64(0); k < 768; k += 3 {
		if !m.Remove(k) {
			t.Fatalf("Remove(%d) failed", k)
		}
	}
	mustCheck(t, m)
}

func TestBulkLoadOverfullTopLayer(t *testing.T) {
	// Tiny LayerCount forces many orphan nodes in the top layer; the
	// structure must still verify and operate.
	cfg := DefaultConfig()
	cfg.TargetDataVectorSize = 2
	cfg.TargetIndexVectorSize = 2
	cfg.LayerCount = 2
	m, err := BulkLoad[int64](cfg, sortedKeys(400), nil)
	if err != nil {
		t.Fatal(err)
	}
	mustCheck(t, m)
	for _, k := range []int64{0, 300, 1197} {
		if _, found := m.Lookup(k); !found {
			t.Fatalf("Lookup(%d) failed", k)
		}
	}
	// Mutations across the orphan-heavy top layer must keep working.
	for k := int64(0); k < 1200; k += 3 {
		if !m.Remove(k) {
			t.Fatalf("Remove(%d) failed", k)
		}
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d", m.Len())
	}
	mustCheck(t, m)
}
