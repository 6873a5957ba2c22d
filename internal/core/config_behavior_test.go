package core

import (
	"math/rand"
	"testing"

	"skipvector/internal/vectormap"
)

// TestOversizedLayerCountHarmless reproduces the Section V-B observation
// that a too-high layer guess costs almost nothing: extra top layers stay
// near-empty and all behaviour is preserved.
func TestOversizedLayerCountHarmless(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LayerCount = 16 // far more than 1000 keys need
	m := newTestMap(t, cfg)
	for k := int64(0); k < 1000; k++ {
		if !m.Insert(k, v64(k)) {
			t.Fatalf("Insert(%d) failed", k)
		}
	}
	counts := m.NodeCount()
	// Topmost layers should contain only the two sentinels.
	for l := 8; l < 16; l++ {
		if counts[l] > 3 {
			t.Fatalf("layer %d has %d nodes; expected near-empty", l, counts[l])
		}
	}
	for k := int64(0); k < 1000; k += 37 {
		if _, found := m.Lookup(k); !found {
			t.Fatalf("Lookup(%d) failed", k)
		}
	}
	mustCheck(t, m)
}

// TestHeightDistribution verifies the paper's geometric height scheme
// (Section III-A): roughly (T_D-1)/T_D of inserted keys stay at height 0,
// and each index layer is ~T_I times sparser than the one below.
func TestHeightDistribution(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TargetDataVectorSize = 8
	cfg.TargetIndexVectorSize = 4
	cfg.LayerCount = 6
	cfg.Seed = 12345
	m := newTestMap(t, cfg)
	const n = 40000
	for k := int64(0); k < n; k++ {
		m.Insert(k, v64(k))
	}
	// Count user keys per layer.
	layerKeys := make([]int, cfg.LayerCount)
	for l := 0; l < cfg.LayerCount; l++ {
		for node := m.heads[l]; node != nil; node = node.next.Load() {
			if node.isIndex() {
				node.index().ForEach(func(k int64, _ *node_alias[int64]) bool {
					if k != MinKey && k != MaxKey {
						layerKeys[l]++
					}
					return true
				})
			} else {
				node.data().ForEach(func(k int64, _ vectormap.Cell) bool {
					if k != MinKey && k != MaxKey {
						layerKeys[l]++
					}
					return true
				})
			}
		}
	}
	if layerKeys[0] != n {
		t.Fatalf("data layer holds %d keys", layerKeys[0])
	}
	// Expected L1 density: n / T_D = 5000. Allow ±40%.
	wantL1 := n / cfg.TargetDataVectorSize
	if layerKeys[1] < wantL1*6/10 || layerKeys[1] > wantL1*14/10 {
		t.Fatalf("layer 1 holds %d keys, want ≈%d", layerKeys[1], wantL1)
	}
	// Each higher layer ~1/T_I of the one below. Allow wide tolerance for
	// small counts.
	for l := 2; l < cfg.LayerCount && layerKeys[l-1] > 200; l++ {
		want := layerKeys[l-1] / cfg.TargetIndexVectorSize
		if layerKeys[l] < want/3 || layerKeys[l] > want*3 {
			t.Fatalf("layer %d holds %d keys, want ≈%d", l, layerKeys[l], want)
		}
	}
}

// node_alias lets the test name the generic node type in a callback.
type node_alias[V any] = node[V]

// TestMergeFactorExtremes drives churn under the smallest and largest legal
// merge thresholds; both must preserve correctness.
func TestMergeFactorExtremes(t *testing.T) {
	for _, f := range []float64{0.01, 2.0} {
		cfg := DefaultConfig()
		cfg.MergeFactor = f
		cfg.TargetDataVectorSize = 2
		cfg.TargetIndexVectorSize = 2
		cfg.LayerCount = 5
		m := newTestMap(t, cfg)
		rng := rand.New(rand.NewSource(8))
		model := map[int64]bool{}
		for i := 0; i < 4000; i++ {
			k := int64(rng.Intn(300))
			if rng.Intn(2) == 0 {
				if m.Insert(k, v64(k)) {
					model[k] = true
				}
			} else if m.Remove(k) {
				delete(model, k)
			}
		}
		if m.Len() != len(model) {
			t.Fatalf("factor %v: Len=%d model=%d", f, m.Len(), len(model))
		}
		mustCheck(t, m)
	}
}

// TestSingleLayerDegenerate exercises LayerCount=1 (a pure chunked list):
// all operations must still work, just with O(n/T) traversal.
func TestSingleLayerDegenerate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LayerCount = 1
	m := newTestMap(t, cfg)
	for k := int64(200); k > 0; k-- {
		m.Insert(k, v64(k))
	}
	for k := int64(1); k <= 200; k += 2 {
		m.Remove(k)
	}
	if m.Len() != 100 {
		t.Fatalf("Len = %d", m.Len())
	}
	if k, _, ok := m.Ceiling(MinKey + 1); !ok || k != 2 {
		t.Fatalf("Ceiling(MinKey+1) = %d,%t", k, ok)
	}
	if k, _, ok := m.Floor(MaxKey - 1); !ok || k != 200 {
		t.Fatalf("Floor(MaxKey-1) = %d,%t", k, ok)
	}
	mustCheck(t, m)
}

// TestSeedDeterminism: same seed ⇒ identical structure (node counts per
// layer), different seed ⇒ (almost surely) different index shape.
func TestSeedDeterminism(t *testing.T) {
	build := func(seed uint64) []int {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.TargetDataVectorSize = 4
		cfg.TargetIndexVectorSize = 4
		m, err := NewMap[int64](cfg)
		if err != nil {
			t.Fatal(err)
		}
		for k := int64(0); k < 2000; k++ {
			m.Insert(k, v64(k))
		}
		return m.NodeCount()
	}
	a, b := build(1), build(1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different shapes: %v vs %v", a, b)
		}
	}
	c := build(2)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Log("warning: different seeds produced identical shapes (possible but unlikely)")
	}
}
