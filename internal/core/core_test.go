package core

import (
	"fmt"
	"math/rand"
	"testing"

	"skipvector/internal/vectormap"
)

// testConfigs enumerates the configuration corners the tests sweep:
// chunked/unchunked layers, sorted/unsorted chunks, hazard/leak reclamation.
func testConfigs() map[string]Config {
	base := DefaultConfig()
	cfgs := map[string]Config{
		"default": base,
	}

	small := base
	small.TargetDataVectorSize = 2
	small.TargetIndexVectorSize = 2
	small.LayerCount = 5
	cfgs["tiny-chunks"] = small

	usl := base
	usl.TargetIndexVectorSize = 1
	usl.LayerCount = 12
	cfgs["usl"] = usl

	sl := base
	sl.TargetDataVectorSize = 1
	sl.TargetIndexVectorSize = 1
	sl.LayerCount = 14
	cfgs["sl"] = sl

	sorted := base
	sorted.SortedData = true
	cfgs["sorted-data"] = sorted

	unsortedIdx := base
	unsortedIdx.SortedIndex = false
	cfgs["unsorted-index"] = unsortedIdx

	leak := base
	leak.Reclaim = ReclaimLeak
	cfgs["leak"] = leak

	shallow := base
	shallow.LayerCount = 1
	cfgs["data-only"] = shallow

	return cfgs
}

func newTestMap(t testing.TB, cfg Config) *Map[int64] {
	t.Helper()
	return newTestMapOf[int64](t, cfg)
}

func newTestMapOf[V any](t testing.TB, cfg Config) *Map[V] {
	t.Helper()
	m, err := NewMap[V](cfg)
	if err != nil {
		t.Fatalf("NewMap: %v", err)
	}
	return m
}

// wide is a value type too big to store inline: maps of it keep each value
// in a box (value.go), the path every 8-byte workload value no longer takes.
type wide [3]int64

func mustCheck[V any](t testing.TB, m *Map[V]) {
	t.Helper()
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("invariants violated: %v\n%s", err, m.Dump())
	}
}

func v64(x int64) *int64 { return &x }

func forAllConfigs(t *testing.T, fn func(t *testing.T, cfg Config)) {
	for name, cfg := range testConfigs() {
		t.Run(name, func(t *testing.T) { fn(t, cfg) })
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.LayerCount = 0 },
		func(c *Config) { c.LayerCount = MaxLayers + 1 },
		func(c *Config) { c.TargetDataVectorSize = 0 },
		func(c *Config) { c.TargetIndexVectorSize = 0 },
		func(c *Config) { c.TargetDataVectorSize = vectormap.MaxTarget + 1 },
		func(c *Config) { c.TargetIndexVectorSize = vectormap.MaxTarget + 1 },
		func(c *Config) { c.MergeFactor = 0 },
		func(c *Config) { c.MergeFactor = 2.5 },
		func(c *Config) { c.Reclaim = 0 },
	}
	for i, mutate := range cases {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := NewMap[int64](cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	valid := DefaultConfig()
	if err := valid.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestEmptyMap(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, cfg Config) {
		m := newTestMap(t, cfg)
		if m.Len() != 0 {
			t.Fatalf("Len = %d", m.Len())
		}
		if _, found := m.Lookup(42); found {
			t.Fatal("Lookup on empty map found a key")
		}
		if m.Remove(42) {
			t.Fatal("Remove on empty map returned true")
		}
		mustCheck(t, m)
	})
}

func TestInsertLookupRemoveBasic(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, cfg Config) {
		m := newTestMap(t, cfg)
		if !m.Insert(10, v64(100)) {
			t.Fatal("Insert(10) failed")
		}
		if m.Insert(10, v64(200)) {
			t.Fatal("duplicate Insert(10) succeeded")
		}
		if v, found := m.Lookup(10); !found || *v != 100 {
			t.Fatalf("Lookup(10) = %v,%t", v, found)
		}
		if !m.Remove(10) {
			t.Fatal("Remove(10) failed")
		}
		if m.Remove(10) {
			t.Fatal("double Remove(10) succeeded")
		}
		if _, found := m.Lookup(10); found {
			t.Fatal("Lookup found removed key")
		}
		if m.Len() != 0 {
			t.Fatalf("Len = %d", m.Len())
		}
		mustCheck(t, m)
	})
}

func TestSentinelKeysPanic(t *testing.T) {
	m := newTestMap(t, DefaultConfig())
	for _, k := range []int64{MinKey, MaxKey} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("key %d accepted", k)
				}
			}()
			m.Insert(k, v64(1))
		}()
	}
}

func TestAscendingInsertions(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, cfg Config) {
		m := newTestMap(t, cfg)
		const n = 500
		for k := int64(0); k < n; k++ {
			if !m.Insert(k, v64(k*2)) {
				t.Fatalf("Insert(%d) failed", k)
			}
		}
		if m.Len() != n {
			t.Fatalf("Len = %d, want %d", m.Len(), n)
		}
		for k := int64(0); k < n; k++ {
			if v, found := m.Lookup(k); !found || *v != k*2 {
				t.Fatalf("Lookup(%d) = %v,%t", k, v, found)
			}
		}
		mustCheck(t, m)
	})
}

func TestDescendingInsertions(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, cfg Config) {
		m := newTestMap(t, cfg)
		const n = 500
		for k := int64(n - 1); k >= 0; k-- {
			if !m.Insert(k, v64(k)) {
				t.Fatalf("Insert(%d) failed", k)
			}
		}
		keys := m.Keys()
		if len(keys) != n {
			t.Fatalf("got %d keys", len(keys))
		}
		for i, k := range keys {
			if k != int64(i) {
				t.Fatalf("keys[%d] = %d", i, k)
			}
		}
		mustCheck(t, m)
	})
}

func TestInsertRemoveInterleaved(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, cfg Config) {
		m := newTestMap(t, cfg)
		const n = 400
		for k := int64(0); k < n; k++ {
			m.Insert(k, v64(k))
		}
		// Remove the odd keys.
		for k := int64(1); k < n; k += 2 {
			if !m.Remove(k) {
				t.Fatalf("Remove(%d) failed", k)
			}
		}
		mustCheck(t, m)
		for k := int64(0); k < n; k++ {
			_, found := m.Lookup(k)
			if want := k%2 == 0; found != want {
				t.Fatalf("Lookup(%d) = %t, want %t", k, found, want)
			}
		}
		// Re-insert the odd keys, remove the even ones.
		for k := int64(1); k < n; k += 2 {
			if !m.Insert(k, v64(-k)) {
				t.Fatalf("re-Insert(%d) failed", k)
			}
		}
		for k := int64(0); k < n; k += 2 {
			if !m.Remove(k) {
				t.Fatalf("Remove(%d) failed", k)
			}
		}
		mustCheck(t, m)
		if m.Len() != n/2 {
			t.Fatalf("Len = %d, want %d", m.Len(), n/2)
		}
		for k := int64(1); k < n; k += 2 {
			if v, found := m.Lookup(k); !found || *v != -k {
				t.Fatalf("Lookup(%d) = %v,%t", k, v, found)
			}
		}
	})
}

func TestDrainToEmpty(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, cfg Config) {
		m := newTestMap(t, cfg)
		rng := rand.New(rand.NewSource(7))
		keys := rng.Perm(300)
		for _, k := range keys {
			m.Insert(int64(k), v64(int64(k)))
		}
		for _, k := range rng.Perm(300) {
			if !m.Remove(int64(k)) {
				t.Fatalf("Remove(%d) failed", k)
			}
		}
		if m.Len() != 0 {
			t.Fatalf("Len = %d after drain", m.Len())
		}
		mustCheck(t, m)
		// The map must remain fully usable after a complete drain.
		for _, k := range keys[:50] {
			if !m.Insert(int64(k), v64(1)) {
				t.Fatalf("post-drain Insert(%d) failed", k)
			}
		}
		mustCheck(t, m)
	})
}

// TestSequentialModel replays long random op sequences against a Go map and
// checks every response plus the full invariant suite periodically.
func TestSequentialModel(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, cfg Config) {
		m := newTestMap(t, cfg)
		model := make(map[int64]int64)
		rng := rand.New(rand.NewSource(42))
		const (
			ops      = 6000
			keySpace = 200
		)
		for i := 0; i < ops; i++ {
			k := int64(rng.Intn(keySpace))
			switch rng.Intn(3) {
			case 0:
				_, inModel := model[k]
				got := m.Insert(k, v64(k+int64(i)))
				if got == inModel {
					t.Fatalf("op %d: Insert(%d) = %t, model has=%t", i, k, got, inModel)
				}
				if got {
					model[k] = k + int64(i)
				}
			case 1:
				_, inModel := model[k]
				if got := m.Remove(k); got != inModel {
					t.Fatalf("op %d: Remove(%d) = %t, model has=%t", i, k, got, inModel)
				}
				delete(model, k)
			case 2:
				v, found := m.Lookup(k)
				mv, inModel := model[k]
				if found != inModel || (found && *v != mv) {
					t.Fatalf("op %d: Lookup(%d) mismatch", i, k)
				}
			}
			if m.Len() != len(model) {
				t.Fatalf("op %d: Len=%d model=%d", i, m.Len(), len(model))
			}
			if i%1000 == 999 {
				mustCheck(t, m)
			}
		}
		mustCheck(t, m)
	})
}

func TestKeysSortedAfterRandomWorkload(t *testing.T) {
	m := newTestMap(t, DefaultConfig())
	rng := rand.New(rand.NewSource(3))
	inserted := map[int64]bool{}
	for i := 0; i < 2000; i++ {
		k := int64(rng.Intn(1000))
		if rng.Intn(2) == 0 {
			if m.Insert(k, v64(k)) {
				inserted[k] = true
			}
		} else if m.Remove(k) {
			delete(inserted, k)
		}
	}
	keys := m.Keys()
	if len(keys) != len(inserted) {
		t.Fatalf("Keys() len %d, want %d", len(keys), len(inserted))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			t.Fatalf("Keys() not strictly ascending at %d", i)
		}
	}
	for _, k := range keys {
		if !inserted[k] {
			t.Fatalf("unexpected key %d", k)
		}
	}
}

func TestNodeCountGrowsWithChunking(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 99
	m := newTestMap(t, cfg)
	for k := int64(0); k < 4096; k++ {
		m.Insert(k, v64(k))
	}
	counts := m.NodeCount()
	// Data layer should hold ~4096/32..4096/64 nodes plus sentinels; well
	// over 64 and well under 4096.
	if counts[0] < 64 || counts[0] > 4096 {
		t.Fatalf("data layer node count %d implausible", counts[0])
	}
	// Each index layer should be much smaller than the one below.
	for l := 1; l < len(counts); l++ {
		if counts[l] > counts[l-1] {
			t.Fatalf("layer %d has %d nodes, more than layer %d's %d",
				l, counts[l], l-1, counts[l-1])
		}
	}
	mustCheck(t, m)
}

func TestStatsCounters(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TargetDataVectorSize = 2
	cfg.TargetIndexVectorSize = 2
	m := newTestMap(t, cfg)
	for k := int64(0); k < 200; k++ {
		m.Insert(k, v64(k))
	}
	s := m.Stats()
	if s.Splits == 0 {
		t.Fatal("expected splits with tiny chunks")
	}
	for k := int64(0); k < 200; k++ {
		m.Remove(k)
	}
	s = m.Stats()
	if s.Merges == 0 {
		t.Fatal("expected merges after removals")
	}
	mustCheck(t, m)
}

func TestHazardReclamationRecyclesNodes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TargetDataVectorSize = 2
	cfg.TargetIndexVectorSize = 2
	cfg.LayerCount = 5
	m := newTestMap(t, cfg)
	// Churn: repeated fill/drain cycles must reuse retired nodes.
	for cycle := 0; cycle < 6; cycle++ {
		for k := int64(0); k < 500; k++ {
			m.Insert(k, v64(k))
		}
		for k := int64(0); k < 500; k++ {
			m.Remove(k)
		}
	}
	s := m.Stats()
	if s.Reuses == 0 {
		t.Fatalf("no node reuse after churn: %+v", s)
	}
	mustCheck(t, m)
}

func TestLeakModeNeverRecycles(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Reclaim = ReclaimLeak
	cfg.TargetDataVectorSize = 2
	m := newTestMap(t, cfg)
	for cycle := 0; cycle < 3; cycle++ {
		for k := int64(0); k < 300; k++ {
			m.Insert(k, v64(k))
		}
		for k := int64(0); k < 300; k++ {
			m.Remove(k)
		}
	}
	if s := m.Stats(); s.Reuses != 0 {
		t.Fatalf("leak mode reused nodes: %+v", s)
	}
	mustCheck(t, m)
}

// TestValuesAreCopied pins the ownership rules of value.go for both value
// representations: the map copies a value in, so changing the caller's
// variable afterwards changes nothing, and hands a copy out, so changing a
// result changes nothing either.
func TestValuesAreCopied(t *testing.T) {
	t.Run("inline", func(t *testing.T) {
		valuesAreCopied(t, func(x int64) int64 { return x }, func(v int64) int64 { return v })
	})
	t.Run("boxed", func(t *testing.T) {
		valuesAreCopied(t, func(x int64) wide { return wide{x, -x, 1} }, func(v wide) int64 { return v[0] })
	})
}

func valuesAreCopied[V any](t *testing.T, enc func(int64) V, dec func(V) int64) {
	m := newTestMapOf[V](t, DefaultConfig())
	p := new(V)
	*p = enc(7)
	m.Insert(1, p)
	*p = enc(9)
	got, _ := m.Lookup(1)
	if got == p || dec(*got) != 7 {
		t.Fatalf("Lookup after the caller changed its variable = %d, want the inserted 7", dec(*got))
	}
	*got = enc(11)
	if again, _ := m.Lookup(1); dec(*again) != 7 {
		t.Fatalf("Lookup after the caller changed a result = %d, want 7", dec(*again))
	}
}

func TestReclaimModeString(t *testing.T) {
	if ReclaimHazard.String() != "hp" || ReclaimLeak.String() != "leak" {
		t.Fatal("ReclaimMode.String mismatch")
	}
	if s := ReclaimMode(9).String(); s != "ReclaimMode(9)" {
		t.Fatalf("unknown mode string = %q", s)
	}
}

func TestLargeSequentialLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := DefaultConfig()
	m := newTestMap(t, cfg)
	const n = 50000
	rng := rand.New(rand.NewSource(5))
	perm := rng.Perm(n)
	for _, k := range perm {
		if !m.Insert(int64(k), v64(int64(k))) {
			t.Fatalf("Insert(%d) failed", k)
		}
	}
	if m.Len() != n {
		t.Fatalf("Len = %d", m.Len())
	}
	for i := 0; i < n; i += 97 {
		if v, found := m.Lookup(int64(i)); !found || *v != int64(i) {
			t.Fatalf("Lookup(%d) failed", i)
		}
	}
	mustCheck(t, m)
}

func ExampleMap() {
	m, _ := NewMap[string](DefaultConfig())
	hello := "hello"
	m.Insert(1, &hello)
	if v, ok := m.Lookup(1); ok {
		fmt.Println(*v)
	}
	// Output: hello
}
