package skipvector

import (
	"strings"
	"testing"
)

// newShardedTest builds a 4-shard map over [0, 40) with small chunks.
func newShardedTest(t *testing.T) *ShardedMap[string] {
	t.Helper()
	return NewSharded[string](EvenShardBounds(0, 40, 4),
		WithLayerCount(3), WithTargetDataVectorSize(2), WithTargetIndexVectorSize(2))
}

// TestShardedMapBasics covers what only the sharded map has: its routing
// surface. The map contract itself is TestConformance's.
func TestShardedMapBasics(t *testing.T) {
	m := newShardedTest(t)
	if m.ShardCount() != 4 {
		t.Fatalf("ShardCount = %d", m.ShardCount())
	}
	if b := m.ShardBounds(); len(b) != 3 || b[0] != 10 || b[1] != 20 || b[2] != 30 {
		t.Fatalf("ShardBounds = %v", b)
	}
	if m.ShardFor(9) != 0 || m.ShardFor(10) != 1 || m.ShardFor(39) != 3 {
		t.Fatal("routing off")
	}
	for k := int64(5); k < 40; k += 10 {
		m.Upsert(k, "v")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if len(m.ShardStats()) != 4 {
		t.Fatal("ShardStats")
	}
	m.FlushRetired()
}

// TestShardedWriteMetrics pins the exported exposition: the router gauge and
// per-shard labeled series are present, with one TYPE header per family.
func TestShardedWriteMetrics(t *testing.T) {
	m := newShardedTest(t)
	for k := int64(0); k < 40; k += 2 {
		m.Upsert(k, "v")
	}
	var b strings.Builder
	if err := m.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"sv_shard_count 4",
		`sv_len{shard="0"}`,
		`sv_len{shard="3"}`,
		"sv_shard_batch_fanout_total",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# TYPE sv_len gauge"); n != 1 {
		t.Fatalf("sv_len TYPE headers = %d", n)
	}
	if m.Metrics() == nil {
		t.Fatal("Metrics() nil")
	}
}

func TestNewShardedPanicsOnBadSplits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on descending splits")
		}
	}()
	NewSharded[int]([]int64{20, 10})
}

// TestShardedCursorAcrossBoundaries scans a cursor through all four shards,
// seeks backwards across a boundary, and revives a closed cursor.
func TestShardedCursorAcrossBoundaries(t *testing.T) {
	m := newShardedTest(t)
	keys := []int64{1, 9, 10, 19, 20, 29, 30, 39}
	for _, k := range keys {
		m.Upsert(k, "v")
	}
	c := m.Cursor(0)
	defer c.Close()
	var got []int64
	for {
		k, _, ok := c.Next()
		if !ok {
			break
		}
		got = append(got, k)
	}
	if len(got) != len(keys) {
		t.Fatalf("scan = %v", got)
	}
	for i := range keys {
		if got[i] != keys[i] {
			t.Fatalf("scan = %v, want %v", got, keys)
		}
	}
	// Exhausted cursor stays exhausted...
	if _, _, ok := c.Next(); ok {
		t.Fatal("cursor revived itself")
	}
	// ...until SeekTo revives it, mid-keyspace, across a boundary.
	c.SeekTo(15)
	if k, _, ok := c.Next(); !ok || k != 19 {
		t.Fatalf("after SeekTo(15): %d,%v", k, ok)
	}
	if k, _, ok := c.Next(); !ok || k != 20 {
		t.Fatalf("boundary crossing: %d,%v", k, ok)
	}
	c.Close()
	c.Close() // idempotent
}
