package skipvector

import (
	"encoding/binary"
	"fmt"
	"sort"
	"testing"
)

// TestShardedMapRebalanceFacade exercises the online-boundary API through
// the public facade: split, merge and load sampling, with the content intact
// and invariants green across every move.
func TestShardedMapRebalanceFacade(t *testing.T) {
	m := newShardedTest(t)
	for k := int64(0); k < 40; k++ {
		m.Upsert(k, fmt.Sprintf("v%d", k))
	}

	rep, err := m.SplitShard(0, 5)
	if err != nil {
		t.Fatalf("SplitShard: %v", err)
	}
	if rep.Aborted || rep.Kind != "split" {
		t.Fatalf("split report %+v", rep)
	}
	if m.ShardCount() != 5 || m.ShardFor(4) != 0 || m.ShardFor(5) != 1 {
		t.Fatalf("post-split routing: %d shards, bounds %v", m.ShardCount(), m.ShardBounds())
	}

	if rep, err = m.MergeShards(0); err != nil || rep.Kind != "merge" {
		t.Fatalf("MergeShards: %+v %v", rep, err)
	}
	if m.ShardCount() != 4 {
		t.Fatalf("post-merge shards = %d", m.ShardCount())
	}

	// The load observer sees the ops the facade routed.
	for i := 0; i < 64; i++ {
		m.Contains(int64(i % 40))
	}
	stats := m.ShardLoadStats()
	if len(stats) != 4 {
		t.Fatalf("ShardLoadStats = %d entries", len(stats))
	}
	var ops int64
	for _, st := range stats {
		ops += st.Ops
	}
	if ops == 0 {
		t.Fatal("load observer recorded nothing")
	}

	for k := int64(0); k < 40; k++ {
		if v, ok := m.Lookup(k); !ok || v != fmt.Sprintf("v%d", k) {
			t.Fatalf("key %d lost across boundary moves: %q,%v", k, v, ok)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// FuzzShardedCursorBoundaries drives the public cursor across fuzz-derived
// shard boundaries: the walk from MinKey must enumerate exactly the sorted
// key set whatever the split layout, and SeekTo/Floor/Ceiling probed at,
// below, and above every boundary must agree with a sorted-slice oracle.
func FuzzShardedCursorBoundaries(f *testing.F) {
	f.Add([]byte{2, 10, 0, 0, 0, 0, 0, 0, 0, 20, 0, 0, 0, 0, 0, 0, 0, 15})
	f.Add([]byte{5, 1, 0, 1, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := int(data[0]%6) + 1
		data = data[1:]
		raw := map[int64]bool{}
		for i := 0; i < n && len(data) >= 8; i++ {
			k := int64(binary.LittleEndian.Uint64(data[:8]) % 1000)
			data = data[8:]
			if k > 0 {
				raw[k] = true
			}
		}
		if len(raw) == 0 {
			return
		}
		var splits []int64
		for k := range raw {
			splits = append(splits, k)
		}
		sort.Slice(splits, func(i, j int) bool { return splits[i] < splits[j] })

		m := NewSharded[int64](splits,
			WithLayerCount(2), WithTargetDataVectorSize(4), WithTargetIndexVectorSize(4))
		present := map[int64]bool{}
		for _, sp := range splits {
			for _, k := range []int64{sp - 1, sp, sp + 1} {
				if k > MinKey && k < MaxKey && !present[k] {
					m.Upsert(k, k)
					present[k] = true
				}
			}
		}
		var keys []int64
		for k := range present {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

		// Full walk across every boundary.
		c := m.Cursor(MinKey + 1)
		defer c.Close()
		for i, want := range keys {
			k, v, ok := c.Next()
			if !ok || k != want || v != want {
				t.Fatalf("walk[%d] over %v = (%d,%d,%t), want %d", i, splits, k, v, ok, want)
			}
		}
		if k, _, ok := c.Next(); ok {
			t.Fatalf("walk overran: extra key %d", k)
		}

		// SeekTo and Floor/Ceiling exactly at, below, and above each split.
		for _, sp := range splits {
			for _, probe := range []int64{sp - 1, sp, sp + 1} {
				if probe <= MinKey || probe >= MaxKey {
					continue
				}
				i := sort.Search(len(keys), func(i int) bool { return keys[i] >= probe })
				c.SeekTo(probe)
				k, _, ok := c.Next()
				if i == len(keys) {
					if ok {
						t.Fatalf("SeekTo(%d) over %v found %d past the end", probe, splits, k)
					}
				} else if !ok || k != keys[i] {
					t.Fatalf("SeekTo(%d) over %v = (%d,%t), want %d", probe, splits, k, ok, keys[i])
				}
				fk, _, fok := m.Floor(probe)
				j := sort.Search(len(keys), func(i int) bool { return keys[i] > probe })
				if wok := j > 0; fok != wok || (fok && fk != keys[j-1]) {
					t.Fatalf("Floor(%d) over %v = (%d,%t)", probe, splits, fk, fok)
				}
				ck, _, cok := m.Ceiling(probe)
				if wok := i < len(keys); cok != wok || (cok && ck != keys[i]) {
					t.Fatalf("Ceiling(%d) over %v = (%d,%t)", probe, splits, ck, cok)
				}
			}
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
