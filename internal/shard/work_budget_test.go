package shard

import (
	"math/rand"
	"runtime"
	"testing"

	"skipvector/internal/core"
)

// TestWorkBudgets is the router's share of the work budgets (core's
// work_budget_test.go): single-threaded counts that do not depend on the
// clock. A routed read allocates nothing, and a sorted batch commits one
// part per shard it touches, no more.
func TestWorkBudgets(t *testing.T) {
	const n = 1 << 12 // keys 0, 2, …, 2(n-1) over four even shards
	s, err := New[uint64](core.DefaultConfig(), EvenBounds(0, 2*n, 4))
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 2*n; k += 2 {
		v := uint64(k)
		s.Insert(k, &v)
	}
	h := s.NewHandle()
	defer h.Close()
	i := int64(0)
	nextKey := func() int64 { // present and absent keys in every shard
		i++
		return i * 7919 % (2 * n)
	}
	var out uint64
	for _, row := range []struct {
		name string
		op   func(k int64)
	}{
		{"Sharded.LookupInto", func(k int64) { s.LookupInto(k, &out) }},
		{"Sharded.Contains", func(k int64) { s.Contains(k) }},
		{"Handle.LookupInto", func(k int64) { h.LookupInto(k, &out) }},
		{"Handle.Contains", func(k int64) { h.Contains(k) }},
	} {
		if got := testing.AllocsPerRun(1000, func() { row.op(nextKey()) }); got != 0 {
			t.Errorf("allocs per routed %s = %.2f, budget 0", row.name, got)
		}
	}

	// Writes, on both entry points. A routed Upsert allocates nothing; a
	// batch confined to one shard allocates only that shard's results; a
	// sorted batch over four shards is partitioned in place, and an
	// unsorted one pays a constant few allocations more for its one
	// permuted copy, not one per op.
	sorted := make([]core.BatchOp[uint64], 64)
	vals := make([]uint64, len(sorted))
	for j := range sorted {
		k := int64(j)*2*n/int64(len(sorted)) | 1 // 16 keys in each shard
		vals[j] = uint64(k)
		sorted[j] = core.BatchOp[uint64]{Key: k, Val: &vals[j]}
	}
	unsorted := append([]core.BatchOp[uint64](nil), sorted...)
	rand.New(rand.NewSource(1)).Shuffle(len(unsorted), func(a, b int) {
		unsorted[a], unsorted[b] = unsorted[b], unsorted[a]
	})
	single := sorted[:16]
	if s.ShardFor(single[0].Key) != s.ShardFor(single[len(single)-1].Key) ||
		s.ShardFor(sorted[0].Key) == s.ShardFor(sorted[len(sorted)-1].Key) {
		t.Fatal("batch keys do not route as the rows assume")
	}
	var in uint64
	for _, e := range []struct {
		name       string
		upsert     func(k int64, v *uint64) bool
		applyBatch func(ops []core.BatchOp[uint64]) []core.BatchResult
	}{
		{"Sharded", s.Upsert, s.ApplyBatch},
		{"Handle", h.Upsert, h.ApplyBatch},
	} {
		for _, row := range []struct {
			name   string
			budget float64
			op     func()
		}{
			{"routed Upsert", 0, func() { e.upsert(nextKey()&^1, &in) }},
			{"single-shard batch", 1, func() { e.applyBatch(single) }},
			{"sorted 64-op batch over 4 shards", 15, func() { e.applyBatch(sorted) }},
			{"unsorted 64-op batch over 4 shards", 17, func() { e.applyBatch(unsorted) }},
		} {
			if got := testing.AllocsPerRun(200, row.op); got > row.budget {
				t.Errorf("%s: allocs per %s = %.2f, budget %.0f", e.name, row.name, got, row.budget)
			} else {
				t.Logf("%s: allocs per %s = %.2f (budget %.0f)", e.name, row.name, got, row.budget)
			}
		}
	}

	for touched := 1; touched <= s.ShardCount(); touched++ {
		// 64 sorted keys spread over the first touched shards.
		ops := make([]core.BatchOp[uint64], 64)
		shards := map[int]bool{}
		for j := range ops {
			k := int64(j) * int64(touched) * 2 * n / int64(len(ops)) / int64(s.ShardCount())
			v := uint64(k)
			ops[j] = core.BatchOp[uint64]{Key: k | 1, Val: &v}
			shards[s.ShardFor(k|1)] = true
		}
		if len(shards) != touched {
			t.Fatalf("a batch meant for %d shards routes to %d", touched, len(shards))
		}
		parts := s.fanoutParts.Load() + s.singleBatch.Load()
		s.ApplyBatch(ops)
		if got := s.fanoutParts.Load() + s.singleBatch.Load() - parts; got != int64(touched) {
			t.Errorf("a sorted batch over %d shards committed %d parts", touched, got)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMigrationWorkBudgets splits one shard of 2^16 sequential keys,
// single-threaded under the default configuration, and bounds what the
// move costs: the copy reads each key once, allocates mostly per chunk,
// not per key, and bulk-loads destinations with full chunks. The sealed
// window is logged, not gated: it is a clock reading.
func TestMigrationWorkBudgets(t *testing.T) {
	const n = 1 << 16
	s, err := New[uint64](core.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < n; k++ {
		v := uint64(k)
		s.Insert(k, &v)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := s.SplitShard(0, n/2)
	runtime.ReadMemStats(&after)
	if err != nil || rep.Aborted {
		t.Fatalf("SplitShard: %+v, %v", rep, err)
	}
	var elems, chunks, walked int
	for _, m := range s.tab.Load().maps {
		occ := m.Occupancy()
		elems += occ.DataElems
		chunks += occ.DataChunks
		walked += occ.NodeBytes + occ.DataBytes + occ.IndexBytes
	}
	if rep.Copied != n {
		t.Errorf("copied %d pairs, want %d", rep.Copied, n)
	}
	for _, row := range []struct {
		name      string
		got, want float64
		atLeast   bool
	}{
		{"allocs per moved key", float64(after.Mallocs-before.Mallocs) / n, 0.10, false},
		{"destination keys per data chunk", float64(elems) / float64(chunks), 31.5, true},
		{"destination walked bytes per key", float64(walked) / n, 12.3, false},
	} {
		if row.atLeast && row.got < row.want || !row.atLeast && row.got > row.want {
			t.Errorf("%s = %.3f, budget %.2f", row.name, row.got, row.want)
		} else {
			t.Logf("%s = %.3f (budget %.2f)", row.name, row.got, row.want)
		}
	}
	t.Logf("sealed %v for %d keys", rep.Sealed, rep.Copied)
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
