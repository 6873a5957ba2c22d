package shard

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skipvector/internal/core"
)

// collect returns the map's full content as key→value.
func collect(s *Sharded[int64]) map[int64]int64 {
	out := make(map[int64]int64)
	s.Ascend(func(k int64, v *int64) bool {
		out[k] = *v
		return true
	})
	return out
}

func TestSplitShardBasic(t *testing.T) {
	s := newTest(t, tinyCfg(), []int64{100})
	for k := int64(0); k < 200; k += 3 {
		v := k * 10
		s.Upsert(k, &v)
	}
	before := collect(s)

	rep, err := s.SplitShard(0, 50)
	if err != nil {
		t.Fatalf("SplitShard: %v", err)
	}
	if rep.Aborted || rep.Step != "done" || rep.Kind != "split" {
		t.Fatalf("unexpected report %+v", rep)
	}
	if got := s.Bounds(); len(got) != 2 || got[0] != 50 || got[1] != 100 {
		t.Fatalf("bounds after split: %v", got)
	}
	if s.ShardCount() != 3 {
		t.Fatalf("shard count %d", s.ShardCount())
	}
	// rep.Copied covered exactly shard 0's keys (0,3,...,99 → 34 keys).
	if rep.Copied != 34 {
		t.Fatalf("copied %d keys, want 34", rep.Copied)
	}
	after := collect(s)
	if len(after) != len(before) {
		t.Fatalf("content size changed: %d → %d", len(before), len(after))
	}
	for k, v := range before {
		if after[k] != v {
			t.Fatalf("key %d: %d → %d", k, v, after[k])
		}
	}
	mustCheck(t, s)
	if s.ShardFor(49) != 0 || s.ShardFor(50) != 1 || s.ShardFor(100) != 2 {
		t.Fatalf("routing after split: %d %d %d", s.ShardFor(49), s.ShardFor(50), s.ShardFor(100))
	}
}

func TestMergeShardsBasic(t *testing.T) {
	s := newTest(t, tinyCfg(), []int64{50, 100})
	for k := int64(0); k < 150; k += 2 {
		v := k
		s.Upsert(k, &v)
	}
	before := collect(s)

	rep, err := s.MergeShards(0)
	if err != nil {
		t.Fatalf("MergeShards: %v", err)
	}
	if rep.Aborted || rep.Step != "done" || rep.Kind != "merge" {
		t.Fatalf("unexpected report %+v", rep)
	}
	if got := s.Bounds(); len(got) != 1 || got[0] != 100 {
		t.Fatalf("bounds after merge: %v", got)
	}
	after := collect(s)
	if len(after) != len(before) {
		t.Fatalf("content size changed: %d → %d", len(before), len(after))
	}
	for k, v := range before {
		if after[k] != v {
			t.Fatalf("key %d: %d → %d", k, v, after[k])
		}
	}
	mustCheck(t, s)
}

func TestMigrationInvalidArgs(t *testing.T) {
	s := newTest(t, tinyCfg(), []int64{50})
	cases := []func() error{
		func() error { _, err := s.SplitShard(-1, 10); return err },
		func() error { _, err := s.SplitShard(2, 10); return err },
		func() error { _, err := s.SplitShard(0, 50); return err }, // == highOf(0)
		func() error { _, err := s.SplitShard(1, 50); return err }, // == lowOf(1)
		func() error { _, err := s.SplitShard(0, MinKey); return err },
		func() error { _, err := s.MergeShards(-1); return err },
		func() error { _, err := s.MergeShards(1); return err }, // no right neighbor
	}
	for i, f := range cases {
		if err := f(); err == nil {
			t.Errorf("case %d: invalid migration accepted", i)
		}
	}
	// Valid boundary keys at the extremes of the interval are accepted.
	if _, err := s.SplitShard(0, 49); err != nil {
		t.Fatalf("split at interval edge: %v", err)
	}
	mustCheck(t, s)
}

// TestMigrationCopyIsFrozen races an update, an insert and a delete into
// the migrating range from the copy's first pair and holds the copy open
// for 20 ms. The seal comes before the copy, so none of the writes may
// complete while it runs and the copied pairs hold none of them; all three
// must be visible once the split returns. It runs once on a map that
// stores values inline and once on one that boxes them: the copy reads
// both from the frozen source chunks.
func TestMigrationCopyIsFrozen(t *testing.T) {
	t.Run("inline", func(t *testing.T) {
		copyIsFrozen(t, func(x int64) int64 { return x })
	})
	t.Run("boxed", func(t *testing.T) {
		copyIsFrozen(t, func(x int64) string { return fmt.Sprint("v", x) })
	})
}

func copyIsFrozen[V comparable](t *testing.T, enc func(int64) V) {
	s, err := New[V](tinyCfg(), []int64{100})
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 100; k += 5 {
		v := enc(k)
		s.Upsert(k, &v)
	}
	var wrote atomic.Int32
	var wroteDuringCopy int32
	var writers sync.WaitGroup
	copied := make(map[int64]V)
	s.copyObserver = func(k int64, v *V) {
		if len(copied) == 0 {
			for _, w := range []func(){
				func() { nv := enc(9999); s.Upsert(10, &nv) },
				func() { iv := enc(7777); s.Insert(13, &iv) },
				func() { s.Remove(20) },
			} {
				writers.Add(1)
				go func() {
					defer writers.Done()
					w()
					wrote.Add(1)
				}()
			}
			time.Sleep(20 * time.Millisecond)
		}
		wroteDuringCopy = max(wroteDuringCopy, wrote.Load())
		copied[k] = *v
	}
	rep, err := s.SplitShard(0, 50)
	s.copyObserver = nil
	if err != nil || rep.Aborted {
		t.Fatalf("SplitShard: %+v, %v", rep, err)
	}
	if wroteDuringCopy != 0 {
		t.Fatalf("%d writes into the migrating range completed during the copy", wroteDuringCopy)
	}
	if len(copied) == 0 {
		t.Fatal("copy observer never ran (empty copy?)")
	}
	if copied[10] != enc(10) || copied[20] != enc(20) {
		t.Fatalf("copy saw a racing write: key 10 = %v, key 20 = %v", copied[10], copied[20])
	}
	if _, ok := copied[13]; ok {
		t.Fatal("copy saw a racing insert")
	}
	done := make(chan struct{})
	go func() { writers.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("parked writers never released after publish")
	}
	if v, ok := s.Lookup(10); !ok || *v != enc(9999) {
		t.Fatalf("updated key lost: %v %v", v, ok)
	}
	if v, ok := s.Lookup(13); !ok || *v != enc(7777) {
		t.Fatalf("inserted key lost: %v %v", v, ok)
	}
	if _, ok := s.Lookup(20); ok {
		t.Fatal("deleted key resurrected")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSealParksWriters proves the write redirect: a write into the sealed
// range issued while the migrator copies must park, must not complete
// until the successor table is published, and must land in the
// destination. The migrator is held in the copy observer, so the writer
// has no way to complete but to park.
func TestSealParksWriters(t *testing.T) {
	s := newTest(t, tinyCfg(), []int64{100})
	for k := int64(0); k < 100; k += 10 {
		v := k
		s.Upsert(k, &v)
	}
	wrote := make(chan struct{})
	started := false
	s.copyObserver = func(int64, *int64) {
		if started {
			return
		}
		started = true
		go func() {
			v := int64(4242)
			s.Upsert(42, &v)
			close(wrote)
		}()
		deadline := time.After(10 * time.Second)
		for s.sealWaits.Load() == 0 {
			select {
			case <-wrote:
				t.Error("sealed write completed during the sealed window")
				return
			case <-deadline:
				t.Error("writer never parked on the seal within 10 s")
				return
			default:
				time.Sleep(time.Millisecond)
			}
		}
		select {
		case <-wrote:
			t.Error("write completed while parked on the seal")
		default:
		}
	}
	rep, err := s.SplitShard(0, 50)
	s.copyObserver = nil
	if err != nil {
		t.Fatalf("SplitShard: %v", err)
	}
	if rep.Aborted {
		t.Fatalf("unexpected abort: %+v", rep)
	}
	select {
	case <-wrote:
	case <-time.After(2 * time.Second):
		t.Fatal("parked writer never released after publish")
	}
	if v, ok := s.Lookup(42); !ok || *v != 4242 {
		t.Fatalf("parked write lost: %v %v", v, ok)
	}
	mustCheck(t, s)
}

// TestHandleRebindAcrossMigration opens a session, splits and merges under
// it, and proves the handle keeps routing correctly — a handle that pinned
// the old table would write into a frozen, unreferenced source map.
func TestHandleRebindAcrossMigration(t *testing.T) {
	s := newTest(t, tinyCfg(), []int64{100})
	h := s.NewHandle()
	defer h.Close()
	for k := int64(0); k < 200; k += 10 {
		v := k
		if !h.Upsert(k, &v) {
			t.Fatalf("Upsert(%d) found existing key", k)
		}
	}
	if _, err := s.SplitShard(0, 50); err != nil {
		t.Fatalf("SplitShard: %v", err)
	}
	// Writes through the stale handle must land in the NEW maps.
	v := int64(1)
	h.Upsert(10, &v)
	if got, ok := s.Lookup(10); !ok || *got != 1 {
		t.Fatalf("handle write after split lost: %v %v", got, ok)
	}
	if got, ok := h.Lookup(110); !ok || *got != 110 {
		t.Fatalf("handle read after split: %v %v", got, ok)
	}
	if _, err := s.MergeShards(1); err != nil {
		t.Fatalf("MergeShards: %v", err)
	}
	v2 := int64(2)
	h.Upsert(60, &v2)
	if got, ok := s.Lookup(60); !ok || *got != 2 {
		t.Fatalf("handle write after merge lost: %v %v", got, ok)
	}
	if k, fv, ok := h.Floor(65); !ok || k != 60 || *fv != 2 {
		t.Fatalf("handle Floor after merge: %d %v %v", k, fv, ok)
	}
	mustCheck(t, s)
}

// TestLoadStatsWindowResets proves the observer window: counters count ops
// since the current table landed and reset at every publication.
func TestLoadStatsWindowResets(t *testing.T) {
	s := newTest(t, tinyCfg(), []int64{100})
	for k := int64(0); k < 200; k += 10 {
		v := k
		s.Upsert(k, &v)
	}
	base := s.LoadStats()
	if base[0].Ops == 0 || base[1].Ops == 0 {
		t.Fatalf("writes not counted: %+v", base)
	}
	if base[0].Keys != 10 || base[1].Keys != 10 {
		t.Fatalf("occupancy wrong: %+v", base)
	}
	if _, err := s.SplitShard(0, 50); err != nil {
		t.Fatalf("SplitShard: %v", err)
	}
	fresh := s.LoadStats()
	if len(fresh) != 3 {
		t.Fatalf("stats arity after split: %+v", fresh)
	}
	for i, st := range fresh {
		if st.Ops != 0 {
			t.Fatalf("shard %d window not reset: %+v", i, fresh)
		}
	}
}

// TestRebalanceMetricsExposed checks the new counter families render in the
// combined exposition and move after a migration.
func TestRebalanceMetricsExposed(t *testing.T) {
	s := newTest(t, tinyCfg(), []int64{100})
	for k := int64(0); k < 200; k += 10 {
		v := k
		s.Upsert(k, &v)
	}
	if _, err := s.SplitShard(0, 50); err != nil {
		t.Fatalf("SplitShard: %v", err)
	}
	if _, err := s.MergeShards(0); err != nil {
		t.Fatalf("MergeShards: %v", err)
	}
	var b strings.Builder
	if err := s.WriteMetrics(&b); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	out := b.String()
	for _, want := range []string{
		"sv_shard_rebalance_splits_total 1",
		"sv_shard_rebalance_merges_total 1",
		"sv_shard_rebalance_aborts_total 0",
		"sv_shard_rebalance_keys_copied_total",
		"sv_shard_rebalance_seal_ns_total",
		"sv_shard_rebalance_seal_waits_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Migration-built shards carry fresh identity labels: the split made
	// shards 2 and 3, the merge made shard 4.
	if !strings.Contains(out, `shard="4"`) {
		t.Error("migration-built shard label missing")
	}
}

// TestMigrationLostUpdateCampaign is the zero-lost-ops proof: workers own
// disjoint key slices and read back every write immediately (owner-keyed
// read-your-writes — any write landing in a frozen source or a swallowed
// delete fails the very next read), while the main goroutine drives
// continuous splits and merges through the full protocol. The final state
// is compared against each worker's own record.
func TestMigrationLostUpdateCampaign(t *testing.T) {
	const (
		workers  = 4
		perSlice = 256
	)
	rounds := 30
	if testing.Short() {
		rounds = 8
	}
	seed := campaignSeed(0x9eba1a)
	s := newTest(t, tinyCfg(), []int64{256, 512, 768})
	var (
		wg   sync.WaitGroup
		stop atomic.Bool
		fail atomic.Value // first worker error, if any
	)
	finals := make([]map[int64]int64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(seed) + int64(w)))
			base := int64(w) * perSlice
			mine := make(map[int64]int64)
			for i := 0; !stop.Load(); i++ {
				k := base + int64(rng.Intn(perSlice))
				switch rng.Intn(4) {
				case 0: // remove + read-your-delete
					_, had := mine[k]
					got := s.Remove(k)
					if got != had {
						fail.Store(fmt.Errorf("worker %d: Remove(%d)=%t, owner state says %t %s", w, k, got, had, seedNote(seed)))
						return
					}
					delete(mine, k)
					if _, ok := s.Lookup(k); ok {
						fail.Store(fmt.Errorf("worker %d: key %d visible after own delete %s", w, k, seedNote(seed)))
						return
					}
				default: // upsert + read-your-write
					v := int64(i)
					_, had := mine[k]
					inserted := s.Upsert(k, &v)
					if inserted == had {
						fail.Store(fmt.Errorf("worker %d: Upsert(%d) inserted=%t, owner state says present=%t %s", w, k, inserted, had, seedNote(seed)))
						return
					}
					mine[k] = v
					got, ok := s.Lookup(k)
					if !ok || *got != v {
						fail.Store(fmt.Errorf("worker %d: lost own write %d=%d (got %v,%t) %s", w, k, v, got, ok, seedNote(seed)))
						return
					}
				}
			}
			finals[w] = mine
		}(w)
	}

	// Migration driver: alternate splits of the currently-largest shard and
	// merges of the first pair, exercising every protocol step under fire.
	rng := rand.New(rand.NewSource(int64(seed) ^ 0x5eed))
	for r := 0; r < rounds; r++ {
		if s.ShardCount() < 6 && rng.Intn(2) == 0 {
			stats := s.LoadStats()
			big, bigKeys := 0, -1
			for i, st := range stats {
				if st.Keys > bigKeys {
					big, bigKeys = i, st.Keys
				}
			}
			t0 := s.tab.Load()
			if key, ok := medianKey(t0.maps[big], t0.lowOf(big), t0.highOf(big)); ok {
				if _, err := s.SplitShard(big, key); err != nil {
					t.Fatalf("round %d SplitShard: %v %s", r, err, seedNote(seed))
				}
			}
		} else if s.ShardCount() > 1 {
			if _, err := s.MergeShards(rng.Intn(s.ShardCount() - 1)); err != nil {
				t.Fatalf("round %d MergeShards: %v %s", r, err, seedNote(seed))
			}
		}
		if fail.Load() != nil {
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	if err := fail.Load(); err != nil {
		t.Fatal(err)
	}

	// Final differential: the map's content is exactly the union of the
	// workers' records — nothing lost, nothing resurrected.
	got := collect(s)
	want := make(map[int64]int64)
	for _, m := range finals {
		for k, v := range m {
			want[k] = v
		}
	}
	if len(got) != len(want) {
		t.Fatalf("final size %d, want %d %s", len(got), len(want), seedNote(seed))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("final key %d = %d, want %d %s", k, got[k], v, seedNote(seed))
		}
	}
	if s.rebSplits.Load()+s.rebMerges.Load() == 0 {
		t.Fatalf("campaign ran no migrations %s", seedNote(seed))
	}
	mustCheck(t, s)
}

// medianKey returns the occupancy-median key of m's interval [lo, hi) — the
// key with half the shard's entries below it — or false when the shard is
// too small to split (under two keys). The returned key is strictly inside
// the interval: the median index is ≥1, so at least one key sorts below it.
func medianKey[V any](m *core.Map[V], lo, hi int64) (int64, bool) {
	n := m.Len()
	if n < 2 {
		return 0, false
	}
	target := n / 2
	var key int64
	found := false
	idx := 0
	m.RangeQuery(lo, hi-1, func(k int64, _ *V) bool {
		if idx == target {
			key, found = k, true
			return false
		}
		idx++
		return true
	})
	return key, found
}
