package shard

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"skipvector/internal/core"
)

// tinyCfg keeps chunks small so even small key spaces split across nodes.
func tinyCfg() core.Config {
	cfg := core.DefaultConfig()
	cfg.LayerCount = 3
	cfg.TargetDataVectorSize = 2
	cfg.TargetIndexVectorSize = 2
	return cfg
}

func newTest(t *testing.T, cfg core.Config, splits []int64) *Sharded[int64] {
	t.Helper()
	s, err := New[int64](cfg, splits)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func put(t *testing.T, s *Sharded[int64], keys ...int64) {
	t.Helper()
	for _, k := range keys {
		v := k * 10
		if !s.Upsert(k, &v) {
			t.Fatalf("Upsert(%d) found existing key", k)
		}
	}
}

func mustCheck(t *testing.T, s *Sharded[int64]) {
	t.Helper()
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

func TestEvenBounds(t *testing.T) {
	cases := []struct {
		lo, hi int64
		shards int
		want   []int64
	}{
		{0, 100, 4, []int64{25, 50, 75}},
		{0, 100, 1, []int64{}},
		{-50, 50, 2, []int64{0}},
		{0, 7, 3, []int64{2, 4}},
	}
	for _, c := range cases {
		got := EvenBounds(c.lo, c.hi, c.shards)
		if len(got) != len(c.want) {
			t.Fatalf("EvenBounds(%d,%d,%d) = %v, want %v", c.lo, c.hi, c.shards, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("EvenBounds(%d,%d,%d) = %v, want %v", c.lo, c.hi, c.shards, got, c.want)
			}
		}
	}
	if got := EvenBounds(0, 0, 4); got != nil {
		t.Fatalf("empty interval: %v", got)
	}
	if got := EvenBounds(0, 100, 0); got != nil {
		t.Fatalf("zero shards: %v", got)
	}
}

func TestRouterBoundaryExactness(t *testing.T) {
	s := newTest(t, tinyCfg(), []int64{10, 20})
	cases := map[int64]int{
		MinKey + 1: 0, -5: 0, 9: 0,
		10: 1, 15: 1, 19: 1, // split keys belong to the RIGHT shard
		20: 2, 1000: 2, MaxKey - 1: 2,
	}
	for k, want := range cases {
		if got := s.ShardFor(k); got != want {
			t.Errorf("ShardFor(%d) = %d, want %d", k, got, want)
		}
	}
	// A key on each side of each boundary must land where routing says.
	for _, k := range []int64{9, 10, 19, 20} {
		v := k
		s.Upsert(k, &v)
	}
	mustCheck(t, s)
	if s.ShardCount() != 3 {
		t.Fatalf("ShardCount = %d", s.ShardCount())
	}
	if b := s.Bounds(); len(b) != 2 || b[0] != 10 || b[1] != 20 {
		t.Fatalf("Bounds = %v", b)
	}
}

func TestNewRejectsBadSplits(t *testing.T) {
	for name, splits := range map[string][]int64{
		"descending": {20, 10},
		"duplicate":  {10, 10},
		"min-key":    {MinKey},
		"max-key":    {MaxKey},
	} {
		if _, err := New[int64](tinyCfg(), splits); err == nil {
			t.Errorf("%s splits %v accepted", name, splits)
		}
	}
	if _, err := New[int64](tinyCfg(), make([]int64, MaxShards)); err == nil {
		t.Error("MaxShards+1 shards accepted")
	}
}

func TestPointOpsAcrossShards(t *testing.T) {
	s := newTest(t, tinyCfg(), []int64{32, 64, 96})
	var keys []int64
	for k := int64(0); k < 128; k += 3 {
		keys = append(keys, k)
	}
	put(t, s, keys...)
	if s.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(keys))
	}
	for _, k := range keys {
		p, ok := s.Lookup(k)
		if !ok || *p != k*10 {
			t.Fatalf("Lookup(%d) = %v,%v", k, p, ok)
		}
	}
	got := s.Keys()
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("Keys not sorted: %v", got)
	}
	if len(got) != len(keys) {
		t.Fatalf("Keys len = %d, want %d", len(got), len(keys))
	}
	// Remove every key that sits exactly on a boundary.
	for _, k := range []int64{33, 66, 96} {
		if s.Contains(k) != (k%3 == 0) {
			t.Fatalf("Contains(%d) wrong", k)
		}
	}
	for _, k := range keys[:10] {
		if !s.Remove(k) {
			t.Fatalf("Remove(%d) missed", k)
		}
	}
	if s.Len() != len(keys)-10 {
		t.Fatalf("Len after removes = %d", s.Len())
	}
	mustCheck(t, s)
}

// TestFloorCeilingAcrossBoundaries pins the shard-walk: when the owning
// shard has no answer, Floor walks left and Ceiling walks right — including
// across entirely empty shards and shards holding a single key.
func TestFloorCeilingAcrossBoundaries(t *testing.T) {
	// Shards: [..,10) {5}, [10,20) empty, [20,30) {25} single-key, [30,..) {40}
	s := newTest(t, tinyCfg(), []int64{10, 20, 30})
	put(t, s, 5, 25, 40)

	if k, v, ok := s.Floor(22); !ok || k != 5 || *v != 50 {
		t.Fatalf("Floor(22) = %d,%v,%v want 5 (two shards left)", k, v, ok)
	}
	if k, _, ok := s.Floor(25); !ok || k != 25 {
		t.Fatalf("Floor(25) = %d,%v want exact hit", k, ok)
	}
	if k, _, ok := s.Ceiling(11); !ok || k != 25 {
		t.Fatalf("Ceiling(11) = %d,%v want 25 (across empty shard)", k, ok)
	}
	if k, _, ok := s.Ceiling(26); !ok || k != 40 {
		t.Fatalf("Ceiling(26) = %d,%v want 40", k, ok)
	}
	if _, _, ok := s.Floor(4); ok {
		t.Fatal("Floor(4) found a key below the minimum")
	}
	if _, _, ok := s.Ceiling(41); ok {
		t.Fatal("Ceiling(41) found a key above the maximum")
	}
	if k, _, ok := s.Ceiling(MinKey + 1); !ok || k != 5 {
		t.Fatalf("Ceiling(MinKey+1) = %d,%v", k, ok)
	}
	if k, _, ok := s.Floor(MaxKey - 1); !ok || k != 40 {
		t.Fatalf("Floor(MaxKey-1) = %d,%v", k, ok)
	}

	// Fully empty map: every navigation comes back empty.
	e := newTest(t, tinyCfg(), []int64{10})
	if _, _, ok := e.Ceiling(MinKey + 1); ok {
		t.Fatal("Ceiling(MinKey+1) on empty")
	}
	if _, _, ok := e.Floor(MaxKey - 1); ok {
		t.Fatal("Floor(MaxKey-1) on empty")
	}

	// Empty leading shards: the smallest key sits two shards right of the
	// one that owns MinKey+1.
	l := newTest(t, tinyCfg(), []int64{10, 20})
	put(t, l, 25)
	if k, _, ok := l.Ceiling(MinKey + 1); !ok || k != 25 {
		t.Fatalf("Ceiling(MinKey+1) over empty leading shards = %d,%v", k, ok)
	}
	if k, _, ok := l.Floor(MaxKey - 1); !ok || k != 25 {
		t.Fatalf("Floor(MaxKey-1) over empty leading shards = %d,%v", k, ok)
	}
}

// TestRangeStitching drives windows that start before, inside, and after
// shard boundaries — including windows whose middle shard is empty — and
// checks the stitched stream is exactly the sorted key order.
func TestRangeStitching(t *testing.T) {
	s := newTest(t, tinyCfg(), []int64{10, 20, 30})
	keys := []int64{1, 5, 9, 10, 11, 25, 30, 35} // shard [10,20) nonempty, [20,30) holds 25
	put(t, s, keys...)

	collect := func(lo, hi int64) []int64 {
		var got []int64
		s.RangeQuery(lo, hi, func(k int64, v *int64) bool {
			if *v != k*10 {
				t.Fatalf("RangeQuery(%d,%d) key %d has value %d", lo, hi, k, *v)
			}
			got = append(got, k)
			return true
		})
		return got
	}
	want := func(lo, hi int64) []int64 {
		var w []int64
		for _, k := range keys {
			if k >= lo && k <= hi {
				w = append(w, k)
			}
		}
		return w
	}
	for _, win := range [][2]int64{
		{0, 40},                  // all shards
		{9, 10},                  // exactly straddles a boundary
		{10, 19},                 // one interior shard
		{5, 25},                  // three shards
		{12, 24},                 // starts mid-shard, ends mid-shard
		{36, 100},                // past the last key
		{MinKey + 1, MaxKey - 1}, // full key space
	} {
		got, w := collect(win[0], win[1]), want(win[0], win[1])
		if fmt.Sprint(got) != fmt.Sprint(w) {
			t.Errorf("RangeQuery(%d,%d) = %v, want %v", win[0], win[1], got, w)
		}
	}
	// Inverted window is a no-op.
	if got := collect(30, 10); got != nil {
		t.Fatalf("inverted window returned %v", got)
	}

	// Early stop must halt the stitching mid-shard, not just mid-segment.
	var seen []int64
	s.RangeQuery(0, 40, func(k int64, _ *int64) bool {
		seen = append(seen, k)
		return len(seen) < 4
	})
	if len(seen) != 4 || seen[3] != 10 {
		t.Fatalf("early stop saw %v", seen)
	}

	// Ascend is the full-space window.
	var all []int64
	s.Ascend(func(k int64, _ *int64) bool { all = append(all, k); return true })
	if fmt.Sprint(all) != fmt.Sprint(keys) {
		t.Fatalf("Ascend = %v, want %v", all, keys)
	}

	// RangeUpdate across a boundary touches exactly the window.
	n := s.RangeUpdate(9, 25, func(k int64, v *int64) *int64 {
		nv := *v + 1
		return &nv
	})
	if n != 4 { // 9, 10, 11, 25
		t.Fatalf("RangeUpdate visited %d", n)
	}
	if p, _ := s.Lookup(10); *p != 101 {
		t.Fatalf("RangeUpdate missed key 10: %d", *p)
	}
	if p, _ := s.Lookup(30); *p != 300 {
		t.Fatalf("RangeUpdate leaked past the window: %d", *p)
	}
	mustCheck(t, s)
}

// TestApplyBatchSpanningShards drives both partition shapes: a sorted batch
// spanning every shard (parts cut from the request in place) and an
// unsorted batch with duplicate keys (parts cut from one permuted copy),
// checking positional outcomes and last-write-wins per key. Then a seeded
// table of random batches runs against a model (randomBatchesMatchModel).
func TestApplyBatchSpanningShards(t *testing.T) {
	s := newTest(t, tinyCfg(), []int64{10, 20, 30})

	// Sorted batch across all four shards.
	var ops []core.BatchOp[int64]
	vals := make([]int64, 8)
	for i, k := range []int64{1, 9, 10, 15, 20, 29, 30, 99} {
		vals[i] = k * 10
		ops = append(ops, core.BatchOp[int64]{Key: k, Val: &vals[i]})
	}
	res := s.ApplyBatch(ops)
	if len(res) != len(ops) {
		t.Fatalf("results len %d", len(res))
	}
	for i, r := range res {
		if r.Outcome != core.BatchInserted {
			t.Fatalf("op %d outcome %v", i, r.Outcome)
		}
	}
	if s.Len() != len(ops) {
		t.Fatalf("Len = %d", s.Len())
	}

	// Unsorted batch with duplicates: same key written twice in request
	// order must resolve last-write-wins; deletes interleave.
	v1, v2, v3 := int64(111), int64(222), int64(333)
	res = s.ApplyBatch([]core.BatchOp[int64]{
		{Key: 99, Val: &v1},                  // update in last shard
		{Key: 1, Del: true},                  // delete in first shard
		{Key: 15, Val: &v2},                  // update middle
		{Key: 15, Val: &v3},                  // duplicate: must win
		{Key: 555, Del: true},                // absent key in last shard
		{Key: 9, Val: &v1, InsertOnly: true}, // present: BatchExists
	})
	wantOutcomes := []core.BatchOutcome{
		core.BatchUpdated, core.BatchRemoved, core.BatchUpdated,
		core.BatchUpdated, core.BatchAbsent, core.BatchExists,
	}
	for i, w := range wantOutcomes {
		if res[i].Outcome != w {
			t.Fatalf("op %d outcome %v, want %v", i, res[i].Outcome, w)
		}
	}
	if p, _ := s.Lookup(15); *p != 333 {
		t.Fatalf("duplicate key resolved to %d, want 333 (last write wins)", *p)
	}
	if s.Contains(1) {
		t.Fatal("delete did not land")
	}

	// Fan-out telemetry: both multi-shard calls counted, the parts add up.
	stats := shardCounters(s)
	if stats["fanouts"] != 2 {
		t.Fatalf("fanouts = %d", stats["fanouts"])
	}
	if stats["parts"] != 4+3 { // first batch hit 4 shards, second hit 3 (555 shares shard 3 with 99)
		t.Fatalf("fanout parts = %d", stats["parts"])
	}

	// A batch confined to one shard takes the no-barrier path.
	v := int64(7)
	s.ApplyBatch([]core.BatchOp[int64]{{Key: 21, Val: &v}, {Key: 22, Val: &v}})
	if got := shardCounters(s)["single"]; got != 1 {
		t.Fatalf("single-shard batches = %d", got)
	}
	// Empty batch is a no-op.
	if out := s.ApplyBatch(nil); out != nil {
		t.Fatalf("empty batch returned %v", out)
	}
	mustCheck(t, s)

	randomBatchesMatchModel(t, campaignSeed(0xba7c4))
}

// randomBatchesMatchModel applies random batches — sorted, reversed and
// shuffled key orders, duplicate keys, InsertOnly puts and deletes of
// absent keys — to maps of 1 to 8 shards, alternating Sharded.ApplyBatch
// and Handle.ApplyBatch and moving a boundary (SplitShard or MergeShards)
// between some of the batches. Every result must match, at its request
// position, a model that applies the batch in (key, request) order, the
// order a batch commits in; after every batch the map must hold the model.
func randomBatchesMatchModel(t *testing.T, seed uint64) {
	const (
		keySpace = 48
		batches  = 24
	)
	rng := rand.New(rand.NewSource(int64(seed)))
	for shards := 1; shards <= 8; shards++ {
		s := newTest(t, tinyCfg(), EvenBounds(0, keySpace, shards))
		h := s.NewHandle()
		model := map[int64]int64{}
		for b := 0; b < batches; b++ {
			ops := make([]core.BatchOp[int64], 1+rng.Intn(24))
			vals := make([]int64, len(ops))
			for j := range ops {
				vals[j] = rng.Int63()
				ops[j] = core.BatchOp[int64]{Key: rng.Int63n(keySpace), Val: &vals[j]}
				switch rng.Intn(4) {
				case 0:
					ops[j].Del = true
				case 1:
					ops[j].InsertOnly = true
				}
			}
			order := []string{"sorted", "reversed", "shuffled"}[b%3]
			if order != "shuffled" {
				sort.SliceStable(ops, func(x, y int) bool { return ops[x].Key < ops[y].Key })
			}
			if order == "reversed" {
				for x, y := 0, len(ops)-1; x < y; x, y = x+1, y-1 {
					ops[x], ops[y] = ops[y], ops[x]
				}
			}
			entry, apply := "Sharded", s.ApplyBatch
			if b%2 == 1 {
				entry, apply = "Handle", h.ApplyBatch
			}
			want := modelBatch(model, ops)
			got := apply(ops)
			for j := range want {
				if j >= len(got) || got[j].Outcome != want[j] {
					t.Fatalf("%d shards, batch %d (%s, %s): op %d %+v outcome %v, model %v %s",
						shards, b, order, entry, j, ops[j], got, want, seedNote(seed))
				}
			}
			for k := int64(0); k < keySpace; k++ {
				v, ok := s.Lookup(k)
				if mv, mok := model[k]; ok != mok || ok && *v != mv {
					t.Fatalf("%d shards, batch %d (%s, %s): key %d holds %v,%v, model %v,%v %s",
						shards, b, order, entry, k, *v, ok, mv, mok, seedNote(seed))
				}
			}

			if b%3 != 2 {
				continue
			}
			bounds := s.Bounds()
			k := 1 + rng.Int63n(keySpace-1)
			var m Migration
			var err error
			switch {
			case len(bounds) < 7 && !slices.Contains(bounds, k) && (len(bounds) == 0 || rng.Intn(2) == 0):
				m, err = s.SplitShard(s.ShardFor(k), k)
			case len(bounds) > 0:
				m, err = s.MergeShards(rng.Intn(len(bounds)))
			}
			if err != nil || m.Aborted {
				t.Fatalf("%d shards, after batch %d: %+v, %v %s", shards, b, m, err, seedNote(seed))
			}
		}
		h.Close()
		mustCheck(t, s)
	}
}

// modelBatch applies ops to model in (key, request) order and returns each
// op's outcome at its request position.
func modelBatch(model map[int64]int64, ops []core.BatchOp[int64]) []core.BatchOutcome {
	idx := make([]int, len(ops))
	for j := range idx {
		idx[j] = j
	}
	sort.SliceStable(idx, func(x, y int) bool { return ops[idx[x]].Key < ops[idx[y]].Key })
	out := make([]core.BatchOutcome, len(ops))
	for _, j := range idx {
		op := ops[j]
		_, present := model[op.Key]
		switch {
		case op.Del && present:
			delete(model, op.Key)
			out[j] = core.BatchRemoved
		case op.Del:
			out[j] = core.BatchAbsent
		case op.InsertOnly && present:
			out[j] = core.BatchExists
		case present:
			model[op.Key] = *op.Val
			out[j] = core.BatchUpdated
		default:
			model[op.Key] = *op.Val
			out[j] = core.BatchInserted
		}
	}
	return out
}

// shardCounters reads the router metric atomics for assertions.
func shardCounters(s *Sharded[int64]) map[string]int64 {
	return map[string]int64{
		"fanouts": s.fanouts.Load(),
		"parts":   s.fanoutParts.Load(),
		"single":  s.singleBatch.Load(),
		"swaps":   s.swaps.Load(),
	}
}

// TestHandleAcrossShards drives the lazily-pinned session API over shard
// boundaries, including the single-shard batch fast path.
func TestHandleAcrossShards(t *testing.T) {
	s := newTest(t, tinyCfg(), []int64{10, 20})
	h := s.NewHandle()
	defer h.Close()

	for _, k := range []int64{5, 15, 25} {
		v := k * 10
		if !h.Upsert(k, &v) {
			t.Fatalf("handle Upsert(%d)", k)
		}
	}
	for _, k := range []int64{5, 15, 25} {
		p, ok := h.Lookup(k)
		if !ok || *p != k*10 {
			t.Fatalf("handle Lookup(%d) = %v,%v", k, p, ok)
		}
	}
	if k, _, ok := h.Floor(14); !ok || k != 5 {
		t.Fatalf("handle Floor(14) = %d,%v", k, ok)
	}
	if k, _, ok := h.Ceiling(16); !ok || k != 25 {
		t.Fatalf("handle Ceiling(16) = %d,%v", k, ok)
	}
	if k, _, ok := h.Ceiling(MinKey + 1); !ok || k != 5 {
		t.Fatalf("handle Ceiling(MinKey+1) = %d,%v", k, ok)
	}
	if k, _, ok := h.Floor(MaxKey - 1); !ok || k != 25 {
		t.Fatalf("handle Floor(MaxKey-1) = %d,%v", k, ok)
	}

	// Single-shard batch goes through the pinned session...
	v := int64(1)
	h.ApplyBatch([]core.BatchOp[int64]{{Key: 11, Val: &v}, {Key: 12, Val: &v}})
	// ...and a spanning batch fans out.
	h.ApplyBatch([]core.BatchOp[int64]{{Key: 1, Val: &v}, {Key: 28, Val: &v}})
	c := shardCounters(s)
	if c["single"] != 1 || c["fanouts"] != 1 {
		t.Fatalf("handle batch routing: %v", c)
	}
	if !h.Remove(11) || h.Contains(11) {
		t.Fatal("handle Remove")
	}
	h.Close()
	h.Close() // idempotent
	mustCheck(t, s)
}

// TestMetricsDoNotCollide is the telemetry satellite's contract at the shard
// level: one combined exposition over N shards has one TYPE header per
// family, N labeled series, and per-shard sv_len values that sum to Len.
func TestMetricsDoNotCollide(t *testing.T) {
	s := newTest(t, tinyCfg(), []int64{10, 20, 30})
	var keys []int64
	for k := int64(0); k < 40; k++ {
		keys = append(keys, k)
	}
	put(t, s, keys...)

	var b strings.Builder
	if err := s.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if got := strings.Count(out, "# TYPE sv_len gauge"); got != 1 {
		t.Fatalf("sv_len TYPE headers = %d, want 1", got)
	}
	if !strings.Contains(out, "sv_shard_count 4") {
		t.Fatalf("router gauge missing:\n%s", out)
	}
	total := 0.0
	for i := 0; i < 4; i++ {
		prefix := fmt.Sprintf("sv_len{shard=%q} ", fmt.Sprint(i))
		idx := strings.Index(out, prefix)
		if idx < 0 {
			t.Fatalf("missing series %q", prefix)
		}
		var v float64
		if _, err := fmt.Sscanf(out[idx+len(prefix):], "%g", &v); err != nil {
			t.Fatalf("parse %q: %v", prefix, err)
		}
		total += v
	}
	if int(total) != s.Len() {
		t.Fatalf("Σ sv_len{shard} = %v, Len = %d", total, s.Len())
	}

	names := s.Metrics().Names()
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("colliding series %q", n)
		}
		seen[n] = true
	}

	if len(s.ShardStats()) != 4 {
		t.Fatalf("ShardStats len = %d", len(s.ShardStats()))
	}
}

// TestConcurrentStress churns point ops, spanning batches, and stitched
// ranges across boundaries from many goroutines (race-detector exercise),
// then validates structure and routing at quiescence.
func TestConcurrentStress(t *testing.T) {
	s := newTest(t, tinyCfg(), []int64{16, 32, 48})
	const (
		procs   = 4
		opsEach = 3000
		keys    = 64
	)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p) * 977))
			h := s.NewHandle()
			defer h.Close()
			for i := 0; i < opsEach; i++ {
				k := int64(rng.Intn(keys))
				switch rng.Intn(6) {
				case 0:
					v := k
					h.Upsert(k, &v)
				case 1:
					h.Remove(k)
				case 2:
					h.Lookup(k)
				case 3:
					// Spanning batch through both fan-out paths.
					n := 2 + rng.Intn(4)
					ops := make([]core.BatchOp[int64], n)
					vals := make([]int64, n)
					for b := range ops {
						bk := int64(rng.Intn(keys))
						vals[b] = bk
						ops[b] = core.BatchOp[int64]{Key: bk, Val: &vals[b], Del: rng.Intn(4) == 0}
					}
					s.ApplyBatch(ops)
				case 4:
					lo := k
					s.RangeQuery(lo, lo+20, func(qk int64, qv *int64) bool {
						if *qv != qk {
							panic(fmt.Sprintf("key %d holds %d", qk, *qv))
						}
						return true
					})
				default:
					s.Floor(k)
					s.Ceiling(k)
				}
			}
		}(p)
	}
	wg.Wait()
	s.FlushRetired()
	mustCheck(t, s)
}
