package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"skipvector/internal/telemetry"
)

// applyBatchModel replays a batch against a plain map model with ApplyBatch's
// declared semantics — ascending key order, same-key ops in request order —
// and returns the expected per-op outcomes in request positions.
func applyBatchModel(model map[int64]int64, ops []BatchOp[int64]) []BatchOutcome {
	order := make([]int, len(ops))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return ops[order[a]].Key < ops[order[b]].Key })
	outs := make([]BatchOutcome, len(ops))
	for _, oi := range order {
		op := ops[oi]
		_, present := model[op.Key]
		switch {
		case op.Del:
			if present {
				delete(model, op.Key)
				outs[oi] = BatchRemoved
			} else {
				outs[oi] = BatchAbsent
			}
		case op.InsertOnly:
			if present {
				outs[oi] = BatchExists
			} else {
				model[op.Key] = *op.Val
				outs[oi] = BatchInserted
			}
		default:
			if present {
				outs[oi] = BatchUpdated
			} else {
				outs[oi] = BatchInserted
			}
			model[op.Key] = *op.Val
		}
	}
	return outs
}

// checkBatchAgainstModel applies ops to both the map and the model and fails
// on any outcome mismatch.
func checkBatchAgainstModel(t *testing.T, m *Map[int64], model map[int64]int64, ops []BatchOp[int64]) {
	t.Helper()
	want := applyBatchModel(model, ops)
	got := m.ApplyBatch(ops)
	if len(got) != len(ops) {
		t.Fatalf("ApplyBatch returned %d results for %d ops", len(got), len(ops))
	}
	for i := range got {
		if got[i].Outcome != want[i] {
			t.Fatalf("op %d (%+v): outcome %v, model wants %v\nops: %+v",
				i, ops[i], got[i].Outcome, want[i], ops)
		}
	}
}

// checkMapMatchesModel verifies lookups and length against the model.
func checkMapMatchesModel(t *testing.T, m *Map[int64], model map[int64]int64, keySpace int64) {
	t.Helper()
	if m.Len() != len(model) {
		t.Fatalf("Len = %d, model holds %d\n%s", m.Len(), len(model), m.Dump())
	}
	for k := int64(0); k < keySpace; k++ {
		pv, ok := m.Lookup(k)
		mv, inModel := model[k]
		if ok != inModel {
			t.Fatalf("Lookup(%d) = %t, model = %t", k, ok, inModel)
		}
		if ok && *pv != mv {
			t.Fatalf("Lookup(%d) = %d, model = %d", k, *pv, mv)
		}
	}
}

// TestApplyBatchBasic walks a handful of directed batches through every config:
// a bulk insert, a mixed update/insert-only/delete batch, and a full drain.
func TestApplyBatchBasic(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, cfg Config) {
		m := newTestMap(t, cfg)
		model := map[int64]int64{}

		// Bulk insert, unsorted request order.
		var load []BatchOp[int64]
		for _, k := range []int64{12, 3, 45, 7, 29, 18, 40, 1, 33, 22} {
			load = append(load, BatchOp[int64]{Key: k, Val: v64(k * 10)})
		}
		checkBatchAgainstModel(t, m, model, load)
		checkMapMatchesModel(t, m, model, 64)
		mustCheck(t, m)

		// Mixed batch: overwrite, insert-only on present and absent keys,
		// delete present and absent keys.
		mixed := []BatchOp[int64]{
			{Key: 3, Val: v64(333)},                   // update
			{Key: 5, Val: v64(555)},                   // fresh insert
			{Key: 7, Val: v64(777), InsertOnly: true}, // exists
			{Key: 9, Val: v64(999), InsertOnly: true}, // inserted
			{Key: 12, Del: true},                      // removed
			{Key: 13, Del: true},                      // absent
		}
		checkBatchAgainstModel(t, m, model, mixed)
		checkMapMatchesModel(t, m, model, 64)
		mustCheck(t, m)

		// Drain everything, including misses.
		var drain []BatchOp[int64]
		for k := int64(0); k < 48; k++ {
			drain = append(drain, BatchOp[int64]{Key: k, Del: true})
		}
		checkBatchAgainstModel(t, m, model, drain)
		if m.Len() != 0 {
			t.Fatalf("Len = %d after drain", m.Len())
		}
		mustCheck(t, m)
	})
}

// TestApplyBatchDuplicateKeys pins the last-write-wins contract: same-key ops
// resolve in request order, each reporting the outcome of its own step.
func TestApplyBatchDuplicateKeys(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, cfg Config) {
		m := newTestMap(t, cfg)
		model := map[int64]int64{}

		// insert → update → delete → insert-only on one key, interleaved with
		// a neighbor so the run sits inside a larger batch.
		ops := []BatchOp[int64]{
			{Key: 10, Val: v64(1)},
			{Key: 11, Val: v64(100)},
			{Key: 10, Val: v64(2)},
			{Key: 10, Del: true},
			{Key: 10, Val: v64(3), InsertOnly: true},
		}
		checkBatchAgainstModel(t, m, model, ops)
		if pv, ok := m.Lookup(10); !ok || *pv != 3 {
			t.Fatalf("Lookup(10) after duplicate run: %v, %t (want 3)", pv, ok)
		}

		// Net-delete run: present key put twice then deleted.
		ops = []BatchOp[int64]{
			{Key: 10, Val: v64(4)},
			{Key: 10, Val: v64(5)},
			{Key: 10, Del: true},
		}
		checkBatchAgainstModel(t, m, model, ops)
		if _, ok := m.Lookup(10); ok {
			t.Fatal("key 10 survived a net-delete run")
		}
		checkMapMatchesModel(t, m, model, 16)
		mustCheck(t, m)
	})
}

// TestApplyBatchEmptyAndMisses covers the degenerate inputs: a nil batch, an
// empty batch, and a batch of pure misses on an empty map.
func TestApplyBatchEmptyAndMisses(t *testing.T) {
	m := newTestMap(t, DefaultConfig())
	if got := m.ApplyBatch(nil); len(got) != 0 {
		t.Fatalf("nil batch returned %d results", len(got))
	}
	if got := m.ApplyBatch([]BatchOp[int64]{}); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
	got := m.ApplyBatch([]BatchOp[int64]{{Key: 1, Del: true}, {Key: 2, Del: true}})
	for i, r := range got {
		if r.Outcome != BatchAbsent {
			t.Fatalf("miss %d reported %v", i, r.Outcome)
		}
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d", m.Len())
	}
	mustCheck(t, m)
}

// TestApplyBatchSentinelKeyPanics: sentinel keys are rejected up front, before
// any op commits.
func TestApplyBatchSentinelKeyPanics(t *testing.T) {
	m := newTestMap(t, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("sentinel key accepted")
		}
		if m.Len() != 0 {
			t.Fatalf("batch partially committed before the key check: Len = %d", m.Len())
		}
	}()
	m.ApplyBatch([]BatchOp[int64]{{Key: 1, Val: v64(1)}, {Key: MaxKey, Val: v64(2)}})
}

// TestApplyBatchChunkStraddle drives batches far wider than one chunk through
// the tiny-chunk config, forcing repeated in-group splits, then drains the map
// in sorted batches so removals keep landing on node minima (the min-defer
// path).
func TestApplyBatchChunkStraddle(t *testing.T) {
	cfg := testConfigs()["tiny-chunks"]
	m := newTestMap(t, cfg)
	model := map[int64]int64{}

	// One batch of 128 sequential keys against T_D = 2 chunks: every group
	// must split its segment several times before the single release.
	var load []BatchOp[int64]
	for k := int64(0); k < 128; k++ {
		load = append(load, BatchOp[int64]{Key: k, Val: v64(k)})
	}
	checkBatchAgainstModel(t, m, model, load)
	checkMapMatchesModel(t, m, model, 128)
	mustCheck(t, m)

	// Sorted drain in batches of 8: the head of every batch is the global
	// minimum — guaranteed to be some node's minimum — so the min-defer
	// singleton route is exercised repeatedly, tower unlinks included.
	for lo := int64(0); lo < 128; lo += 8 {
		var drain []BatchOp[int64]
		for k := lo; k < lo+8; k++ {
			drain = append(drain, BatchOp[int64]{Key: k, Del: true})
		}
		checkBatchAgainstModel(t, m, model, drain)
		mustCheck(t, m)
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d after sorted drain", m.Len())
	}
}

// TestApplyBatchMinKeyNetPut pins the min-defer split: a same-key run on a
// node's minimum that nets to a put must stay in the grouped path (the tower
// entry remains valid), while a net delete must detour through the top-down
// singleton remove. Both must leave a consistent structure.
func TestApplyBatchMinKeyNetPut(t *testing.T) {
	cfg := testConfigs()["tiny-chunks"]
	m := newTestMap(t, cfg)
	model := map[int64]int64{}
	var load []BatchOp[int64]
	for k := int64(0); k < 32; k++ {
		load = append(load, BatchOp[int64]{Key: k, Val: v64(k)})
	}
	checkBatchAgainstModel(t, m, model, load)

	for k := int64(0); k < 32; k++ {
		// delete → reinsert nets to a put on every key, node minima included.
		ops := []BatchOp[int64]{
			{Key: k, Del: true},
			{Key: k, Val: v64(k * 2)},
			{Key: k + 1, Del: true},
			{Key: k + 1, Val: v64((k + 1) * 2), InsertOnly: true},
		}
		checkBatchAgainstModel(t, m, model, ops)
	}
	checkMapMatchesModel(t, m, model, 40)
	mustCheck(t, m)
}

// TestApplyBatchDifferential is the randomized sweep: random mixed batches with
// duplicate keys against the model, over every config, with full invariant and
// content checks at the end of each round.
func TestApplyBatchDifferential(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, cfg Config) {
		const keySpace = 96
		m := newTestMap(t, cfg)
		model := map[int64]int64{}
		rng := rand.New(rand.NewSource(int64(cfg.TargetDataVectorSize*100 + cfg.LayerCount)))
		for round := 0; round < 60; round++ {
			n := 1 + rng.Intn(24)
			ops := make([]BatchOp[int64], n)
			for i := range ops {
				k := int64(rng.Intn(keySpace))
				switch rng.Intn(10) {
				case 0, 1, 2:
					ops[i] = BatchOp[int64]{Key: k, Del: true}
				case 3, 4:
					ops[i] = BatchOp[int64]{Key: k, Val: v64(int64(round*1000 + i)), InsertOnly: true}
				default:
					ops[i] = BatchOp[int64]{Key: k, Val: v64(int64(round*1000 + i))}
				}
			}
			checkBatchAgainstModel(t, m, model, ops)
			if round%10 == 9 {
				checkMapMatchesModel(t, m, model, keySpace)
				mustCheck(t, m)
			}
		}
		checkMapMatchesModel(t, m, model, keySpace)
		mustCheck(t, m)
	})
}

// TestUpsertBasic covers the singleton upsert both ways through Map and
// Handle: fresh insert reports true, overwrite reports false and replaces the
// payload.
func TestUpsertBasic(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, cfg Config) {
		m := newTestMap(t, cfg)
		if !m.Upsert(5, v64(50)) {
			t.Fatal("fresh Upsert reported overwrite")
		}
		if m.Upsert(5, v64(51)) {
			t.Fatal("overwriting Upsert reported fresh insert")
		}
		if pv, ok := m.Lookup(5); !ok || *pv != 51 {
			t.Fatalf("Lookup(5) = %v, %t after upsert", pv, ok)
		}
		h := m.NewHandle()
		defer h.Close()
		if h.Upsert(5, v64(52)) {
			t.Fatal("handle overwrite reported fresh insert")
		}
		if !h.Upsert(6, v64(60)) {
			t.Fatal("handle fresh upsert reported overwrite")
		}
		if pv, ok := m.Lookup(5); !ok || *pv != 52 {
			t.Fatalf("Lookup(5) = %v, %t after handle upsert", pv, ok)
		}
		if m.Len() != 2 {
			t.Fatalf("Len = %d", m.Len())
		}
		mustCheck(t, m)
	})
}

// TestHandleApplyBatch runs consecutive ascending batches through one pinned
// handle — the finger should carry from one batch to the next — and verifies
// contents and finger traffic.
func TestHandleApplyBatch(t *testing.T) {
	cfg := DefaultConfig()
	m := newTestMap(t, cfg)
	model := map[int64]int64{}
	h := m.NewHandle()
	defer h.Close()

	for base := int64(0); base < 512; base += 16 {
		ops := make([]BatchOp[int64], 16)
		for i := range ops {
			ops[i] = BatchOp[int64]{Key: base + int64(i), Val: v64(base)}
		}
		want := applyBatchModel(model, ops)
		got := h.ApplyBatch(ops)
		for i := range got {
			if got[i].Outcome != want[i] {
				t.Fatalf("batch at %d, op %d: outcome %v want %v", base, i, got[i].Outcome, want[i])
			}
		}
	}
	checkMapMatchesModel(t, m, model, 512)
	s := m.Stats()
	if s.FingerHits == 0 {
		t.Fatalf("no finger hits across 32 ascending handle batches: %+v", s)
	}
	mustCheck(t, m)
}

// TestBatchResumeTinyTargets drives the resume precondition of batch descent
// sharing (each group resumes through the search finger, walking right from
// the node the previous group finished on) at data targets of 1 to 4 keys,
// where every batch spans many chunks. The steps cover sorted and unsorted
// batches, a tall key inside a batch's span, and a Handle whose finger sits
// right of the next batch's first key, the case the walk's k ≥ min entry
// check exists for. The map is checked against the model after every step.
func TestBatchResumeTinyTargets(t *testing.T) {
	const keySpace = 320
	for td := 1; td <= 4; td++ {
		t.Run(fmt.Sprintf("TD%d", td), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.TargetDataVectorSize = td
			cfg.TargetIndexVectorSize = 2
			cfg.LayerCount = 6
			var keys []int64
			model := map[int64]int64{}
			for k := int64(1); k < keySpace; k += 3 {
				keys = append(keys, k)
				model[k] = -k
			}
			vals := make([]*int64, len(keys))
			for i, k := range keys {
				vals[i] = v64(-k)
			}
			m, err := BulkLoad(cfg, keys, vals)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(td)))
			span := int64(36 * td) // ≥ 3 chunks of T_D keys spaced 3 apart
			// window returns a mixed batch over [lo, lo+span): every other
			// key, each put, insert-only or deleted.
			window := func(lo int64) []BatchOp[int64] {
				var ops []BatchOp[int64]
				for k := lo; k < lo+span; k += 2 {
					op := BatchOp[int64]{Key: k, Val: v64(rng.Int63n(1000))}
					switch rng.Intn(4) {
					case 0:
						op.Del = true
					case 1:
						op.InsertOnly = true
					}
					ops = append(ops, op)
				}
				return ops
			}
			h := m.NewHandle()
			defer h.Close()
			apply := func(name string, ops []BatchOp[int64], through func([]BatchOp[int64]) []BatchResult) {
				t.Helper()
				want := applyBatchModel(model, ops)
				got := through(ops)
				for i := range got {
					if got[i].Outcome != want[i] {
						t.Fatalf("%s: op %d (%+v): outcome %v, model wants %v", name, i, ops[i], got[i].Outcome, want[i])
					}
				}
				mustCheck(t, m)
				checkMapMatchesModel(t, m, model, keySpace)
			}

			saved := m.Stats().BatchDescentsSaved
			apply("sorted", window(40), m.ApplyBatch)
			if m.Stats().BatchDescentsSaved == saved {
				t.Fatal("a sorted batch over several chunks shared no descent")
			}

			unsorted := window(100)
			unsorted = append(unsorted, unsorted[:len(unsorted)/2]...) // same-key runs
			rng.Shuffle(len(unsorted), func(i, j int) { unsorted[i], unsorted[j] = unsorted[j], unsorted[i] })
			apply("unsorted", unsorted, m.ApplyBatch)

			// Plant a tower key mid-span, then delete it and write around it
			// in one sorted batch: the group before it must stop short of the
			// key, and the group after it resumes right of a node the top-down
			// remove just changed.
			const tall = 203 // absent: bulk-loaded keys are 1 mod 3
			ctx := m.ctxs.get()
			if !m.insertWithHeight(ctx, tall, m.cellOf(v64(tall)), 2) {
				t.Fatal("planting the tower key failed")
			}
			m.ctxs.put(ctx)
			model[tall] = tall
			mustCheck(t, m)
			ops := window(tall - span/2)
			for i := range ops {
				if ops[i].Key == tall-1 {
					ops[i] = BatchOp[int64]{Key: tall, Del: true}
				}
			}
			apply("tall key inside the span", ops, m.ApplyBatch)

			// The handle's finger ends right of each next batch's first key:
			// far right, then just one key right of it.
			if _, ok := h.Lookup(keys[len(keys)-1]); !ok {
				t.Fatal("lookup of a bulk-loaded key failed")
			}
			apply("handle finger far right", window(20), h.ApplyBatch)
			// Ceiling leaves the finger on the node its answer came from.
			if _, _, ok := h.Ceiling(200); !ok {
				t.Fatal("Ceiling(200) found nothing")
			}
			lo, _, ok := h.ctx.fing.node.chunk.Bounds()
			if !ok {
				t.Fatal("the handle's finger sits on an empty node")
			}
			// The first key sits in the gap below the finger node: it belongs
			// to the node before, which a walk from the finger never reaches.
			apply("handle finger one key right", window(lo-1), h.ApplyBatch)
		})
	}
}

// TestBatchGroupExtent pins the commit unit ApplyBatch actually keeps, read
// from sv_batch_group_size: a group extends past its chunk's largest key only
// towards a next key within one key span of it. Two puts that both land in
// the chunk {0, 2, 4, 6} commit as one group when the second key is 12 (6
// past the max, inside the span of 6) and as two when it is 13. The seed
// draws height 0 for both keys, so neither takes the tower route.
func TestBatchGroupExtent(t *testing.T) {
	prev := telemetry.Enabled()
	telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prev)

	cfg := DefaultConfig()
	cfg.TargetDataVectorSize = 4
	cfg.TargetIndexVectorSize = 2
	cfg.LayerCount = 5
	cfg.Seed = 1
	keys := []int64{0, 2, 4, 6}
	for k := int64(100); k < 132; k += 2 {
		keys = append(keys, k)
	}
	for _, c := range []struct {
		second int64
		groups int64
	}{{12, 1}, {13, 2}} {
		m, err := BulkLoad[int64](cfg, keys, nil)
		if err != nil {
			t.Fatal(err)
		}
		if lo, hi, ok := m.heads[0].next.Load().chunk.Bounds(); !ok || lo != 0 || hi != 6 {
			t.Fatalf("first data chunk spans [%d, %d], want [0, 6]", lo, hi)
		}
		res := m.ApplyBatch([]BatchOp[int64]{{Key: 2, Val: v64(1)}, {Key: c.second, Val: v64(2)}})
		if res[0].Outcome != BatchUpdated || res[1].Outcome != BatchInserted {
			t.Fatalf("puts (2, %d): outcomes %v, %v", c.second, res[0].Outcome, res[1].Outcome)
		}
		if f := m.Stats().Freezes; f != 0 {
			t.Fatalf("puts (2, %d): a key drew a tower (%d freezes)", c.second, f)
		}
		if got := m.batchGroupSize.Snapshot().Count; got != c.groups {
			t.Errorf("puts (2, %d) committed as %d groups, want %d", c.second, got, c.groups)
		}
		mustCheck(t, m)
	}
}

// TestNoOpWritesKeepTheVersion: a write that changes nothing (a Remove of
// an absent key, an Insert of a present one, through the map or a Handle,
// or a batch made only of such ops) aborts its data node's lock, so the
// seqlock version that readers and fingers validate against stays as it
// was, with a snapshot pinned as without. A write that changes the node
// bumps it.
func TestNoOpWritesKeepTheVersion(t *testing.T) {
	m := newTestMap(t, DefaultConfig())
	for k := int64(0); k < 1000; k += 2 {
		m.Insert(k, v64(k))
	}
	h := m.NewHandle()
	defer h.Close()
	const present, absent = 500, 501
	var owner *node[int64]
	for n := m.heads[0]; n != nil && owner == nil; n = n.next.Load() {
		if n.data().Contains(present) && n.data().Contains(present+2) {
			owner = n
		}
	}
	if owner == nil {
		t.Fatalf("no data node holds both %d and %d", present, present+2)
	}
	for _, c := range []struct {
		name  string
		write func() bool // reports whether the write did what was expected
		bumps bool
	}{
		{"Remove of an absent key", func() bool { return !m.Remove(absent) }, false},
		{"Insert of a present key", func() bool { return !m.Insert(present, v64(9)) }, false},
		{"Handle.Remove of an absent key", func() bool { return !h.Remove(absent) }, false},
		{"Handle.Insert of a present key", func() bool { return !h.Insert(present, v64(9)) }, false},
		{"batch of an absent delete and an insert-only hit", func() bool {
			res := m.ApplyBatch([]BatchOp[int64]{{Key: absent, Del: true}, {Key: present, Val: v64(9), InsertOnly: true}})
			return res[0].Outcome == BatchAbsent && res[1].Outcome == BatchExists
		}, false},
		{"Handle batch of an absent delete", func() bool {
			return h.ApplyBatch([]BatchOp[int64]{{Key: absent, Del: true}})[0].Outcome == BatchAbsent
		}, false},
		{"Remove of an absent key, snapshot pinned", func() bool {
			s := m.Snapshot()
			defer s.Close()
			return !m.Remove(absent)
		}, false},
		{"batch of an absent delete and an insert-only hit, snapshot pinned", func() bool {
			s := m.Snapshot()
			defer s.Close()
			res := m.ApplyBatch([]BatchOp[int64]{{Key: absent, Del: true}, {Key: present, Val: v64(9), InsertOnly: true}})
			return res[0].Outcome == BatchAbsent && res[1].Outcome == BatchExists
		}, false},
		{"Upsert of a present key", func() bool { return !m.Upsert(present, v64(9)) }, true},
		{"Upsert of a present key, snapshot pinned", func() bool {
			s := m.Snapshot()
			defer s.Close()
			return !m.Upsert(present, v64(9))
		}, true},
	} {
		before := owner.lock.Current()
		if !c.write() {
			t.Fatalf("%s: unexpected outcome", c.name)
		}
		if after := owner.lock.Current(); (after != before) != c.bumps {
			t.Errorf("%s: the owner's version went from %v to %v, want a bump: %t", c.name, before, after, c.bumps)
		}
	}
	mustCheck(t, m)
}
