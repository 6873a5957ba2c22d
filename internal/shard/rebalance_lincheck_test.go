package shard

import (
	"math/rand"
	"sync"
	"testing"

	"skipvector/internal/core"
	"skipvector/internal/lincheck"
)

// coreOp shortens batch construction in the histories below.
type coreOp = core.BatchOp[int64]

// TestRebalanceLinearizability machine-checks point-op linearizability
// ACROSS forced mid-history table swaps. Worker procs hammer a 6-key space
// spanning the boundary; the migrator proc runs a full split or merge and
// files it as a KindRebalance event whose Pairs are what its copy actually
// observed (via the copy observer) and whose interval covers the
// migration. The checker then demands a single linearization explaining
// every op's result AND the migrator's view: a write lost across the swap,
// a resurrected delete, or a torn copy all fail the whole history.
func TestRebalanceLinearizability(t *testing.T) {
	const (
		procs   = 3
		opsEach = 4
	)
	rounds := 120
	if testing.Short() {
		rounds = 30
	}
	seed := campaignSeed(0x11c4eb)
	for round := 0; round < rounds; round++ {
		s := newTest(t, tinyCfg(), []int64{3})
		rec := lincheck.NewRecorder()
		var wg sync.WaitGroup

		// Migrator proc: one full migration mid-history. Pairs collected by
		// the copy observer are exactly the copied view; EndAt confines the
		// interval to Begin → the end of SplitShard/MergeShards, which
		// covers the copy, mirroring how KindSnapshot events are recorded.
		wg.Add(1)
		go func() {
			defer wg.Done()
			var pairs []lincheck.KV
			s.mig.Lock() // observer set/cleared under the migration lock
			s.copyObserver = func(k int64, v *int64) {
				pairs = append(pairs, lincheck.KV{K: k, V: *v})
			}
			s.mig.Unlock()
			var lo, hi int64
			inv := rec.Begin()
			if round%2 == 0 {
				// Split shard 1 ([3,+inf)) at 5: window is its interval.
				lo, hi = 3, MaxKey-1
				if _, err := s.SplitShard(1, 5); err != nil {
					t.Errorf("round %d: SplitShard: %v %s", round, err, seedNote(seed))
				}
			} else {
				// Merge the two shards: window is the whole key space.
				lo, hi = MinKey+1, MaxKey-1
				if _, err := s.MergeShards(0); err != nil {
					t.Errorf("round %d: MergeShards: %v %s", round, err, seedNote(seed))
				}
			}
			ret := rec.Now()
			s.mig.Lock()
			s.copyObserver = nil
			s.mig.Unlock()
			rec.EndAt(lincheck.Event{
				Proc: procs, Kind: lincheck.KindRebalance,
				Key: lo, Hi: hi, Pairs: pairs,
			}, inv, ret)
		}()

		for p := 0; p < procs; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(seed) + int64(round*100+p)))
				for i := 0; i < opsEach; i++ {
					k := int64(rng.Intn(6))
					switch rng.Intn(3) {
					case 0:
						v := int64(p*1000 + i)
						inv := rec.Begin()
						ok := s.Insert(k, &v)
						rec.End(lincheck.Event{Proc: p, Kind: lincheck.KindInsert, Key: k, Val: v, RetOK: ok}, inv)
					case 1:
						inv := rec.Begin()
						ok := s.Remove(k)
						rec.End(lincheck.Event{Proc: p, Kind: lincheck.KindRemove, Key: k, RetOK: ok}, inv)
					default:
						inv := rec.Begin()
						pv, ok := s.Lookup(k)
						var rv int64
						if ok {
							rv = *pv
						}
						rec.End(lincheck.Event{Proc: p, Kind: lincheck.KindLookup, Key: k, RetOK: ok, RetVal: rv}, inv)
					}
				}
			}(p)
		}
		wg.Wait()
		if ok, msg := lincheck.Check(rec.History()); !ok {
			t.Fatalf("round %d: %s %s", round, msg, seedNote(seed))
		}
		mustCheck(t, s)
	}
}

// TestRebalanceLinearizabilityWithBatches mixes atomic in-shard batches
// with a mid-history merge of the two shards they target, on single-layer
// shards so each in-shard part commits as one unit. Batches confined to a
// pre-merge shard stay single-shard through the swap (the merged shard
// contains both intervals), so every KindBatch event must linearize
// atomically whichever table it committed under — a batch half-applied
// across the swap, or outcomes computed against a frozen source, fail the
// history alongside the migrator's own KindRebalance view.
func TestRebalanceLinearizabilityWithBatches(t *testing.T) {
	cfg := tinyCfg()
	cfg.LayerCount = 1

	rounds := 80
	if testing.Short() {
		rounds = 20
	}
	seed := campaignSeed(0xbb4c4)
	for round := 0; round < rounds; round++ {
		// Shard 0 owns {2,3}, shard 1 owns {4,5} (keys below 2 unused).
		s := newTest(t, cfg, []int64{4})
		rec := lincheck.NewRecorder()
		var wg sync.WaitGroup

		wg.Add(1)
		go func() {
			defer wg.Done()
			var pairs []lincheck.KV
			s.mig.Lock()
			s.copyObserver = func(k int64, v *int64) {
				pairs = append(pairs, lincheck.KV{K: k, V: *v})
			}
			s.mig.Unlock()
			inv := rec.Begin()
			// Merge the two shards: window is the whole key space.
			if _, err := s.MergeShards(0); err != nil {
				t.Errorf("round %d: MergeShards: %v %s", round, err, seedNote(seed))
			}
			ret := rec.Now()
			s.mig.Lock()
			s.copyObserver = nil
			s.mig.Unlock()
			rec.EndAt(lincheck.Event{
				Proc: 2, Kind: lincheck.KindRebalance,
				Key: MinKey + 1, Hi: MaxKey - 1, Pairs: pairs,
			}, inv, ret)
		}()

		for p := 0; p < 2; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(seed) + int64(round*37+p)))
				for i := 0; i < 4; i++ {
					if rng.Intn(2) == 0 {
						// Batch confined to one pre-merge shard's key pair:
						// single-shard under every table the swap produces.
						base := int64(2 + 2*rng.Intn(2))
						n := 1 + rng.Intn(2)
						ops := make([]coreOp, n)
						vals := make([]int64, n)
						items := make([]lincheck.BatchItem, n)
						for b := range ops {
							bk := base + int64(rng.Intn(2))
							vals[b] = int64(p*1000 + i*10 + b)
							if rng.Intn(3) == 0 {
								ops[b] = coreOp{Key: bk, Del: true}
								items[b] = lincheck.BatchItem{Key: bk, Del: true}
							} else {
								ops[b] = coreOp{Key: bk, Val: &vals[b]}
								items[b] = lincheck.BatchItem{Key: bk, Val: vals[b]}
							}
						}
						inv := rec.Begin()
						res := s.ApplyBatch(ops)
						for b := range res {
							items[b].Outcome = lcOutcome(res[b].Outcome)
						}
						rec.End(lincheck.Event{Proc: p, Kind: lincheck.KindBatch, Items: items}, inv)
					} else {
						k := 2 + int64(rng.Intn(4))
						inv := rec.Begin()
						pv, ok := s.Lookup(k)
						var rv int64
						if ok {
							rv = *pv
						}
						rec.End(lincheck.Event{Proc: p, Kind: lincheck.KindLookup, Key: k, RetOK: ok, RetVal: rv}, inv)
					}
				}
			}(p)
		}
		wg.Wait()
		if ok, msg := lincheck.Check(rec.History()); !ok {
			t.Fatalf("round %d: %s %s", round, msg, seedNote(seed))
		}
		mustCheck(t, s)
	}
}
