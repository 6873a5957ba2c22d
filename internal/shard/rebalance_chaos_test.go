package shard

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skipvector/internal/chaos"
)

// rebalanceChaos confines injection to the migration's step boundaries:
// with FailOneIn 3 over the 4 chaos.ShardRebalance call sites, different
// seeds abort at different steps; seeds that inject nothing complete.
func rebalanceChaos(seed uint64) chaos.Config {
	return chaos.Config{
		Seed:      seed,
		FailOneIn: 3,
		Sites:     chaos.MaskOf(chaos.ShardRebalance),
	}
}

// TestChaosRebalanceAbortEveryStep sweeps seeds until an injected abort has
// been observed at EVERY migration step — plan, seal, copy, publish — and
// proves each abort is a perfect rollback: same bounds, same content,
// invariants intact, and the very next migration (no chaos) completes. Loop-until-dry beats a fixed seed list: it cannot
// silently stop covering a step when the schedule shifts.
func TestChaosRebalanceAbortEveryStep(t *testing.T) {
	wantSteps := map[string]bool{
		"plan": false, "seal": false, "copy": false, "publish": false,
	}
	base := campaignSeed(0xab027)
	remaining := len(wantSteps)
	const maxSeeds = 4096
	for i := 0; i < maxSeeds && remaining > 0; i++ {
		seed := base + uint64(i)*0x9e37
		s := newTest(t, tinyCfg(), []int64{100})
		for k := int64(0); k < 200; k += 7 {
			v := k * 3
			s.Upsert(k, &v)
		}
		boundsBefore := s.Bounds()
		contentBefore := collect(s)

		chaos.Enable(rebalanceChaos(seed))
		rep, err := s.SplitShard(0, 50)
		chaosRep := chaos.Disable()
		if err != nil {
			t.Fatalf("seed %#x: SplitShard error %v %s", seed, err, seedNote(seed))
		}
		if !rep.Aborted {
			continue // this seed's schedule injected nothing
		}
		if chaosRep.Fails() == 0 {
			t.Fatalf("seed %#x: abort reported with no injected failure %s", seed, seedNote(seed))
		}
		seen, known := wantSteps[rep.Step]
		if !known {
			t.Fatalf("seed %#x: abort at unknown step %q %s", seed, rep.Step, seedNote(seed))
		}
		if !seen {
			wantSteps[rep.Step] = true
			remaining--
		}

		// Rollback must be perfect regardless of how deep the abort struck.
		if got := s.Bounds(); !reflect.DeepEqual(got, boundsBefore) {
			t.Fatalf("seed %#x: abort at %q changed bounds %v→%v %s", seed, rep.Step, boundsBefore, got, seedNote(seed))
		}
		if got := collect(s); !reflect.DeepEqual(got, contentBefore) {
			t.Fatalf("seed %#x: abort at %q changed content %s", seed, rep.Step, seedNote(seed))
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("seed %#x: abort at %q broke invariants: %v %s", seed, rep.Step, err, seedNote(seed))
		}
		if s.rebAborts.Load() != 1 {
			t.Fatalf("seed %#x: abort count %d %s", seed, s.rebAborts.Load(), seedNote(seed))
		}
		// Writers must not be left parked: a write into the aborted range
		// completes promptly.
		v := int64(1)
		done := make(chan struct{})
		go func() { s.Upsert(42, &v); close(done) }()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("seed %#x: writer stuck after abort at %q %s", seed, rep.Step, seedNote(seed))
		}
		// And the same migration retried without chaos must complete.
		retry, err := s.SplitShard(0, 50)
		if err != nil || retry.Aborted || retry.Step != "done" {
			t.Fatalf("seed %#x: retry after abort at %q: %+v err=%v %s", seed, rep.Step, retry, err, seedNote(seed))
		}
		mustCheck(t, s)
	}
	for step, seen := range wantSteps {
		if !seen {
			t.Errorf("no seed in the sweep aborted at step %q %s", step, seedNote(base))
		}
	}
}

// TestChaosRebalanceCampaignUnderFire runs concurrent owner-keyed
// read-your-writes workers while the driver loops migrations under chaos
// injection — a mix of completed moves and mid-flight aborts at every
// depth. No worker may ever lose a write, whichever way each migration
// ends.
func TestChaosRebalanceCampaignUnderFire(t *testing.T) {
	const (
		workers  = 3
		perSlice = 128
	)
	rounds := 60
	if testing.Short() {
		rounds = 15
	}
	seed := campaignSeed(0xf12e)
	s := newTest(t, tinyCfg(), []int64{128, 256})
	var (
		wg   sync.WaitGroup
		stop atomic.Bool
		fail atomic.Value
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
				if rng.Intn(4) == 0 {
					s.Remove(k)
					delete(mine, k)
					if _, ok := s.Lookup(k); ok {
						fail.Store(fmt.Errorf("worker %d: key %d visible after own delete %s", w, k, seedNote(seed)))
						return
					}
				} else {
					v := int64(i)
					s.Upsert(k, &v)
					mine[k] = v
					got, ok := s.Lookup(k)
					if !ok || *got != v {
						fail.Store(fmt.Errorf("worker %d: lost own write %d=%d %s", w, k, v, seedNote(seed)))
						return
					}
				}
			}
			finals[w] = mine
		}(w)
	}

	chaos.Enable(rebalanceChaos(seed))
	rng := rand.New(rand.NewSource(int64(seed)))
	aborted, completed := 0, 0
	for r := 0; r < rounds && fail.Load() == nil; r++ {
		var rep Migration
		var err error
		if s.ShardCount() < 5 && rng.Intn(2) == 0 {
			t0 := s.tab.Load()
			big, bigKeys := 0, -1
			for i := range t0.maps {
				if n := t0.maps[i].Len(); n > bigKeys {
					big, bigKeys = i, n
				}
			}
			key, ok := medianKey(t0.maps[big], t0.lowOf(big), t0.highOf(big))
			if !ok {
				continue
			}
			rep, err = s.SplitShard(big, key)
		} else if s.ShardCount() > 1 {
			rep, err = s.MergeShards(rng.Intn(s.ShardCount() - 1))
		} else {
			continue
		}
		if err != nil {
			chaos.Disable()
			t.Fatalf("round %d: %v %s", r, err, seedNote(seed))
		}
		if rep.Aborted {
			aborted++
		} else {
			completed++
		}
	}
	rep := chaos.Disable()
	stop.Store(true)
	wg.Wait()
	t.Logf("%v; migrations completed=%d aborted=%d", rep, completed, aborted)
	if err := fail.Load(); err != nil {
		t.Fatal(err)
	}
	if completed == 0 || aborted == 0 {
		t.Fatalf("campaign must mix completions (%d) and aborts (%d) %s", completed, aborted, seedNote(seed))
	}

	got := collect(s)
	want := make(map[int64]int64)
	for _, m := range finals {
		for k, v := range m {
			want[k] = v
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("final content diverged: got %d keys, want %d %s", len(got), len(want), seedNote(seed))
	}
	mustCheck(t, s)
}
