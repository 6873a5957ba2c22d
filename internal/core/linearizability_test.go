package core

import (
	"math/rand"
	"sync"
	"testing"

	"skipvector/internal/lincheck"
)

// TestLinearizability records many short concurrent histories against the
// skip vector and verifies each is linearizable under the sequential map
// specification. Tiny chunks and a tiny key space maximize the chance that
// operations overlap inside one node, which is where the seqlock/freeze
// machinery must deliver atomicity.
//
// Each configuration runs twice: with int64 values, stored inline, and under
// boxed/ with a value too wide for a word, stored in a box.
func TestLinearizability(t *testing.T) {
	cfgs := map[string]Config{
		"tiny-chunks": testConfigs()["tiny-chunks"],
		"sl":          testConfigs()["sl"],
		"default":     testConfigs()["default"],
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			pointOpsLinearizable(t, cfg, func(x int64) int64 { return x }, func(v int64) int64 { return v })
		})
		t.Run("boxed/"+name, func(t *testing.T) {
			pointOpsLinearizable(t, cfg, func(x int64) wide { return wide{x, x, ^x} }, func(v wide) int64 { return v[0] })
		})
	}
}

// pointOpsLinearizable checks histories of Insert, Remove and Lookup on maps
// of V, whose values carry the history's int64 through enc and dec.
func pointOpsLinearizable[V any](t *testing.T, cfg Config, enc func(int64) V, dec func(V) int64) {
	const (
		rounds   = 60
		procs    = 3
		opsEach  = 4
		keySpace = 3
	)
	for round := 0; round < rounds; round++ {
		m := newTestMapOf[V](t, cfg)
		rec := lincheck.NewRecorder()
		var wg sync.WaitGroup
		for p := 0; p < procs; p++ {
			wg.Add(1)
			go func(p int, seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < opsEach; i++ {
					k := int64(rng.Intn(keySpace))
					switch rng.Intn(3) {
					case 0:
						x := int64(p*1000 + i)
						v := enc(x)
						inv := rec.Begin()
						ok := m.Insert(k, &v)
						rec.End(lincheck.Event{
							Proc: p, Kind: lincheck.KindInsert,
							Key: k, Val: x, RetOK: ok,
						}, inv)
					case 1:
						inv := rec.Begin()
						ok := m.Remove(k)
						rec.End(lincheck.Event{
							Proc: p, Kind: lincheck.KindRemove,
							Key: k, RetOK: ok,
						}, inv)
					default:
						inv := rec.Begin()
						pv, ok := m.Lookup(k)
						var rv int64
						if ok {
							rv = dec(*pv)
						}
						rec.End(lincheck.Event{
							Proc: p, Kind: lincheck.KindLookup,
							Key: k, RetOK: ok, RetVal: rv,
						}, inv)
					}
				}
			}(p, int64(round*100+p))
		}
		wg.Wait()
		if ok, msg := lincheck.Check(rec.History()); !ok {
			t.Fatalf("round %d: %s\n%s", round, msg, m.Dump())
		}
		mustCheck(t, m)
	}
}

// TestLinearizabilityWithRangeOps mixes point ops with genuine multi-key
// range operations, machine-checking the linearizable-range claim
// (Section IV-C / V-B): every RangeQuery snapshot must equal some
// linearization point's state restricted to its window, and every
// RangeUpdate must apply its delta to the whole window atomically.
func TestLinearizabilityWithRangeOps(t *testing.T) {
	cfg := testConfigs()["tiny-chunks"]
	const (
		rounds   = 40
		procs    = 3
		opsEach  = 4
		keySpace = 4
	)
	for round := 0; round < rounds; round++ {
		m := newTestMap(t, cfg)
		rec := lincheck.NewRecorder()
		var wg sync.WaitGroup
		for p := 0; p < procs; p++ {
			wg.Add(1)
			go func(p int, seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < opsEach; i++ {
					k := int64(rng.Intn(keySpace))
					switch rng.Intn(5) {
					case 0:
						v := int64(p*1000 + i)
						inv := rec.Begin()
						ok := m.Insert(k, &v)
						rec.End(lincheck.Event{Proc: p, Kind: lincheck.KindInsert, Key: k, Val: v, RetOK: ok}, inv)
					case 1:
						inv := rec.Begin()
						ok := m.Remove(k)
						rec.End(lincheck.Event{Proc: p, Kind: lincheck.KindRemove, Key: k, RetOK: ok}, inv)
					case 2:
						inv := rec.Begin()
						pv, ok := m.Lookup(k)
						var rv int64
						if ok {
							rv = *pv
						}
						rec.End(lincheck.Event{Proc: p, Kind: lincheck.KindLookup, Key: k, RetOK: ok, RetVal: rv}, inv)
					case 3:
						// Multi-key window: the snapshot must be exact.
						lo := k
						hi := lo + int64(rng.Intn(keySpace))
						inv := rec.Begin()
						var pairs []lincheck.KV
						m.RangeQuery(lo, hi, func(qk int64, qv *int64) bool {
							pairs = append(pairs, lincheck.KV{K: qk, V: *qv})
							return true
						})
						rec.End(lincheck.Event{Proc: p, Kind: lincheck.KindRangeQuery, Key: lo, Hi: hi, Pairs: pairs}, inv)
					default:
						// Atomic increment over a window.
						lo := k
						hi := lo + int64(rng.Intn(keySpace))
						inv := rec.Begin()
						count := m.RangeUpdate(lo, hi, func(_ int64, v *int64) *int64 {
							nv := *v + 1
							return &nv
						})
						rec.End(lincheck.Event{Proc: p, Kind: lincheck.KindRangeUpdate, Key: lo, Hi: hi, Delta: 1, RetVal: int64(count)}, inv)
					}
				}
			}(p, int64(round*31+p))
		}
		wg.Wait()
		if ok, msg := lincheck.Check(rec.History()); !ok {
			t.Fatalf("round %d: %s\n%s", round, msg, m.Dump())
		}
		mustCheck(t, m)
	}
}

// lcOutcome converts a core batch outcome to the lincheck enum.
func lcOutcome(o BatchOutcome) lincheck.BatchOutcome {
	switch o {
	case BatchInserted:
		return lincheck.BatchInserted
	case BatchUpdated:
		return lincheck.BatchUpdated
	case BatchRemoved:
		return lincheck.BatchRemoved
	case BatchAbsent:
		return lincheck.BatchAbsent
	case BatchExists:
		return lincheck.BatchExists
	default:
		return 0
	}
}

// randomBatchEvent issues one small mixed batch (duplicate keys included) and
// returns the recorded event.
func randomBatchEvent(m *Map[int64], rng *rand.Rand, p, i, keySpace int) ([]BatchOp[int64], []lincheck.BatchItem) {
	n := 1 + rng.Intn(3)
	ops := make([]BatchOp[int64], n)
	items := make([]lincheck.BatchItem, n)
	for b := range ops {
		k := int64(rng.Intn(keySpace))
		v := int64(p*1000 + i*10 + b)
		switch rng.Intn(4) {
		case 0:
			ops[b] = BatchOp[int64]{Key: k, Del: true}
			items[b] = lincheck.BatchItem{Key: k, Del: true}
		case 1:
			ops[b] = BatchOp[int64]{Key: k, Val: &v, InsertOnly: true}
			items[b] = lincheck.BatchItem{Key: k, Val: v, InsertOnly: true}
		default:
			ops[b] = BatchOp[int64]{Key: k, Val: &v}
			items[b] = lincheck.BatchItem{Key: k, Val: v}
		}
	}
	return ops, items
}

// TestLinearizabilityWithBatches machine-checks the batch commit protocol's
// headline claim: a batch whose keys all fall in one data chunk commits as a
// single atomic unit. The single-layer, wide-chunk config pins every batch to
// one group (the head chunk owns the whole key space, towers never route ops
// out, the sentinel occupies the minimum), so the recorded histories must
// linearize with KindBatch as one event. Point ops and range queries mix in
// as independent observers.
func TestLinearizabilityWithBatches(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LayerCount = 1

	const (
		rounds   = 60
		procs    = 3
		opsEach  = 4
		keySpace = 4
	)
	for round := 0; round < rounds; round++ {
		m := newTestMap(t, cfg)
		rec := lincheck.NewRecorder()
		var wg sync.WaitGroup
		for p := 0; p < procs; p++ {
			wg.Add(1)
			go func(p int, seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < opsEach; i++ {
					k := int64(rng.Intn(keySpace))
					switch rng.Intn(5) {
					case 0:
						v := int64(p*1000 + i)
						inv := rec.Begin()
						ok := m.Insert(k, &v)
						rec.End(lincheck.Event{Proc: p, Kind: lincheck.KindInsert, Key: k, Val: v, RetOK: ok}, inv)
					case 1:
						inv := rec.Begin()
						ok := m.Remove(k)
						rec.End(lincheck.Event{Proc: p, Kind: lincheck.KindRemove, Key: k, RetOK: ok}, inv)
					case 2:
						inv := rec.Begin()
						pv, ok := m.Lookup(k)
						var rv int64
						if ok {
							rv = *pv
						}
						rec.End(lincheck.Event{Proc: p, Kind: lincheck.KindLookup, Key: k, RetOK: ok, RetVal: rv}, inv)
					case 3:
						lo := k
						hi := lo + int64(rng.Intn(keySpace))
						inv := rec.Begin()
						var pairs []lincheck.KV
						m.RangeQuery(lo, hi, func(qk int64, qv *int64) bool {
							pairs = append(pairs, lincheck.KV{K: qk, V: *qv})
							return true
						})
						rec.End(lincheck.Event{Proc: p, Kind: lincheck.KindRangeQuery, Key: lo, Hi: hi, Pairs: pairs}, inv)
					default:
						ops, items := randomBatchEvent(m, rng, p, i, keySpace)
						inv := rec.Begin()
						res := m.ApplyBatch(ops)
						for b := range res {
							items[b].Outcome = lcOutcome(res[b].Outcome)
						}
						rec.End(lincheck.Event{Proc: p, Kind: lincheck.KindBatch, Items: items}, inv)
					}
				}
			}(p, int64(round*131+p))
		}
		wg.Wait()
		if ok, msg := lincheck.Check(rec.History()); !ok {
			t.Fatalf("round %d: %s\n%s", round, msg, m.Dump())
		}
		mustCheck(t, m)
	}
}

// TestBatchOutcomesSequentialLincheck replays single-threaded mixed batches on
// the multi-chunk configs through the lincheck model. Atomicity is moot with
// one thread; what this pins is that the per-op outcomes and final state of
// the full batch path — groups, splits, min-defer detours, tall-key routing —
// match the sequential specification exactly.
func TestBatchOutcomesSequentialLincheck(t *testing.T) {
	for _, name := range []string{"default", "tiny-chunks"} {
		cfg := testConfigs()[name]
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			const keySpace = 24
			for i := 0; i < 40; i++ {
				// Each window is a self-contained history on a fresh map: the
				// checker's model starts empty. The opening bulk batch grows
				// the structure (splits inside one group on tiny chunks), the
				// mixed batches then churn it, and the closing range query
				// pins the final state in full.
				m := newTestMap(t, cfg)
				rec := lincheck.NewRecorder()

				bulk := make([]BatchOp[int64], 16)
				bulkItems := make([]lincheck.BatchItem, len(bulk))
				for b := range bulk {
					k := int64(rng.Intn(keySpace))
					v := int64(i*1000 + b)
					bulk[b] = BatchOp[int64]{Key: k, Val: &v}
					bulkItems[b] = lincheck.BatchItem{Key: k, Val: v}
				}
				inv := rec.Begin()
				res := m.ApplyBatch(bulk)
				for b := range res {
					bulkItems[b].Outcome = lcOutcome(res[b].Outcome)
				}
				rec.End(lincheck.Event{Kind: lincheck.KindBatch, Items: bulkItems}, inv)

				for j := 0; j < 6; j++ {
					ops, items := randomBatchEvent(m, rng, 0, i*10+j, keySpace)
					inv := rec.Begin()
					res := m.ApplyBatch(ops)
					for b := range res {
						items[b].Outcome = lcOutcome(res[b].Outcome)
					}
					rec.End(lincheck.Event{Kind: lincheck.KindBatch, Items: items}, inv)
				}

				inv = rec.Begin()
				var pairs []lincheck.KV
				m.RangeQuery(0, keySpace, func(qk int64, qv *int64) bool {
					pairs = append(pairs, lincheck.KV{K: qk, V: *qv})
					return true
				})
				rec.End(lincheck.Event{Kind: lincheck.KindRangeQuery, Key: 0, Hi: keySpace, Pairs: pairs}, inv)

				if ok, msg := lincheck.Check(rec.History()); !ok {
					t.Fatalf("window %d: %s\n%s", i, msg, m.Dump())
				}
				mustCheck(t, m)
			}
		})
	}
}
