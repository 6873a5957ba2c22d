package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"skipvector/internal/vectormap"
)

// TestChunkPropertiesTinyTargets sweeps the chunk sizes where every burst of
// writes crosses capacity, split and merge boundaries, sorted and unsorted
// data chunks. Each burst mixes singleton inserts, upserts and removes with
// ApplyBatch runs (and, once per map, a bulk-loaded start), then the whole
// structure is checked — core.CheckInvariants runs every chunk's own
// invariant too — and the contents are compared with a model. BulkLoad's
// T_I = 1 defect sat in this corner. The sweep runs for int64 values, stored
// inline in word cells, and again under boxed/ for a value too wide for a
// word, stored in a box behind a pointer cell. Each runs over six key
// spaces of 160 keys: above 0, in 1-byte key cells; straddling 2^8, so
// chunk blocks switch between 1-byte and 2-byte cells as keys cross it;
// straddling 2^16, where they switch between 1-byte and 4-byte cells;
// straddling 2^32, where they switch between 1-byte and 8-byte cells; and
// next to each sentinel. Every key space runs the whole T_D 1…8 × T_I 1…4
// grid.
func TestChunkPropertiesTinyTargets(t *testing.T) {
	cases := 0
	for _, base := range []int64{0, 1<<8 - 80, 1<<16 - 80, 1<<32 - 80, vectormap.NegInf, vectormap.PosInf - 161} {
		for _, boxed := range []bool{false, true} {
			for td := 1; td <= 8; td++ {
				for ti := 1; ti <= 4; ti++ {
					for _, sortedData := range []bool{false, true} {
						cases++
						cfg := DefaultConfig()
						cfg.TargetDataVectorSize = td
						cfg.TargetIndexVectorSize = ti
						cfg.SortedData = sortedData
						cfg.LayerCount = 8
						name := fmt.Sprintf("TD%d/TI%d/sorted=%t", td, ti, sortedData)
						if base != 0 {
							name = fmt.Sprintf("keys%+d/%s", base, name)
						}
						seed := int64(td*100 + ti*10)
						if sortedData {
							seed++
						}
						if boxed {
							t.Run("boxed/"+name, func(t *testing.T) {
								chunkPropertyRun(t, cfg, seed, base, func(x int64) wide { return wide{x, ^x, x} },
									func(v wide) int64 { return v[0] })
							})
							continue
						}
						t.Run(name, func(t *testing.T) {
							chunkPropertyRun(t, cfg, seed, base, func(x int64) int64 { return x }, func(v int64) int64 { return v })
						})
					}
				}
			}
		}
	}
	t.Logf("%d cases", cases)
}

// chunkPropertyRun drives one map of V, whose values carry the model's int64
// through enc and dec, over the keys base+1 … base+160.
func chunkPropertyRun[V any](t *testing.T, cfg Config, seed, base int64, enc func(int64) V, dec func(V) int64) {
	const (
		keySpace = 160
		bursts   = 24
		burstOps = 40
	)
	rng := rand.New(rand.NewSource(seed))

	// Start from a bulk-loaded map of every third key.
	val := func(x int64) *V {
		v := enc(x)
		return &v
	}
	var keys []int64
	var vals []V
	model := map[int64]int64{}
	for r := int64(1); r <= keySpace; r += 3 {
		k := base + r
		keys = append(keys, k)
		vals = append(vals, enc(-k))
		model[k] = -k
	}
	m, err := BulkLoad(cfg, keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v\n%s", when, err, m.Dump())
		}
		if m.Len() != len(model) {
			t.Fatalf("%s: Len %d, model %d", when, m.Len(), len(model))
		}
		got := m.Keys()
		want := make([]int64, 0, len(model))
		for k := range model {
			want = append(want, k)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			t.Fatalf("%s: %d keys, model %d", when, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: key %d is %d, model %d", when, i, got[i], want[i])
			}
			if v, ok := m.Lookup(want[i]); !ok || dec(*v) != model[want[i]] {
				t.Fatalf("%s: Lookup(%d) = %v, %t, model %d", when, want[i], *v, ok, model[want[i]])
			}
		}
	}
	check("bulk load")

	for b := 0; b < bursts; b++ {
		// Two bursts in three lean toward growth and the third toward
		// shrinkage, so chunks sweep the whole range between empty and full.
		grow := b%3 != 2
		removes, batchDels := 3, 1 // out of 10 singleton ops, out of 4 batch ops
		if !grow {
			removes, batchDels = 6, 3
		}
		for i := 0; i < burstOps; i++ {
			k := base + int64(rng.Intn(keySpace)+1)
			x := int64(b*1000 + i)
			switch r := rng.Intn(10); {
			case r < removes:
				if m.Remove(k) != hasKey(model, k) {
					t.Fatalf("burst %d: Remove(%d) disagrees with the model", b, k)
				}
				delete(model, k)
			case r < removes+2:
				if m.Insert(k, val(x)) == hasKey(model, k) {
					t.Fatalf("burst %d: Insert(%d) disagrees with the model", b, k)
				}
				if !hasKey(model, k) {
					model[k] = x
				}
			case r < removes+3:
				if m.Upsert(k, val(x)) == hasKey(model, k) {
					t.Fatalf("burst %d: Upsert(%d) disagrees with the model", b, k)
				}
				model[k] = x
			default:
				// A run of nearby keys, duplicates included, so that one
				// group commit fills and splits a chunk privately.
				ops := make([]BatchOp[V], 1+rng.Intn(3*cfg.TargetDataVectorSize+4))
				lo := int64(rng.Intn(keySpace) + 1)
				for j := range ops {
					ops[j].Key = base + min(lo+int64(rng.Intn(2*len(ops)+1)), keySpace)
					if rng.Intn(4) < batchDels {
						ops[j].Del = true
						continue
					}
					ops[j].Val = val(x*100 + int64(j))
					ops[j].InsertOnly = rng.Intn(4) == 0
				}
				m.ApplyBatch(ops)
				// ApplyBatch resolves duplicates in request order.
				for _, op := range ops {
					switch {
					case op.Del:
						delete(model, op.Key)
					case op.InsertOnly && hasKey(model, op.Key):
					default:
						model[op.Key] = dec(*op.Val)
					}
				}
			}
		}
		m.FlushRetired()
		check(fmt.Sprintf("burst %d", b))
	}
}

func hasKey(model map[int64]int64, k int64) bool {
	_, ok := model[k]
	return ok
}
