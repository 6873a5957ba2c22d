package main

import "testing"

func listFNV(w *workload, seed uint64, n int) uint64 {
	h := uint64(fnvOffset)
	for rep := 0; rep < 2; rep++ {
		for t := 0; t < threads; t++ {
			h = fnvOps(h, genOps(w, seed, rep, t, n))
		}
	}
	return h
}

func TestSameSeedSameOpList(t *testing.T) {
	for _, w := range workloads {
		a, b, c := listFNV(w, 1, 5000), listFNV(w, 1, 5000), listFNV(w, 2, 5000)
		if a != b {
			t.Errorf("%s: seed 1 gave oplist_fnv %x then %x", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same oplist_fnv %x", w.name, a)
		}
	}
}

// Every key a thread writes is on its own stripe, and every key and span
// stays inside the key space, so that no op can fail for being out of range.
func TestStripedOwnershipAndRange(t *testing.T) {
	for _, w := range workloads {
		for th := 0; th < threads; th++ {
			ops := genOps(w, 7, 0, th, 20000)
			admin := 0
			for i, o := range ops {
				k := int64(o.key)
				switch c := o.kind.class(); c {
				case classAdmin:
					admin++
				case classWrite:
					if k < 0 || k >= keySpace || int(k%threads) != th {
						t.Fatalf("%s thread %d op %d: writes key %d of another stripe", w.name, th, i, k)
					}
				case classBatch:
					for _, bk := range batchKeys(o, i, th, nil) {
						if bk < 0 || bk >= keySpace || int(bk%threads) != th {
							t.Fatalf("%s thread %d op %d: batch key %d outside own stripe", w.name, th, i, bk)
						}
					}
				case classScan:
					if k < 0 || k+scanSpan > keySpace {
						t.Fatalf("%s thread %d op %d: scan at %d leaves the key space", w.name, th, i, k)
					}
				default:
					if k < 0 || k >= keySpace {
						t.Fatalf("%s thread %d op %d: key %d outside the key space", w.name, th, i, k)
					}
				}
			}
			want := 0
			if th == 0 {
				want = len(w.admin)
			}
			if admin != want {
				t.Errorf("%s thread %d: %d admin ops, want %d", w.name, th, admin, want)
			}
		}
	}
}

// The skewed workload is only skewed across shards if unscrambled Zipf 0.99
// puts most of its mass in the first of four even shards.
func TestZipfMassInFirstShard(t *testing.T) {
	z, r := zipfOnce(), &rng{state: 42}
	const draws = 200000
	first := 0
	for i := 0; i < draws; i++ {
		k := z.rank(r)
		if k < 0 || k >= keySpace {
			t.Fatalf("rank %d outside [0,%d)", k, keySpace)
		}
		if k < keySpace/initialShards {
			first++
		}
	}
	if share := float64(first) / draws; share <= 0.5 {
		t.Errorf("shard 0 received %.3f of Zipf 0.99 draws, want > 0.5", share)
	}
}

func TestPrefillIsAboutHalf(t *testing.T) {
	n := 0
	for th := 0; th < threads; th++ {
		n += newStripe(9, th).count(0, keySpace-1)
	}
	if n < keySpace*49/100 || n > keySpace*51/100 {
		t.Errorf("prefill holds %d of %d keys, want about half", n, keySpace)
	}
}
