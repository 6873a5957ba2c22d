package core

import (
	"sort"
	"testing"
)

// FuzzApplyBatch is the differential fuzzer for the batch path: the same op
// stream is applied through ApplyBatch on one map and replayed as singleton
// ops (in ApplyBatch's declared order: ascending key, same-key ops in request
// order) on a second, and the two must agree on every per-op outcome and on
// the final contents. Key space 48 over single bytes breeds duplicate keys
// inside one batch; the tiny-chunk configs make batches straddle many chunk
// boundaries and split mid-group. Run with `go test -fuzz FuzzApplyBatch`;
// plain `go test` replays the seed corpus.
func FuzzApplyBatch(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, uint8(0), uint8(12))   // one ascending batch
	f.Add([]byte{7, 7, 7, 71, 135, 199, 7, 7}, uint8(1), uint8(8))             // duplicate-heavy
	f.Add([]byte{255, 254, 253, 128, 127, 64, 63, 0}, uint8(1), uint8(4))      // descending, mixed kinds
	f.Add([]byte{0, 64, 128, 192, 1, 65, 129, 193, 2, 66}, uint8(2), uint8(5)) // kind sweep per key
	f.Add([]byte{40, 41, 42, 43, 44, 45, 46, 47, 40, 41, 42, 43}, uint8(3), uint8(6))

	f.Fuzz(func(t *testing.T, data []byte, cfgSel uint8, batchLen uint8) {
		cfg := DefaultConfig()
		switch cfgSel % 4 {
		case 1:
			cfg.TargetDataVectorSize = 2
			cfg.TargetIndexVectorSize = 2
			cfg.LayerCount = 5
		case 2:
			cfg.LayerCount = 1
		case 3:
			cfg.TargetDataVectorSize = 1
			cfg.TargetIndexVectorSize = 1
			cfg.LayerCount = 8
			cfg.SortedData = true
		}
		if len(data) > 4096 {
			data = data[:4096]
		}
		batched := newTestMap(t, cfg)
		replay := newTestMap(t, cfg)

		bl := int(batchLen%16) + 1
		for start := 0; start < len(data); start += bl {
			end := start + bl
			if end > len(data) {
				end = len(data)
			}
			chunk := data[start:end]
			ops := make([]BatchOp[int64], len(chunk))
			for i, b := range chunk {
				k := int64(b % 48)
				v := v64(int64(start + i))
				switch (b >> 6) % 4 {
				case 0:
					ops[i] = BatchOp[int64]{Key: k, Del: true}
				case 1:
					ops[i] = BatchOp[int64]{Key: k, Val: v, InsertOnly: true}
				default:
					ops[i] = BatchOp[int64]{Key: k, Val: v}
				}
			}

			got := batched.ApplyBatch(ops)
			order := make([]int, len(ops))
			for i := range order {
				order[i] = i
			}
			sort.SliceStable(order, func(a, b int) bool { return ops[order[a]].Key < ops[order[b]].Key })
			for _, oi := range order {
				op := ops[oi]
				var want BatchOutcome
				switch {
				case op.Del:
					if replay.Remove(op.Key) {
						want = BatchRemoved
					} else {
						want = BatchAbsent
					}
				case op.InsertOnly:
					if replay.Insert(op.Key, op.Val) {
						want = BatchInserted
					} else {
						want = BatchExists
					}
				default:
					if replay.Upsert(op.Key, op.Val) {
						want = BatchInserted
					} else {
						want = BatchUpdated
					}
				}
				if got[oi].Outcome != want {
					t.Fatalf("batch at %d, op %d (%+v): ApplyBatch says %v, singleton replay says %v",
						start, oi, op, got[oi].Outcome, want)
				}
			}
		}

		if batched.Len() != replay.Len() {
			t.Fatalf("Len: batched %d ≠ replay %d", batched.Len(), replay.Len())
		}
		for k := int64(0); k < 48; k++ {
			bv, bok := batched.Lookup(k)
			rv, rok := replay.Lookup(k)
			if bok != rok {
				t.Fatalf("Lookup(%d): batched %t ≠ replay %t", k, bok, rok)
			}
			if bok && *bv != *rv {
				t.Fatalf("Lookup(%d): batched %d ≠ replay %d", k, *bv, *rv)
			}
		}
		if err := batched.CheckInvariants(); err != nil {
			t.Fatalf("batched invariants: %v\n%s", err, batched.Dump())
		}
		if err := replay.CheckInvariants(); err != nil {
			t.Fatalf("replay invariants: %v", err)
		}
	})
}
