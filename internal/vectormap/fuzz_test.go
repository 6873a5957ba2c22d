package vectormap

import (
	"encoding/binary"
	"sort"
	"testing"
)

// FuzzChunkModel drives a chunk with an op byte-stream cross-checked
// against a map model, and a word-celled twin (InitWords) with the same ops,
// whose payload words — 0 included — must match the model too. Run with
// `go test -fuzz FuzzChunkModel` for continuous fuzzing; `go test` replays
// the seed corpus.
func FuzzChunkModel(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5}, true)
	f.Add([]byte{10, 200, 30, 40, 5, 60, 7, 80}, false)
	f.Add([]byte{255, 255, 0, 0, 128, 128}, true)

	f.Fuzz(func(t *testing.T, ops []byte, sorted bool) {
		var c Chunk[int64]
		var w Cells
		c.Init(4, sorted) // capacity 8
		w.InitWords(4, sorted)
		model := map[int64]int64{}
		for _, b := range ops {
			k := int64(b % 16)
			switch (b >> 4) % 3 {
			case 0:
				if len(model) == c.Cap() {
					continue
				}
				_, inModel := model[k]
				got := c.Insert(k, val(k*7))
				if w.Insert(k, Cell{Word: uint64(k * 7)}) != got {
					t.Fatalf("word-celled Insert(%d) disagrees", k)
				}
				if got == inModel {
					t.Fatalf("Insert(%d) = %t, model has=%t", k, got, inModel)
				}
				if got {
					model[k] = k * 7
				}
			case 1:
				_, inModel := model[k]
				_, got := c.Remove(k)
				if wv, wgot := w.Remove(k); wgot != got || got && wv.Word != uint64(k*7) {
					t.Fatalf("word-celled Remove(%d) = %d, %t", k, wv.Word, wgot)
				}
				if got != inModel {
					t.Fatalf("Remove(%d) = %t, model has=%t", k, got, inModel)
				}
				delete(model, k)
			default:
				v, got := c.Get(k)
				mv, inModel := model[k]
				if got != inModel || (got && *v != mv) {
					t.Fatalf("Get(%d) mismatch", k)
				}
				if wv, wgot := w.Get(k); wgot != got || got && wv.Word != uint64(mv) {
					t.Fatalf("word-celled Get(%d) = %d, %t", k, wv.Word, wgot)
				}
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("invariants: %v", err)
			}
			if err := w.CheckInvariants(); err != nil {
				t.Fatalf("word-celled invariants: %v", err)
			}
			if c.Size() != len(model) || w.Size() != len(model) {
				t.Fatalf("size %d != model %d", c.Size(), len(model))
			}
		}
	})
}

// FuzzLowerBound is the differential proof obligation for the branchless
// search core (search.go): on every *non-decreasing* key array — duplicates
// included — lowerBound/upperBound must agree exactly with the reference
// binary searches, and on *arbitrary* array contents (the torn sizes and
// mid-shift states an optimistic reader can observe before seqlock
// validation rejects them) both must still terminate with a result in
// [0, s]. Keys are raw little-endian int64s so the fuzzer can reach the
// sentinel extremes (NegInf/PosInf) where the sign-flip bias matters.
func FuzzLowerBound(f *testing.F) {
	k8 := func(ks ...int64) []byte {
		b := make([]byte, 8*len(ks))
		for i, k := range ks {
			binary.LittleEndian.PutUint64(b[8*i:], uint64(k))
		}
		return b
	}
	f.Add(k8(1, 2, 3, 4), int64(3), uint8(4))
	f.Add(k8(5, 5, 5, 9), int64(5), uint8(4))             // duplicates
	f.Add(k8(NegInf, 0, PosInf), int64(NegInf), uint8(3)) // sentinel extremes
	f.Add(k8(9, 2, -7, 2), int64(2), uint8(200))          // unsorted + torn size
	f.Add(k8(), int64(0), uint8(0))                       // empty
	f.Add(k8(PosInf, NegInf), int64(PosInf-1), uint8(2))  // reversed at extremes

	f.Fuzz(func(t *testing.T, raw []byte, k int64, rawSize uint8) {
		var c Chunk[int64]
		c.Init(16, true) // capacity 32
		c.Reserve(c.Cap())
		b := c.blk.Load()
		n := len(raw) / 8
		if n > c.Cap() {
			n = c.Cap()
		}
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
			b.key(i).Store(keys[i])
		}
		// A torn size may exceed the populated prefix or the capacity; the
		// clamp in chunk.load is part of what this fuzz exercises.
		c.size.Store(int32(rawSize))
		_, s := c.load()
		if s != min(int(rawSize), c.Cap()) {
			t.Fatalf("load clamped size %d to %d, want it capped at %d", rawSize, s, c.Cap())
		}

		// Arbitrary contents: in-bounds and terminating, nothing more.
		for _, got := range []int{
			b.lowerBound(k, s), b.upperBound(k, s),
			b.lowerBoundRef(k, s), b.upperBoundRef(k, s),
		} {
			if got < 0 || got > s {
				t.Fatalf("result %d outside [0, %d] on arbitrary keys", got, s)
			}
		}

		// Non-decreasing contents: exact equivalence with the oracle. Sort
		// the populated prefix and zero-fill the torn tail so the whole
		// probed window [0, s) is ordered (zeros may break global order when
		// keys are negative, so cap s at the populated prefix here).
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for i, kk := range keys {
			b.key(i).Store(kk)
		}
		if s > n {
			s = n
		}
		if got, want := b.lowerBound(k, s), b.lowerBoundRef(k, s); got != want {
			t.Fatalf("lowerBound(%d, %d) = %d, reference = %d (keys %v)", k, s, got, want, keys[:s])
		}
		if got, want := b.upperBound(k, s), b.upperBoundRef(k, s); got != want {
			t.Fatalf("upperBound(%d, %d) = %d, reference = %d (keys %v)", k, s, got, want, keys[:s])
		}
	})
}
