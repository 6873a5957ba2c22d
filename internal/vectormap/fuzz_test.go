package vectormap

import (
	"encoding/binary"
	"sort"
	"testing"
)

// FuzzChunkModel drives a chunk with an op byte-stream cross-checked
// against a map model, and a word-celled twin (InitWords) with the same ops,
// whose payload words — 0 included — must match the model too. The 16 keys
// are two runs of eight, from base and from base + stride (wrapping past
// PosInf to NegInf); a stride of 8 makes them the 16 keys from base, which
// take 1-byte key cells. Runs further apart drive the blocks between 1-byte
// cells and the width their distance needs, and runs that end at the top
// of a window of w-byte cells from base, 2^8w − 1 and 2^8w past it, probe
// the window's edges: the key at the top stays in the block, the one past
// it widens it. Run with `go test -fuzz FuzzChunkModel` for continuous
// fuzzing; `go test` replays the seed corpus.
func FuzzChunkModel(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5}, true, int64(0), int64(8))
	f.Add([]byte{10, 200, 30, 40, 5, 60, 7, 80}, false, int64(0), int64(8))
	f.Add([]byte{255, 255, 0, 0, 128, 128}, true, int64(0), int64(8))
	// Runs in two windows of 1-byte cells, 2-byte cells, 4-byte cells, and
	// across 0 and the PosInf/NegInf wrap.
	across := []byte{0, 15, 1, 14, 2, 13, 3, 12, 4, 11, 5, 10, 6, 9, 7, 8, 23, 24, 40, 47, 8, 7}
	f.Add(across, true, int64(0), int64(1<<8))
	f.Add(across, false, int64(7<<8-4), int64(1<<8))
	f.Add(across, true, int64(0), int64(1<<16))
	f.Add(across, false, int64(-1<<16-4), int64(1<<16))
	f.Add(across, true, int64(0), int64(1<<32))
	f.Add(across, false, int64(1<<32-4), int64(1<<32))
	f.Add(across, true, int64(-8), int64(8))
	f.Add(across, false, int64(PosInf-7), int64(8))
	f.Add(across, true, int64(NegInf), int64(8))
	// A window's edges, at every narrow width: base is a window base, and
	// the second run ends at base + 2^8w, so it holds the window's top key
	// and the one past it. The ops put the base first, then the top, then
	// the key past it, and take them out again; or the top first, whose
	// window lies half a window higher, then the base below it.
	edges := []byte{0, 14, 15, 0x1f, 0x2e, 0x2f, 0x1e, 7, 8, 0x20, 0x10, 15, 0x1f, 0x27}
	topFirst := []byte{14, 0, 0x20, 0x2e, 15, 1, 0x1e, 0x10, 0x11, 0x2f}
	for _, bits := range []uint{8, 16, 32} {
		base, stride := int64(5)<<(bits-1), int64(1)<<bits-7
		f.Add(edges, true, base, stride)
		f.Add(edges, false, base, stride)
		f.Add(topFirst, true, base, stride)
		f.Add(topFirst, false, -base, stride)
	}

	f.Fuzz(func(t *testing.T, ops []byte, sorted bool, base, stride int64) {
		var c Chunk[int64]
		var w Cells
		c.Init(4, sorted) // capacity 8
		w.InitWords(4, sorted)
		model := map[int64]int64{}
		for _, b := range ops {
			k := base + int64(b&7) + int64(b>>3&1)*stride // wraps past PosInf to NegInf
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
// search (search.go), over all four key widths: on every *non-decreasing*
// key array — duplicates included — lowerBound/upperBound must agree
// exactly with the reference binary searches, and on *arbitrary* array
// contents (the torn sizes and mid-shift states an optimistic reader can
// observe before seqlock validation rejects them) both must still terminate
// with a result in [0, s]. Keys are raw little-endian int64s so the fuzzer
// can reach the sentinel extremes (NegInf/PosInf) where the sign bias
// matters. The same keys also fill a block of 4-byte, one of 2-byte and one
// of 1-byte cells whose window holds the first key in its lower half, each
// key brought into that window (windowKey), so each narrow kernel meets
// probes from inside its window, below it and above it.
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
	// Across window boundaries: the narrow blocks keep the keys brought into
	// the first key's window, and the probe lands on either side.
	f.Add(k8(1<<32-1, 1<<32, 1<<32+1), int64(1<<32), uint8(3))
	f.Add(k8(1<<32+5, 1<<32-1, 7), int64(1<<32-1), uint8(3))
	f.Add(k8(1<<16-1, 1<<16, 1<<16+1), int64(1<<16), uint8(3))
	f.Add(k8(3<<16+5, 3<<16-1, 7), int64(3<<16-1), uint8(3))
	f.Add(k8(1<<16-2, 1<<16-1, 1<<16), int64(1<<16-1), uint8(90))
	f.Add(k8(-1, 0, 1), int64(0), uint8(3))
	f.Add(k8(-2, -1, 0xffffffff), int64(-1), uint8(3))
	f.Add(k8(-2, -1, 0xffff), int64(0xffff), uint8(3))
	f.Add(k8(1<<8-1, 1<<8, 1<<8+1), int64(1<<8), uint8(3))
	f.Add(k8(3<<8+5, 3<<8-1, 7), int64(3<<8-1), uint8(3))
	f.Add(k8(-2, -1, 0xff), int64(0xff), uint8(3))
	f.Add(k8(1<<8, 1<<8+2, 1<<8+4), int64(2<<8), uint8(40))
	// Every key in one 2^8 window, each count from 1 to 9 lanes: whole and
	// part words of 1- and 2-byte cells, probed below, inside and above.
	f.Add(k8(0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x80, 0x90), int64(0x45), uint8(9))
	f.Add(k8(0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70), int64(0x71), uint8(7))
	f.Add(k8(0x10, 0x20, 0x30, 0x40, 0x50), int64(0x50), uint8(5))
	f.Add(k8(0x10, 0x20, 0x30), int64(0xff), uint8(3))
	f.Add(k8(0x10), int64(0), uint8(1))
	f.Add(k8(1<<32, 1<<32+2, 1<<32+4), int64(2<<32), uint8(40))
	f.Add(k8(1<<16, 1<<16+2, 1<<16+4), int64(2<<16), uint8(40))
	f.Add(k8(NegInf, NegInf+1, PosInf), int64(PosInf), uint8(3))
	f.Add(k8(PosInf-1, PosInf), int64(PosInf), uint8(2))
	// A window's edges, at every narrow width: keys at the window's base,
	// just above it and at its top, probed at each of them, just below the
	// base and just past the top.
	for _, bits := range []uint{8, 16, 32} {
		base := int64(5) << (bits - 1)
		top := base + 1<<bits - 1
		for _, k := range []int64{base - 1, base, top, top + 1} {
			f.Add(k8(base, base+1, top), k, uint8(3))
		}
	}

	const capacity = 32
	f.Fuzz(func(t *testing.T, raw []byte, k int64, rawSize uint8) {
		n := min(len(raw)/8, capacity)
		raws := make([]int64, n)
		for i := range raws {
			raws[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		first := k // in the narrow blocks' windows: the first key, else the probe
		if n > 0 {
			first = raws[0]
		}
		for _, w := range []width{w8, w4, w2, w1} {
			var c Chunk[int64]
			c.Init(capacity/2, true)
			b := newBlock(capacity, false, w, spanOf(first))
			c.blk.Store(b)
			keys := make([]int64, n)
			for i, rk := range raws {
				keys[i] = windowKey(b, rk)
				b.storeKey(i, keys[i])
			}
			// A torn size may exceed the populated prefix or the capacity;
			// the clamp in Cells.load is part of what this fuzz exercises.
			c.size.Store(int32(rawSize))
			_, s := c.load()
			if s != min(int(rawSize), capacity) {
				t.Fatalf("load clamped size %d to %d, want it capped at %d", rawSize, s, capacity)
			}

			// Arbitrary contents: in-bounds and terminating, nothing more.
			for _, got := range []int{
				c.indexOf(b, s, k, lower), c.indexOf(b, s, k, upper),
				b.lowerBoundRef(k, s), b.upperBoundRef(k, s),
			} {
				if got < 0 || got > s {
					t.Fatalf("result %d outside [0, %d] on arbitrary keys (%d-byte keys)", got, s, w.bytes())
				}
			}

			// Non-decreasing contents: exact equivalence with the oracle.
			// Sort the populated prefix and cap s there, since the zero
			// cells of the torn tail need not sort after it.
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			for i, kk := range keys {
				b.storeKey(i, kk)
			}
			s = min(s, n)
			if got, want := c.indexOf(b, s, k, lower), b.lowerBoundRef(k, s); got != want {
				t.Fatalf("lowerBound(%d, %d) = %d, reference = %d (keys %v, %d-byte keys)", k, s, got, want, keys[:s], w.bytes())
			}
			if got, want := c.indexOf(b, s, k, upper), b.upperBoundRef(k, s); got != want {
				t.Fatalf("upperBound(%d, %d) = %d, reference = %d (keys %v, %d-byte keys)", k, s, got, want, keys[:s], w.bytes())
			}
		}
	})
}

// windowKey brings k into b's window: the low 8w bits of its biased form
// above b's base, or the low 8w−1 where that would pass the largest key.
func windowKey(b *block, k int64) int64 {
	w := b.width()
	if w == w8 {
		return k
	}
	base, c := b.base(), (uint64(k)^signBit)&(1<<w.bits()-1)
	if base+c < base {
		c &= 1<<(w.bits()-1) - 1
	}
	return int64((base + c) ^ signBit)
}
