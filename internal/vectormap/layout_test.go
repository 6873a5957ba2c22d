package vectormap

import (
	"strings"
	"testing"
	"unsafe"
)

// chunkLayout is everything View relies on being the same for every P.
type chunkLayout struct {
	size, align                    uintptr
	blk, sizeField, limit, sortedF uintptr
	cell                           uintptr // one payload cell of the block
}

func layoutOf[P any]() chunkLayout {
	var c Chunk[P]
	c.Init(4, false)
	c.Insert(1, nil)
	b := c.blk.Load()
	return chunkLayout{
		size:      unsafe.Sizeof(c),
		align:     unsafe.Alignof(c),
		blk:       unsafe.Offsetof(c.blk),
		sizeField: unsafe.Offsetof(c.size),
		limit:     unsafe.Offsetof(c.limit),
		sortedF:   unsafe.Offsetof(c.sorted),
		cell:      uintptr(unsafe.Pointer(b.val(1))) - uintptr(unsafe.Pointer(b.val(0))),
	}
}

// TestChunkLayoutIndependentOfPayload pins the argument in View's comment: a
// field added to Chunk that mentions P by value fails here, not in a
// benchmark or a crash.
func TestChunkLayoutIndependentOfPayload(t *testing.T) {
	want := layoutOf[uint64]()
	if want.cell != unsafe.Sizeof(unsafe.Pointer(nil)) {
		t.Fatalf("payload cell is %d bytes, want one pointer word", want.cell)
	}
	for name, got := range map[string]chunkLayout{
		"[4]uint64":      layoutOf[[4]uint64](),
		"struct{p *int}": layoutOf[struct{ p *int }](),
	} {
		if got != want {
			t.Errorf("Chunk[%s] layout %+v, Chunk[uint64] layout %+v", name, got, want)
		}
	}
}

// TestViewRoundTrip drives a chunk through a converted view the way a data
// node does: the storage is declared with one payload type and every access
// goes through a view of another. Under -race this also runs checkptr over
// the conversion.
func TestViewRoundTrip(t *testing.T) {
	type wide struct{ a, b, c, d uint64 }
	bothPolicies(t, func(t *testing.T, sorted bool) {
		var store Chunk[struct{ p *int }]
		store.Init(4, sorted)
		c := View[wide](&store)
		if c.Cap() != 8 || c.Sorted() != sorted {
			t.Fatalf("view sees cap=%d sorted=%t", c.Cap(), c.Sorted())
		}
		for k := int64(7); k >= 0; k-- {
			if !c.Insert(k, &wide{a: uint64(k), d: ^uint64(k)}) {
				t.Fatalf("Insert(%d) failed", k)
			}
		}
		if store.Size() != 8 || !store.Full() {
			t.Fatalf("declared type sees size=%d after inserts through the view", store.Size())
		}
		for k := int64(0); k < 8; k++ {
			v, ok := c.Get(k)
			if !ok || v.a != uint64(k) || v.d != ^uint64(k) {
				t.Fatalf("Get(%d) = %+v, %t", k, v, ok)
			}
		}
		for k := int64(0); k < 8; k += 2 {
			if v, ok := c.Remove(k); !ok || v.a != uint64(k) {
				t.Fatalf("Remove(%d) = %+v, %t", k, v, ok)
			}
		}
		if err := store.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		store.Init(4, sorted)
		if c.Size() != 0 {
			t.Fatalf("view sees size=%d after reset", c.Size())
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestInitLeavesOldBlockAlone covers both halves of the recycled-chunk
// reset: a payload past the live prefix is an invariant violation
// CheckInvariants reports, and Init drops the block for the shared empty one
// without writing to it, so a reader still working from the old block sees
// it exactly as it was.
func TestInitLeavesOldBlockAlone(t *testing.T) {
	c := newChunk(t, 4, true)
	for k := int64(0); k < 6; k++ {
		c.Insert(k, val(k))
	}
	c.Remove(5)
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	old := c.blk.Load()
	old.storeVal(5, unsafe.Pointer(val(99)))
	err := c.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "slot 5 past size 5") {
		t.Fatalf("CheckInvariants = %v, want the planted payload at slot 5 reported", err)
	}
	c.Init(4, false)
	if c.blk.Load() != &emptyBlock || c.Size() != 0 || c.Sorted() || c.Cap() != 8 {
		t.Fatalf("reinit left block cap %d, size %d, sorted %t, Cap %d",
			c.blk.Load().cap, c.Size(), c.Sorted(), c.Cap())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if k, v := old.key(i).Load(), (*int64)(old.loadVal(i)); k != int64(i) || v == nil || *v != [6]int64{0, 1, 2, 3, 4, 99}[i] {
			t.Fatalf("Init wrote to the old block: cell %d holds %d → %v", i, k, v)
		}
	}
	c.Insert(3, val(3))
	if v, ok := c.Get(3); !ok || *v != 3 {
		t.Fatal("chunk unusable after reinit")
	}
}
