package vectormap

import (
	"reflect"
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

// TestViewRoundTrip drives a chunk through its untyped view the way a data
// node of a word-valued map does: the storage is declared as a typed chunk
// of pointers, InitWords makes its cells words, and every access goes
// through Cells. Zero is a live value like any other, and Init turns the
// same storage back into a pointer-celled chunk. Under -race this also runs
// checkptr over the cell arithmetic.
func TestViewRoundTrip(t *testing.T) {
	bothPolicies(t, func(t *testing.T, sorted bool) {
		var store Chunk[struct{ p *int }]
		store.InitWords(4, sorted)
		c := &store.Cells
		if c.Cap() != 8 || c.Sorted() != sorted || !c.Words() {
			t.Fatalf("view sees cap=%d sorted=%t words=%t", c.Cap(), c.Sorted(), c.Words())
		}
		word := func(k int64) uint64 { return uint64(k) * 0x9e3779b97f4a7c15 } // 0 for k = 0
		for k := int64(7); k >= 0; k-- {
			if !c.Insert(k, Cell{Word: word(k)}) {
				t.Fatalf("Insert(%d) failed", k)
			}
		}
		if store.Size() != 8 || !store.Full() {
			t.Fatalf("declared type sees size=%d after inserts through the view", store.Size())
		}
		for k := int64(0); k < 8; k++ {
			v, ok := c.Get(k)
			if !ok || v != (Cell{Word: word(k)}) {
				t.Fatalf("Get(%d) = %+v, %t", k, v, ok)
			}
		}
		for k := int64(0); k < 8; k += 2 {
			if v, ok := c.Remove(k); !ok || v.Word != word(k) {
				t.Fatalf("Remove(%d) = %+v, %t", k, v, ok)
			}
		}
		if k, v, ok := c.FindLE(2); !ok || k != 1 || v.Word != word(1) {
			t.Fatalf("FindLE(2) = %d, %+v, %t", k, v, ok)
		}
		if err := store.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		store.Init(4, sorted)
		if c.Size() != 0 || c.Words() {
			t.Fatalf("view sees size=%d words=%t after reset", c.Size(), c.Words())
		}
		store.Insert(3, &struct{ p *int }{})
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// hasPointers reports whether a value of type t holds anything the collector
// scans: the reflect-level equivalent of the runtime's PtrBytes != 0.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan, reflect.Func,
		reflect.Slice, reflect.String, reflect.Interface:
		return true
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// TestBlockShapeScansOnlyPointerCells: a word-celled block's type holds no
// pointers, so the allocator places it noscan and the collector never reads
// it; a pointer-celled block's type holds exactly its payload cells as
// pointers. Every kind and width keeps the header, keys, vals layout, with
// the key array padded to a multiple of 8 bytes, 8-byte word cells and
// pointer-sized pointer cells on every platform, and each fills its own
// size class.
func TestBlockShapeScansOnlyPointerCells(t *testing.T) {
	for _, c := range []int{1, 5, 16, 64} {
		for _, w := range []width{w8, w4, w2, w1} {
			words, ptrs := shapeOf(c, true, w), shapeOf(c, false, w)
			if hasPointers(words.typ) {
				t.Fatalf("word block of %d cells has pointers: %v", c, words.typ)
			}
			if !hasPointers(ptrs.typ) || hasPointers(ptrs.typ.Field(1).Type) {
				t.Fatalf("pointer block of %d cells scans the wrong fields: %v", c, ptrs.typ)
			}
			cells := uintptr(c)
			cells = (cells + 8/w.bytes() - 1) / (8 / w.bytes()) * (8 / w.bytes()) // whole 8-byte words
			keys := cells * w.bytes()
			if got := words.typ.Size(); got != keysOff+keys+uintptr(c)*8 {
				t.Fatalf("word block of %d cells (%d-byte keys) is %d bytes", c, w.bytes(), got)
			}
			if got := ptrs.typ.Size(); got != keysOff+keys+uintptr(c)*ptrSize {
				t.Fatalf("pointer block of %d cells (%d-byte keys) is %d bytes", c, w.bytes(), got)
			}
			if off := words.typ.Field(2).Offset; off%8 != 0 {
				t.Fatalf("word cells of a %d-cell block (%d-byte keys) start at byte %d", c, w.bytes(), off)
			}
			for _, s := range []*shape{words, ptrs} {
				if s.fit < c || s.typ.Size() > s.class {
					t.Fatalf("a block of %d cells reports room for %d in %d bytes", c, s.fit, s.class)
				}
			}
		}
	}
}

// TestBlockSlots pins the slot of each key width beside a word cell: 16, 12,
// 10 and 9 bytes, so a full 1,024-byte class holds 63, 84, 101 or 112 cells
// (more than a header of 1-byte cells can count: the shape does not care).
func TestBlockSlots(t *testing.T) {
	for w, want := range map[width]int{w8: 63, w4: 84, w2: 101, w1: 112} {
		if s := shapeOf(want, true, w); s.class != 1024 || s.fit != want {
			t.Errorf("word block of %d cells (%d-byte keys): class %d, fit %d", want, w.bytes(), s.class, s.fit)
		}
	}
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
			c.blk.Load().cap(), c.Size(), c.Sorted(), c.Cap())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if k, v := old.loadKey(i), (*int64)(old.loadVal(i)); k != int64(i) || v == nil || *v != [6]int64{0, 1, 2, 3, 4, 99}[i] {
			t.Fatalf("Init wrote to the old block: cell %d holds %d → %v", i, k, v)
		}
	}
	c.Insert(3, val(3))
	if v, ok := c.Get(3); !ok || *v != 3 {
		t.Fatal("chunk unusable after reinit")
	}
}
