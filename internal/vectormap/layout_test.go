package vectormap

import (
	"reflect"
	"slices"
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

// TestShareSurvivesDetachedWrites pins the rule snapshot records rest on: a
// view taken with Share keeps the pairs it was taken with, and its block
// every byte, through Detach and any write after it — each write primitive,
// and removals down to a shrink — at every key width, in both cell kinds and
// both policies. The write lands in the copy Detach moved the chunk onto.
// n keys leave the block spare cells at every width, so that a put stores
// into the block and does not grow out of it.
func TestShareSurvivesDetachedWrites(t *testing.T) {
	const target, n = 16, 19
	// env is one write's subtest: the shared chunk c, a second chunk d, the
	// width's keys and the cell kind's payloads.
	type env struct {
		t    *testing.T
		c, d *Cells
		key  func(i int) int64
		cell func(k int64) Cell
	}
	writes := []struct {
		name  string
		write func(e env)
	}{
		{"Insert", func(e env) { e.c.Insert(e.key(-1), e.cell(e.key(-1))) }},
		{"Set", func(e env) { e.c.Set(e.key(0), e.cell(e.key(5))) }},
		{"Remove", func(e env) { e.c.Remove(e.key(0)) }},
		{"ApplyOps", func(e env) {
			ops := []CellOp{{Key: e.key(1), Val: e.cell(e.key(5))}, {Key: e.key(2), Del: true}, {Key: e.key(-2), Val: e.cell(e.key(-2))}}
			e.c.ApplyOps(ops, make([]SlotOutcome, len(ops)))
		}},
		{"MoveGreaterTo", func(e env) { e.c.MoveGreaterTo(e.key(n/2), e.d) }},
		{"SplitUpperHalfTo", func(e env) { e.c.SplitUpperHalfTo(e.d) }},
		{"AbsorbFrom", func(e env) {
			cv := e.cell(e.key(n))
			e.d.Insert(e.key(n), cv)
			var src Cells // the source's block needs no Detach
			src.Share(e.d)
			e.c.AbsorbFrom(e.d)
			if v, ok := src.Get(e.key(n)); !ok || src.Size() != 1 || v != cv {
				e.t.Fatal("AbsorbFrom changed the block its source left")
			}
		}},
		{"shrink", func(e env) {
			cells := e.c.BlockCap()
			for i := 0; i < n-2; i++ {
				e.c.Remove(e.key(i))
			}
			if e.c.BlockCap() >= cells {
				e.t.Fatalf("removals left %d cells of %d: no shrink", e.c.BlockCap(), cells)
			}
		}},
	}
	perWidth(t, func(t *testing.T, g spacing) {
		for _, words := range []bool{false, true} {
			cell := func(k int64) Cell { return Cell{Ptr: unsafe.Pointer(val(k))} }
			valueOf := func(v Cell) int64 { return *(*int64)(v.Ptr) }
			if words {
				cell = func(k int64) Cell { return Cell{Word: uint64(k)} }
				valueOf = func(v Cell) int64 { return int64(v.Word) }
			}
			t.Run(map[bool]string{false: "pointer", true: "word"}[words], func(t *testing.T) {
				bothPolicies(t, func(t *testing.T, sorted bool) {
					for _, wr := range writes {
						t.Run(wr.name, func(t *testing.T) {
							var c, d Cells
							c.init(target, sorted, words)
							d.init(target, sorted, words)
							// Alternate low and high keys, so an unsorted
							// chunk's compaction moves cells.
							for i := 0; i < n; i++ {
								j := i / 2
								if i%2 == 1 {
									j = n - 1 - j
								}
								c.Insert(g.key(j), cell(g.key(j)))
							}
							var view Cells
							view.Share(&c)
							b := view.blk.Load()
							image := func() []byte {
								size := shapeOf(b.cap(), words, b.width()).typ.Size()
								return slices.Clone(unsafe.Slice((*byte)(unsafe.Pointer(b)), size))
							}
							before := image()
							c.Detach()
							wr.write(env{t, &c, &d, g.key, cell})
							if err := c.CheckInvariants(); err != nil {
								t.Fatal(err)
							}
							if !slices.Equal(image(), before) {
								t.Fatal("a write after Detach changed the shared block")
							}
							var got []int64
							view.ForEachOrdered(func(k int64, v Cell) bool {
								if valueOf(v) != k {
									t.Fatalf("the view maps %d to %d", k, valueOf(v))
								}
								got = append(got, k)
								return true
							})
							for i, k := range got {
								if k != g.key(i) {
									t.Fatalf("the view holds %v, want key(0) to key(%d)", got, n-1)
								}
							}
							if len(got) != n {
								t.Fatalf("the view holds %d keys, want %d", len(got), n)
							}
						})
					}
				})
			})
		}
	})
}
