package vectormap

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"unsafe"
)

// block is a chunk's storage: one allocation laid out as
//
//	cap  int64              the block's capacity c, fixed for its lifetime
//	keys [c]int64           atomic key cells
//	vals [c]unsafe.Pointer  atomic payload cells
//
// The Go type below names only the header. Each allocation's real type is
// built per capacity with reflect.StructOf (shapeOf), so the collector scans
// exactly the payload cells and nothing else. A block is immutable in its
// capacity and is published by one atomic store of the chunk's block
// pointer, so a reader that loaded it may trust cap with a plain load and
// index any cell below it.
type block struct {
	cap int64
}

const (
	// keysOff is where the key cells start: right after the capacity word,
	// which is 8 bytes on every platform, so the 64-bit key cells are 8-byte
	// aligned even where pointers are 4 bytes.
	keysOff = unsafe.Sizeof(block{})
	ptrSize = unsafe.Sizeof(unsafe.Pointer(nil))
)

// emptyBlock is the zero-capacity block every chunk starts from and returns
// to when it empties: an empty chunk costs no allocation. Nothing is ever
// written to it.
var emptyBlock block

// key returns key cell i. i must be below b.cap.
func (b *block) key(i int) *atomic.Int64 {
	return (*atomic.Int64)(unsafe.Add(unsafe.Pointer(b), keysOff+uintptr(i)*cellSize))
}

// val returns payload cell i. i must be below b.cap.
func (b *block) val(i int) *unsafe.Pointer {
	return (*unsafe.Pointer)(unsafe.Add(unsafe.Pointer(b),
		keysOff+uintptr(b.cap)*cellSize+uintptr(i)*ptrSize))
}

func (b *block) loadVal(i int) unsafe.Pointer { return atomic.LoadPointer(b.val(i)) }

func (b *block) storeVal(i int, v unsafe.Pointer) { atomic.StorePointer(b.val(i), v) }

// clearVal drops the payload reference in cell i, for the collector.
func (b *block) clearVal(i int) { atomic.StorePointer(b.val(i), nil) }

// copyCell copies the key and payload of src's cell i into b's cell j.
func (b *block) copyCell(j int, src *block, i int) {
	b.key(j).Store(src.key(i).Load())
	atomic.StorePointer(b.val(j), atomic.LoadPointer(src.val(i)))
}

// fill copies src's first n cells into the same cells of b with plain
// (bulk) copies rather than one atomic store per cell. b must be a fresh
// block no reader can see yet, and src must have no other writer; concurrent
// atomic loads of src by optimistic readers do not race with these reads.
func (b *block) fill(src *block, n int) {
	if n == 0 {
		return
	}
	copy(unsafe.Slice((*int64)(unsafe.Pointer(b.key(0))), n),
		unsafe.Slice((*int64)(unsafe.Pointer(src.key(0))), n))
	copy(unsafe.Slice(b.val(0), n), unsafe.Slice(src.val(0), n))
}

// Sizing policy:
//
//   - an insert into a full block moves the elements into one with room(size)
//     cells;
//   - a removal that leaves size < cap/2 moves them into one with room(size)
//     cells, or drops an empty chunk to the shared emptyBlock;
//   - a chunk that receives n elements at once (a split destination, a merge,
//     a batch run) is sized for them in one step, with room(n) cells when
//     more inserts are likely to follow.
//
// Every capacity is then rounded up to the last cell its allocator size class
// pays for and capped at the chunk's logical capacity, 2×targetSize.
const (
	growNum, growDen = 3, 2 // a resized block has half again the cells it must hold
	minHeadroom      = 4    // ... and at least this many spare ones
)

// room is the cell count a block resized around n elements is asked for.
func room(n int) int { return max(n+minHeadroom, n*growNum/growDen) }

// capFor is the capacity of the block allocated for at least n ≤ limit cells.
func capFor(n, limit int) int { return min(shapeOf(n).fit, limit) }

// newBlock allocates a zeroed block of capacity c ≥ 1: one allocation.
func newBlock(c int) *block {
	b := (*block)(reflect.New(shapeOf(c).typ).UnsafePointer())
	b.cap = int64(c)
	return b
}

// shape is what allocating a block of one capacity needs.
type shape struct {
	typ reflect.Type // struct{ Cap int64; Keys [c]int64; Vals [c]unsafe.Pointer }
	fit int          // the most cells a block in the same size class holds
}

// shapes caches one shape per capacity: building the type costs about a
// microsecond, a block resize otherwise well under one. The table is indexed
// by capacity and replaced copy-on-write under mu, so a hit is one atomic
// load and one index.
var shapes struct {
	mu  sync.Mutex
	tab atomic.Pointer[[]*shape]
}

func shapeOf(c int) *shape {
	if tab := shapes.tab.Load(); tab != nil && c < len(*tab) && (*tab)[c] != nil {
		return (*tab)[c]
	}
	shapes.mu.Lock()
	defer shapes.mu.Unlock()
	var old []*shape
	if tab := shapes.tab.Load(); tab != nil {
		old = *tab
	}
	if c < len(old) && old[c] != nil {
		return old[c]
	}
	tab := make([]*shape, max(len(old), c+1))
	copy(tab, old)
	tab[c] = newShape(c)
	shapes.tab.Store(&tab)
	return tab[c]
}

func newShape(c int) *shape {
	i64 := reflect.TypeFor[int64]()
	typ := reflect.StructOf([]reflect.StructField{
		{Name: "Cap", Type: i64},
		{Name: "Keys", Type: reflect.ArrayOf(c, i64)},
		{Name: "Vals", Type: reflect.ArrayOf(c, reflect.TypeFor[unsafe.Pointer]())},
	})
	if typ.Field(1).Offset != keysOff || typ.Field(2).Offset != keysOff+uintptr(c)*cellSize {
		panic(fmt.Sprintf("vectormap: block layout for capacity %d is not cap, keys, vals", c))
	}
	// The allocator rounds every object up to its size class, and append's
	// capacity growth reports that rounding for a pointer-bearing object of a
	// given size (malloc header included), the same path reflect.New takes.
	words := int((typ.Size() + ptrSize - 1) / ptrSize)
	usable := uintptr(cap(append([]unsafe.Pointer(nil), make([]unsafe.Pointer, words)...))) * ptrSize
	return &shape{typ: typ, fit: int((usable - keysOff) / (cellSize + ptrSize))}
}
