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
//	cap  int64     the block's capacity c, fixed for its lifetime
//	keys [c]int64  atomic key cells
//	vals [c]cell   atomic payload cells
//
// A payload cell is an unsafe.Pointer in a pointer-celled chunk and a uint64
// in a word-celled one (Cells.InitWords), so word cells are 8 bytes even
// where pointers are 4. The Go type below names only the header. Each
// allocation's real type is built per capacity and cell kind with
// reflect.StructOf (shapeOf), so the collector scans exactly the payload
// cells of a pointer-celled block and nothing of a word-celled one, which is
// allocated noscan. A block is immutable in its capacity and is published
// by one atomic store of the chunk's block pointer, so a reader that loaded
// it may trust cap with a plain load and index any cell below it.
type block struct {
	cap int64
}

const (
	// keysOff is where the key cells start: right after the capacity word,
	// which is 8 bytes on every platform, so the 64-bit key cells (and the
	// word cells after them) are 8-byte aligned even where pointers are 4
	// bytes.
	keysOff  = unsafe.Sizeof(block{})
	ptrSize  = unsafe.Sizeof(unsafe.Pointer(nil))
	wordSize = unsafe.Sizeof(uint64(0))
)

// emptyBlock is the zero-capacity block every chunk starts from and returns
// to when it empties: an empty chunk costs no allocation. Nothing is ever
// written to it.
var emptyBlock block

// key returns key cell i. i must be below b.cap.
func (b *block) key(i int) *atomic.Int64 {
	return (*atomic.Int64)(unsafe.Add(unsafe.Pointer(b), keysOff+uintptr(i)*cellSize))
}

// vals is the address of the first payload cell.
func (b *block) vals() unsafe.Pointer {
	return unsafe.Add(unsafe.Pointer(b), keysOff+uintptr(b.cap)*cellSize)
}

// val returns pointer cell i. i must be below b.cap.
func (b *block) val(i int) *unsafe.Pointer {
	return (*unsafe.Pointer)(unsafe.Add(b.vals(), uintptr(i)*ptrSize))
}

// word returns word cell i. i must be below b.cap.
func (b *block) word(i int) *atomic.Uint64 {
	return (*atomic.Uint64)(unsafe.Add(b.vals(), uintptr(i)*wordSize))
}

func (b *block) loadVal(i int) unsafe.Pointer { return atomic.LoadPointer(b.val(i)) }

func (b *block) storeVal(i int, v unsafe.Pointer) { atomic.StorePointer(b.val(i), v) }

// fill copies src's first n cells into the same cells of b with plain
// (bulk) copies rather than one atomic store per cell. b must be a fresh
// block no reader can see yet, of src's cell kind, and src must have no
// other writer; concurrent atomic loads of src by optimistic readers do not
// race with these reads.
func (b *block) fill(src *block, n int, words bool) {
	if n == 0 {
		return
	}
	copy(unsafe.Slice((*int64)(unsafe.Pointer(b.key(0))), n),
		unsafe.Slice((*int64)(unsafe.Pointer(src.key(0))), n))
	if words {
		copy(unsafe.Slice((*uint64)(b.vals()), n), unsafe.Slice((*uint64)(src.vals()), n))
	} else {
		copy(unsafe.Slice(b.val(0), n), unsafe.Slice(src.val(0), n))
	}
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

// capFor is the capacity of the block allocated for at least n ≤ limit cells
// of the given kind.
func capFor(n, limit int, words bool) int { return min(shapeOf(n, words).fit, limit) }

// newBlock allocates a zeroed block of capacity c ≥ 1: one allocation.
func newBlock(c int, words bool) *block {
	b := (*block)(reflect.New(shapeOf(c, words).typ).UnsafePointer())
	b.cap = int64(c)
	return b
}

// shape is what allocating a block of one capacity and cell kind needs.
type shape struct {
	typ reflect.Type // struct{ Cap int64; Keys [c]int64; Vals [c]unsafe.Pointer or [c]uint64 }
	fit int          // the most cells a block in the same size class holds
}

// shapes caches one shape per capacity and cell kind (index 1: word cells):
// building the type costs about a microsecond, a block resize otherwise well
// under one. Each table is indexed by capacity and replaced copy-on-write
// under its mu, so a hit is one atomic load and one index.
var shapes [2]struct {
	mu  sync.Mutex
	tab atomic.Pointer[[]*shape]
}

func shapeOf(c int, words bool) *shape {
	cache := &shapes[0]
	if words {
		cache = &shapes[1]
	}
	if tab := cache.tab.Load(); tab != nil && c < len(*tab) && (*tab)[c] != nil {
		return (*tab)[c]
	}
	cache.mu.Lock()
	defer cache.mu.Unlock()
	var old []*shape
	if tab := cache.tab.Load(); tab != nil {
		old = *tab
	}
	if c < len(old) && old[c] != nil {
		return old[c]
	}
	tab := make([]*shape, max(len(old), c+1))
	copy(tab, old)
	tab[c] = newShape(c, words)
	cache.tab.Store(&tab)
	return tab[c]
}

func newShape(c int, words bool) *shape {
	i64 := reflect.TypeFor[int64]()
	cell, cellBytes := reflect.TypeFor[unsafe.Pointer](), ptrSize
	if words {
		cell, cellBytes = reflect.TypeFor[uint64](), wordSize
	}
	typ := reflect.StructOf([]reflect.StructField{
		{Name: "Cap", Type: i64},
		{Name: "Keys", Type: reflect.ArrayOf(c, i64)},
		{Name: "Vals", Type: reflect.ArrayOf(c, cell)},
	})
	if typ.Field(1).Offset != keysOff || typ.Field(2).Offset != keysOff+uintptr(c)*cellSize {
		panic(fmt.Sprintf("vectormap: block layout for capacity %d is not cap, keys, vals", c))
	}
	// The allocator rounds every object up to its size class, and append's
	// capacity growth reports that rounding for an object of a given size
	// and kind (a pointer-bearing one pays a malloc header, a noscan one does
	// not), the same path reflect.New takes.
	var usable uintptr
	if words {
		n := int((typ.Size() + wordSize - 1) / wordSize)
		usable = uintptr(cap(append([]uint64(nil), make([]uint64, n)...))) * wordSize
	} else {
		n := int((typ.Size() + ptrSize - 1) / ptrSize)
		usable = uintptr(cap(append([]unsafe.Pointer(nil), make([]unsafe.Pointer, n)...))) * ptrSize
	}
	return &shape{typ: typ, fit: int((usable - keysOff) / (cellSize + cellBytes))}
}
