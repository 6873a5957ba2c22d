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
//	capw uint32        the block's capacity c, fixed for its lifetime, with
//	                   narrowBit set in a narrow block
//	hi   uint32        the upper 32 bits every key of a narrow block shares
//	keys [c]int64      atomic key cells (wide), or
//	     [c]uint32     atomic low key halves (narrow), padded to 8 bytes
//	vals [c]cell       atomic payload cells
//
// A block is narrow iff every key it was allocated to hold shares one upper
// half: its key cells then keep only the lower halves, 12-byte slots where a
// wide block has 16-byte ones. Within one upper half, unsigned order of the
// lower halves is key order. The width is chosen at allocation and, like the
// capacity, never changes; a key that does not fit a narrow block goes into
// a new, wide block on the resize path (Cells.grow).
//
// A payload cell is an unsafe.Pointer in a pointer-celled chunk and a uint64
// in a word-celled one (Cells.InitWords), so word cells are 8 bytes even
// where pointers are 4. The narrow key array is padded to a multiple of 8
// bytes, so every payload array starts 8-aligned on every platform. The Go
// type below names only the header. Each allocation's real type is built per
// capacity, cell kind and width with reflect.StructOf (shapeOf), so the
// collector scans exactly the payload cells of a pointer-celled block and
// nothing of a word-celled one, which is allocated noscan. A block is
// immutable in its header and is published by one atomic store of the
// chunk's block pointer, so a reader that loaded it may trust the header
// with plain loads and index any cell below its capacity.
type block struct {
	capw uint32
	hi   uint32
}

const (
	// narrowBit marks a narrow block in capw.
	narrowBit = 1 << 31
	// keysOff is where the key cells start: right after the 8-byte header,
	// so the 64-bit key cells (and the word cells after either key array)
	// are 8-byte aligned even where pointers are 4 bytes.
	keysOff  = unsafe.Sizeof(block{})
	ptrSize  = unsafe.Sizeof(unsafe.Pointer(nil))
	wordSize = unsafe.Sizeof(uint64(0))
	loSize   = unsafe.Sizeof(uint32(0))
)

// emptyBlock is the zero-capacity block every chunk starts from and returns
// to when it empties: an empty chunk costs no allocation. Nothing is ever
// written to it.
var emptyBlock block

// cap is the block's capacity.
func (b *block) cap() int { return int(b.capw &^ narrowBit) }

// narrow reports whether b's key cells are 32-bit lower halves.
func (b *block) narrow() bool { return b.capw&narrowBit != 0 }

// base is the smallest key a narrow block can hold: hi with a zero lower
// half.
func (b *block) base() int64 { return int64(uint64(b.hi) << 32) }

// key returns the key cell i of a wide block. i must be below b.cap().
func (b *block) key(i int) *atomic.Int64 {
	return (*atomic.Int64)(unsafe.Add(unsafe.Pointer(b), keysOff+uintptr(i)*cellSize))
}

// lo returns the key cell i of a narrow block. i must be below b.cap().
func (b *block) lo(i int) *atomic.Uint32 {
	return (*atomic.Uint32)(unsafe.Add(unsafe.Pointer(b), keysOff+uintptr(i)*loSize))
}

// loadKey loads key i of a block of either width.
func (b *block) loadKey(i int) int64 {
	if b.narrow() {
		return b.base() | int64(b.lo(i).Load())
	}
	return b.key(i).Load()
}

// storeKey stores k into key cell i. A narrow block must hold k: a 32-bit
// cell cannot keep another upper half, so a key that would lose it panics
// here instead of turning into a different key.
func (b *block) storeKey(i int, k int64) {
	if b.narrow() {
		if hiOf(k) != b.hi {
			panic(fmt.Sprintf("vectormap: key %d stored in a narrow block of upper half %#x", k, b.hi))
		}
		b.lo(i).Store(uint32(k))
	} else {
		b.key(i).Store(k)
	}
}

// keyBytes is the size of the key array of a block of capacity c: c wide
// cells, or c narrow ones rounded up to an even count.
func keyBytes(c int, narrow bool) uintptr {
	if narrow {
		return uintptr(c+c&1) * loSize
	}
	return uintptr(c) * cellSize
}

// vals is the address of the first payload cell.
func (b *block) vals() unsafe.Pointer {
	return unsafe.Add(unsafe.Pointer(b), keysOff+keyBytes(b.cap(), b.narrow()))
}

// val returns pointer cell i. i must be below b.cap().
func (b *block) val(i int) *unsafe.Pointer {
	return (*unsafe.Pointer)(unsafe.Add(b.vals(), uintptr(i)*ptrSize))
}

// word returns word cell i. i must be below b.cap().
func (b *block) word(i int) *atomic.Uint64 {
	return (*atomic.Uint64)(unsafe.Add(b.vals(), uintptr(i)*wordSize))
}

func (b *block) loadVal(i int) unsafe.Pointer { return atomic.LoadPointer(b.val(i)) }

func (b *block) storeVal(i int, v unsafe.Pointer) { atomic.StorePointer(b.val(i), v) }

// span is the smallest and the largest of a set of keys; the empty set's
// span has lo > hi.
type span struct{ lo, hi int64 }

var noKeys = span{PosInf, NegInf}

func spanOf(k int64) span { return span{k, k} }

func (s span) with(t span) span { return span{min(s.lo, t.lo), max(s.hi, t.hi)} }

// hiOf is the upper half of k, which a narrow block keeps in its header.
func hiOf(k int64) uint32 { return uint32(uint64(k) >> 32) }

// narrow reports whether a block for the keys of s can be narrow: s is not
// empty and its ends share an upper half, so every key between them does.
func (s span) narrow() bool { return s.lo <= s.hi && hiOf(s.lo) == hiOf(s.hi) }

// span is the span of b's first s keys as far as a width needs it: in a
// narrow block, which holds one upper half, any key of that half stands for
// them all.
func (b *block) span(s int) span {
	if b.narrow() && s > 0 {
		return spanOf(b.base())
	}
	sp := noKeys
	for i := 0; i < s; i++ {
		sp = sp.with(spanOf(b.loadKey(i)))
	}
	return sp
}

// holds reports whether b's key cells can store every key of sp.
func (b *block) holds(sp span) bool {
	return !b.narrow() || sp.lo > sp.hi || hiOf(sp.lo) == b.hi && hiOf(sp.hi) == b.hi
}

// fill copies src's first n cells into the same cells of b with plain
// (bulk) copies rather than one atomic store per cell, converting the keys
// where the two widths differ. b must be a fresh block no reader can see
// yet, of src's cell kind, that holds src's keys, and src must have no other
// writer; concurrent atomic loads of src by optimistic readers do not race
// with these reads.
func (b *block) fill(src *block, n int, words bool) {
	if n == 0 {
		return
	}
	switch nb, ns := b.narrow(), src.narrow(); {
	case nb && ns:
		copy(unsafe.Slice((*uint32)(unsafe.Pointer(b.lo(0))), n),
			unsafe.Slice((*uint32)(unsafe.Pointer(src.lo(0))), n))
	case nb:
		dst := unsafe.Slice((*uint32)(unsafe.Pointer(b.lo(0))), n)
		for i, k := range unsafe.Slice((*int64)(unsafe.Pointer(src.key(0))), n) {
			dst[i] = uint32(k)
		}
	case ns:
		dst, base := unsafe.Slice((*int64)(unsafe.Pointer(b.key(0))), n), src.base()
		for i, lo := range unsafe.Slice((*uint32)(unsafe.Pointer(src.lo(0))), n) {
			dst[i] = base | int64(lo)
		}
	default:
		copy(unsafe.Slice((*int64)(unsafe.Pointer(b.key(0))), n),
			unsafe.Slice((*int64)(unsafe.Pointer(src.key(0))), n))
	}
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
//     cells if that one is smaller in bytes, or drops an empty chunk to the
//     shared emptyBlock;
//   - a chunk that receives n elements at once (a split destination, a merge,
//     a batch run) is sized for them in one step, with room(n) cells when
//     more inserts are likely to follow.
//
// Every capacity is then rounded up to the last cell its allocator size class
// pays for and capped at the chunk's logical capacity, 2×targetSize. Each
// new block is narrow iff every key it is allocated for shares one upper
// half, so a resize also narrows a wide block whose out-of-span keys left.
const (
	growNum, growDen = 3, 2 // a resized block has half again the cells it must hold
	minHeadroom      = 4    // ... and at least this many spare ones
)

// room is the cell count a block resized around n elements is asked for.
func room(n int) int { return max(n+minHeadroom, n*growNum/growDen) }

// capFor is the capacity of the block allocated for at least n ≤ limit cells
// of the given kind and width.
func capFor(n, limit int, words, narrow bool) int {
	return min(shapeOf(n, words, narrow).fit, limit)
}

// newBlock allocates a zeroed block of capacity c ≥ 1 for the keys of sp:
// one allocation, narrow iff sp allows it.
func newBlock(c int, words bool, sp span) *block {
	narrow := sp.narrow()
	b := (*block)(reflect.New(shapeOf(c, words, narrow).typ).UnsafePointer())
	b.capw = uint32(c)
	if narrow {
		b.capw |= narrowBit
		b.hi = hiOf(sp.lo)
	}
	return b
}

// shape is what allocating a block of one capacity, cell kind and width
// needs.
type shape struct {
	typ   reflect.Type // struct{ Cap, Hi uint32; Keys [c]int64 or [c+c&1]uint32; Vals [c]unsafe.Pointer or [c]uint64 }
	fit   int          // the most cells a block in the same size class holds
	class uintptr      // the bytes that size class pays for
}

// shapes caches one shape per capacity, cell kind (first index 1: word
// cells) and width (second index 1: narrow): building the type costs about
// a microsecond, a block resize otherwise well under one. Each table is
// indexed by capacity and replaced copy-on-write under its mu, so a hit is
// one atomic load and one index.
var shapes [2][2]struct {
	mu  sync.Mutex
	tab atomic.Pointer[[]*shape]
}

func shapeOf(c int, words, narrow bool) *shape {
	cache := &shapes[b2i(words)][b2i(narrow)]
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
	tab[c] = newShape(c, words, narrow)
	cache.tab.Store(&tab)
	return tab[c]
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func newShape(c int, words, narrow bool) *shape {
	u32 := reflect.TypeFor[uint32]()
	keys := reflect.ArrayOf(c, reflect.TypeFor[int64]())
	if narrow {
		// An even count of 4-byte cells: explicit padding, because
		// StructOf aligns a uint64 to only 4 bytes on 32-bit platforms.
		keys = reflect.ArrayOf(c+c&1, u32)
	}
	cell, cellBytes := reflect.TypeFor[unsafe.Pointer](), ptrSize
	if words {
		cell, cellBytes = reflect.TypeFor[uint64](), wordSize
	}
	typ := reflect.StructOf([]reflect.StructField{
		{Name: "Cap", Type: u32},
		{Name: "Hi", Type: u32},
		{Name: "Keys", Type: keys},
		{Name: "Vals", Type: reflect.ArrayOf(c, cell)},
	})
	if typ.Field(2).Offset != keysOff || typ.Field(3).Offset != keysOff+keyBytes(c, narrow) {
		panic(fmt.Sprintf("vectormap: block layout for capacity %d is not header, keys, vals", c))
	}
	// The allocator rounds every object up to its size class, and append's
	// capacity growth reports that rounding for an object of a given size
	// and kind (a pointer-bearing one pays a malloc header, a noscan one does
	// not), the same path reflect.New takes.
	var class uintptr
	if words {
		n := int((typ.Size() + wordSize - 1) / wordSize)
		class = uintptr(cap(append([]uint64(nil), make([]uint64, n)...))) * wordSize
	} else {
		n := int((typ.Size() + ptrSize - 1) / ptrSize)
		class = uintptr(cap(append([]unsafe.Pointer(nil), make([]unsafe.Pointer, n)...))) * ptrSize
	}
	slot := cellSize + cellBytes
	if narrow {
		slot = loSize + cellBytes
	}
	fit := int((class - keysOff) / slot)
	for keysOff+keyBytes(fit, narrow)+uintptr(fit)*cellBytes > class {
		fit-- // the narrow key array's padding cell
	}
	return &shape{typ: typ, fit: fit, class: class}
}
