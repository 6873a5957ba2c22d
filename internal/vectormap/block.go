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
//	hdr  uint64        base | capacity | width tag
//	keys [c]cell       atomic key cells of w = 1, 2, 4 or 8 bytes, padded to
//	                   a multiple of 8 bytes
//	vals [c]cell       atomic payload cells
//
// Every key is stored as its biased form u = uint64(k) ^ 1<<63, whose
// unsigned order is key order. A block of w-byte cells, w < 8, holds the keys
// of one window of 2^8w biased values, base ≤ u < base + 2^8w, where base is
// a multiple of half the window, 2^(8w-1); each cell stores u − base. So any
// keys less than 2^(8w-1) apart fit one block of w-byte cells, wherever they
// lie, unsigned order of the cells is key order at every width, and a key
// outside the window lies wholly before or after the block. An 8-byte cell
// stores u itself.
//
// The header is base with its low 8w−1 bits, which base leaves clear, holding
// a prefix-free width tag and the capacity, so a reader decodes the width
// from the three low bits before it knows the width:
//
//	1-byte cells:         bit 0 = 1, 6 bits of capacity − 1, a 57-bit base
//	2-, 4-, 8-byte cells: bit 0 = 0, a 2-bit code, 12, 28 or 61 capacity
//	                      bits, then a 49- or 33-bit base (none at 8)
//
// So a block of 1-byte cells has 1 to 64 of them (a full chunk at targetSize
// 32), and one of 2-byte cells at most 4,095. A block's width is the
// narrowest whose window holds every key it was allocated for and whose
// header counts the cells those keys need (sized). Like the capacity and the
// base it never changes; a key outside the window goes into a new block on
// the resize path (Cells.grow), which chooses the width and window again.
//
// sync/atomic has no 8- or 16-bit type, so a 1- or 2-byte cell is read and
// written through the aligned 4-byte word that holds it and its neighbours:
// cell i is the lane at bit 8w·(i mod 4/w) of word i·w/4. Only the node's
// single writer stores, and it rewrites its lane in a load and a store of
// the word. The scans read a whole word per load (search.go).
//
// A payload cell is an unsafe.Pointer in a pointer-celled chunk and a uint64
// in a word-celled one (Cells.InitWords), so word cells are 8 bytes even
// where pointers are 4. The key array is padded to a multiple of 8 bytes (8
// cells of 1 byte, 4 of 2, 2 of 4), so every payload array starts 8-aligned on
// every platform. The Go type below names only the header. Each allocation's
// real type is built per capacity, cell kind and width with
// reflect.StructOf (shapeOf), so the collector scans exactly the payload
// cells of a pointer-celled block and nothing of a word-celled one, which is
// allocated noscan. A block is immutable in its header and is published by
// one atomic store of the chunk's block pointer, so a reader that loaded it
// may trust the header with plain loads and index any cell below its
// capacity.
type block struct{ hdr uint64 }

// width is a block's key-cell width code: its cells are 8>>w bytes.
type width uint8

const (
	w8 width = iota
	w4
	w2
	w1
)

func (w width) bytes() uintptr { return 8 >> w }
func (w width) bits() uint     { return 64 >> w }

// maxCap is the largest capacity a header of width w holds.
func (w width) maxCap() uint64 {
	f := &capFields[tags[w]]
	return f.mask + f.min
}

// tags holds each width's tag, the header's low bits that name it: bit 0 set
// for 1-byte cells, else a 2-bit code above a clear bit 0.
var tags = [4]uint64{w8: 0b000, w4: 0b010, w2: 0b100, w1: 0b1}

// widths and capFields decode a header by its three low bits: the width they
// name, and where its capacity field starts, how wide it is and what a 0 in
// it stands for, and the log2 of the width's cell bytes (vals). A block of
// 1-byte cells has at least one, so its 6 bits hold 1 to 64 cells, a full
// chunk at targetSize 32; the other widths' fields count from 0, the empty
// block's capacity. The low bits 0b110 name no width and are never written.
var (
	widths    = [8]width{0b000: w8, 0b010: w4, 0b100: w2, 0b001: w1, 0b011: w1, 0b101: w1, 0b111: w1}
	capFields = [8]struct {
		shift, log uint8
		mask, min  uint64
	}{
		0b000: {3, 3, 1<<61 - 1, 0},
		0b010: {3, 2, 1<<28 - 1, 0},
		0b100: {3, 1, 1<<12 - 1, 0},
		0b001: {1, 0, 1<<6 - 1, 1}, 0b011: {1, 0, 1<<6 - 1, 1}, 0b101: {1, 0, 1<<6 - 1, 1}, 0b111: {1, 0, 1<<6 - 1, 1},
	}
)

const (
	// keysOff is where the key cells start: right after the 8-byte header,
	// so the key cells (and the word cells after them) are 8-byte aligned
	// even where pointers are 4 bytes.
	keysOff  = unsafe.Sizeof(block{})
	ptrSize  = unsafe.Sizeof(unsafe.Pointer(nil))
	wordSize = unsafe.Sizeof(uint64(0))
	// signBit biases an int64 key into a uint64 of the same order.
	signBit = 1 << 63
	// The Go runtime gives a pointer-bearing object larger than
	// mallocHeaderMin bytes (one pointer per bit of a pointer-sized word)
	// a mallocHeaderSize-byte header in front of it, in its size class.
	// TestBlockBytes checks both against the allocator's own count.
	mallocHeaderMin  = ptrSize * ptrSize * 8
	mallocHeaderSize = 8
)

// emptyBlock is the zero-capacity block every chunk starts from and returns
// to when it empties: an empty chunk costs no allocation. Nothing is ever
// written to it. Its header is 0: 8-byte cells, which hold any key.
var emptyBlock block

// width is the width of b's key cells.
func (b *block) width() width { return widths[b.hdr&7] }

// cap is the block's capacity. Masking a shift count with 63 spares the
// compiler's test for counts past 63 here and in vals.
func (b *block) cap() int {
	f := &capFields[b.hdr&7]
	return int(b.hdr>>(f.shift&63)&f.mask + f.min)
}

// keys is the address of the first key cell.
func (b *block) keys() unsafe.Pointer { return unsafe.Add(unsafe.Pointer(b), keysOff) }

// load loads key cell i of a block of size-byte cells, as the low bits of a
// uint64. The size is a constant wherever a width's kernel inlines it.
func load(keys unsafe.Pointer, i, size uintptr) uint64 {
	off := i * size
	if size == 8 {
		return atomic.LoadUint64((*uint64)(unsafe.Add(keys, off)))
	}
	w := atomic.LoadUint32((*uint32)(unsafe.Add(keys, off&^3))) >> (off & 3 * 8)
	return uint64(w) & (1<<(8*size) - 1)
}

// store stores the cell c into key cell i of a block of size-byte cells. A
// cell narrower than 8 bytes is rewritten in its 4-byte word, which only the
// caller, the node's writer, stores to.
func store(keys unsafe.Pointer, i, size uintptr, c uint64) {
	off := i * size
	if size == 8 {
		atomic.StoreUint64((*uint64)(unsafe.Add(keys, off)), c)
		return
	}
	w, sh, mask := (*atomic.Uint32)(unsafe.Add(keys, off&^3)), off&3*8, uint32(1)<<(8*size)-1
	w.Store(w.Load()&^(mask<<sh) | uint32(c)<<sh)
}

// windowBase clears the low 8·size−1 bits of u. Of a biased key, that is the
// base of the window of size-byte cells holding it in its lower half; of a
// header of that width, the block's base. It is 0 at 8 bytes.
func windowBase(u uint64, size uintptr) uint64 {
	if size == 8 {
		return 0
	}
	return u &^ (1<<(8*size-1) - 1)
}

// cellOf splits k for a block of size-byte cells: its cell, its biased form
// less the block's base, and where it lies against the block's window: -1
// below the base, 0 inside, 1 at base + 2^8w or above. Every key lies inside
// an 8-byte block's window.
func (b *block) cellOf(k int64, size uintptr) (c uint64, side int) {
	u := uint64(k) ^ signBit
	if size == 8 {
		return u, 0
	}
	base := windowBase(b.hdr, size)
	switch c = u - base; {
	case u < base:
		side = -1
	case c>>(8*size) != 0:
		side = 1
	}
	return c, side
}

// base is the base of b's window.
func (b *block) base() uint64 { return windowBase(b.hdr, b.width().bytes()) }

// keyOf is the key whose cell is c in b, of size-byte cells.
func (b *block) keyOf(c uint64, size uintptr) int64 {
	return int64((windowBase(b.hdr, size) + c) ^ signBit)
}

// loadKey loads key i of a block of any width: load and keyOf for a width
// known only at run time, spelled out to stay within the inlining budget.
func (b *block) loadKey(i int) int64 {
	w := widths[b.hdr&7]
	off := uintptr(i) << (3 - w)
	if w == w8 {
		return int64(atomic.LoadUint64((*uint64)(unsafe.Add(unsafe.Pointer(b), keysOff+off))) ^ signBit)
	}
	low := 63 >> w
	x := uint64(atomic.LoadUint32((*uint32)(unsafe.Add(unsafe.Pointer(b), keysOff+off&^3)))) >> (off & 3 * 8)
	return int64((b.hdr>>low<<low + x&(2<<low-1)) ^ signBit)
}

// storeKey stores k into key cell i. The block must hold k: a key outside
// the block's window would lose its high bits, so it panics here instead of
// turning into a different key.
func (b *block) storeKey(i int, k int64) {
	size := b.width().bytes()
	c, side := b.cellOf(k, size)
	if side != 0 {
		panic(fmt.Sprintf("vectormap: key %d stored in a block of %d-byte cells and base %#x",
			k, size, b.base()))
	}
	store(b.keys(), uintptr(i), size, c)
}

// keyBytes is the size of the key array of a block of capacity c and width
// w: c cells rounded up to a multiple of 8 bytes.
func keyBytes(c int, w width) uintptr { return (uintptr(c)*w.bytes() + 7) &^ 7 }

// vals is the address of the first payload cell: past the key array,
// b.cap() cells of b.width() bytes padded to 8 (keyBytes), decoded from one
// capFields entry so that the payload reads inline.
func (b *block) vals() unsafe.Pointer {
	f := &capFields[b.hdr&7]
	c := uintptr(b.hdr>>(f.shift&63)&f.mask + f.min)
	return unsafe.Add(unsafe.Pointer(b), keysOff+(c<<(f.log&63)+7)&^7)
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

// width is the narrowest width whose window holds every key of s. The
// window of w-byte cells that holds s.lo in its lower half is the one that
// reaches furthest above it, so s fits a window of that width if it fits
// that one. The empty span gets 8 bytes, and so does a span that holds a
// sentinel: a head or tail node's chunk, whose other keys all lie in other
// windows, even when the sentinel is alone.
func (s span) width() width {
	lo, hi := uint64(s.lo)^signBit, uint64(s.hi)^signBit
	switch {
	case s.lo > s.hi || s.lo == NegInf || s.hi == PosInf || !inWindow(lo, hi, 4):
		return w8
	case !inWindow(lo, hi, 2):
		return w4
	case !inWindow(lo, hi, 1):
		return w2
	}
	return w1
}

// windowFor is the base of the window of size-byte cells for the keys of
// sp, which must fit one. Of the two windows that may hold them, the one
// with sp.lo in its lower half and the one half a window lower, it takes the
// one whose middle lies nearer to theirs, so that keys put later on either
// side are as likely to fit.
func windowFor(sp span, size uintptr) uint64 {
	lo, hi := uint64(sp.lo)^signBit, uint64(sp.hi)^signBit
	base, half := windowBase(lo, size), uint64(1)<<(8*size-1)
	if base >= half && hi-base < half && lo+(hi-lo)/2-base < half/2 {
		base -= half
	}
	return base
}

// inWindow reports whether the biased keys lo ≤ hi fit one window of
// size-byte cells.
func inWindow(lo, hi uint64, size uintptr) bool {
	return (hi-windowBase(lo, size))>>(8*size) == 0
}

// span is the span of b's first s keys.
func (b *block) span(s int) span {
	if s == 0 {
		return noKeys
	}
	var sp span
	switch b.width() {
	case w1:
		sp.lo, sp.hi = bounds[uint8](b, s)
	case w2:
		sp.lo, sp.hi = bounds[uint16](b, s)
	case w4:
		sp.lo, sp.hi = bounds[uint32](b, s)
	default:
		sp.lo, sp.hi = bounds[uint64](b, s)
	}
	return sp
}

// holds reports whether b's key cells can store every key of sp.
func (b *block) holds(sp span) bool {
	size := b.width().bytes()
	_, below := b.cellOf(sp.lo, size)
	_, above := b.cellOf(sp.hi, size)
	return sp.lo > sp.hi || below == 0 && above == 0
}

// fill copies src's first n cells into the same cells of b. Keys of the
// same width and base and the payloads are plain (bulk) copies rather than
// one atomic store per cell; keys that change width or base go one by one.
// b must be a fresh block no reader can see yet, of src's cell kind, that
// holds src's keys, and src must have no other writer; concurrent atomic
// loads of src by optimistic readers do not race with these reads.
func (b *block) fill(src *block, n int, words bool) {
	if w := b.width(); w == src.width() && b.base() == src.base() {
		nb := keyBytes(n, w)
		copy(unsafe.Slice((*byte)(b.keys()), nb), unsafe.Slice((*byte)(src.keys()), nb))
	} else {
		for i := 0; i < n; i++ {
			b.storeKey(i, src.loadKey(i))
		}
	}
	if n == 0 {
		return
	}
	if words {
		copy(unsafe.Slice((*uint64)(b.vals()), n), unsafe.Slice((*uint64)(src.vals()), n))
	} else {
		copy(unsafe.Slice(b.val(0), n), unsafe.Slice(src.val(0), n))
	}
}

// clone is a fresh block of b's capacity, width and window holding a copy of
// b's first n cells, under the same terms as fill.
func (b *block) clone(n int, words bool) *block {
	nb := (*block)(reflect.New(shapeOf(b.cap(), words, b.width()).typ).UnsafePointer())
	nb.hdr = b.hdr
	nb.fill(b, n, words)
	return nb
}

// Sizing policy. A resize asks for one of two rooms around the n elements a
// block must hold: the geometric appendRoom(n) = max(n+4, 3n/2) cells, or
// room(n) = max(n+4, 5n/4).
//
//   - a put into a full block, or one whose key the block's cells cannot
//     hold, moves the s elements into a block of appendRoom(s) cells when the
//     key extends the block's span, above its largest key or below its
//     smallest, and of room(s) cells when it lands inside. Geometric growth
//     is there to amortise sequential appends, and only an append keeps
//     landing on the same side; the span is a property of the keys, not of a
//     workload, and the resize computes it anyway;
//   - a split destination, sized for the n elements it receives, gets
//     room(n) cells; a merge, a batch run or a bulk-loaded node that needs
//     more cells than the step gets exactly what it needs, so a map built
//     from sorted keys or recovered from a checkpoint carries no spare;
//   - a removal that leaves n elements moves them into a block of room(n)
//     cells when appendRoom(n) cells would fit a smaller size class than the
//     block's own, at its width: below about ⅔ full. An empty chunk drops to
//     the shared emptyBlock.
//
// Every capacity is then rounded up to the last cell its allocator size class
// pays for and capped at the chunk's logical capacity, 2×targetSize. Each
// new block takes the narrowest width its keys allow, so a resize also
// narrows a block whose keys outside the narrower window left.
//
// No insert and removal of one key resize a block back and forth. A put into
// a block of s elements grows it to at most the class of appendRoom(s) cells
// (one put needs s+1, and either step gives at least s+4). Removing the key
// leaves s elements again, and the block shrinks only if appendRoom(s) fits a
// smaller class than its own, which it does not. A shrink to room(n) leaves
// at least 4 spare cells, so the next put does not grow the block, and
// room(n) ≤ appendRoom(n), so the removal after it does not shrink it again.
// (A shrink below ¾ full fails this: an append grows a full block of s to
// 3s/2 cells, and removing that key leaves it ⅔ full, so it shrinks again.)
const (
	growNum, growDen = 3, 2 // an append grows a block by half again
	roomNum, roomDen = 5, 4 // any other resize leaves a quarter spare
	minHeadroom      = 4    // ... and at least this many spare cells
)

// appendRoom is the cell count a block of n elements grows to for a put that
// extends its span: the geometric step.
func appendRoom(n int) int { return max(n+minHeadroom, n*growNum/growDen) }

// room is the cell count every other resize around n elements asks for: a
// put inside the span, a split destination, and a shrink.
func room(n int) int { return max(n+minHeadroom, n*roomNum/roomDen) }

// capFor is the capacity of the block allocated for at least n ≤ limit cells
// of the given kind and width, short of n only where the width's header holds
// fewer cells.
func capFor(n, limit int, words bool, w width) int {
	return int(min(uint64(min(shapeOf(n, words, w).fit, limit)), w.maxCap()))
}

// sized is the capacity and width of the block allocated for at least
// n ≤ limit cells of the given kind, need ≤ n of them for certain, holding
// the keys of sp: the narrowest width sp allows whose header holds need
// cells. A room past what that header counts is cut to its most cells
// rather than widened: 64 cells of 1 byte cost less than 64 or more of 2.
func sized(need, n, limit int, words bool, sp span) (int, width) {
	w := sp.width()
	for uint64(need) > w.maxCap() {
		w--
	}
	return capFor(n, limit, words, w), w
}

// newBlock allocates a zeroed block of capacity c ≥ 1 and width w for the
// keys of sp, which must fit one window of that width (windowFor).
func newBlock(c int, words bool, w width, sp span) *block {
	b := (*block)(reflect.New(shapeOf(c, words, w).typ).UnsafePointer())
	t := tags[w]
	b.hdr = windowFor(sp, w.bytes()) | (uint64(c)-capFields[t].min)<<capFields[t].shift | t
	return b
}

// shape is what allocating a block of one capacity, cell kind and width
// needs.
type shape struct {
	typ   reflect.Type // struct{ Hdr uint64; Keys [keyBytes/w]uintN; Vals [c]unsafe.Pointer or [c]uint64 }
	fit   int          // the most cells a block in the same size class holds
	class uintptr      // the bytes the allocator charges: the size class
}

// shapes caches one shape per capacity, cell kind (first index 1: word
// cells) and width (second index): building the type costs about a
// microsecond, a block resize otherwise well under one. Each table is
// indexed by capacity and replaced copy-on-write under its mu, so a hit is
// one atomic load and one index.
var shapes [2][4]struct {
	mu  sync.Mutex
	tab atomic.Pointer[[]*shape]
}

func shapeOf(c int, words bool, w width) *shape {
	cache := &shapes[b2i(words)][w]
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
	tab[c] = newShape(c, words, w)
	cache.tab.Store(&tab)
	return tab[c]
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func newShape(c int, words bool, w width) *shape {
	// The key array's padding is explicit, in whole cells, because StructOf
	// aligns a uint64 to only 4 bytes on 32-bit platforms.
	key := [...]reflect.Type{reflect.TypeFor[uint64](), reflect.TypeFor[uint32](), reflect.TypeFor[uint16](), reflect.TypeFor[uint8]()}[w]
	cell, cellBytes := reflect.TypeFor[unsafe.Pointer](), ptrSize
	if words {
		cell, cellBytes = reflect.TypeFor[uint64](), wordSize
	}
	typ := reflect.StructOf([]reflect.StructField{
		{Name: "Hdr", Type: reflect.TypeFor[uint64]()},
		{Name: "Keys", Type: reflect.ArrayOf(int(keyBytes(c, w)/w.bytes()), key)},
		{Name: "Vals", Type: reflect.ArrayOf(c, cell)},
	})
	if typ.Field(1).Offset != keysOff || typ.Field(2).Offset != keysOff+keyBytes(c, w) {
		panic(fmt.Sprintf("vectormap: block layout for capacity %d is not header, keys, vals", c))
	}
	// The allocator rounds every object up to its size class, and append's
	// capacity growth reports that rounding for an object of a given size
	// and kind, the same path reflect.New takes. A pointer-bearing object
	// larger than mallocHeaderMin also pays a malloc header inside its
	// class, which append leaves out of the capacity it reports.
	var usable, header uintptr
	if words {
		n := int((typ.Size() + wordSize - 1) / wordSize)
		usable = uintptr(cap(append([]uint64(nil), make([]uint64, n)...))) * wordSize
	} else {
		n := int((typ.Size() + ptrSize - 1) / ptrSize)
		usable = uintptr(cap(append([]unsafe.Pointer(nil), make([]unsafe.Pointer, n)...))) * ptrSize
		if uintptr(n)*ptrSize > mallocHeaderMin {
			header = mallocHeaderSize
		}
	}
	fit := int((usable - keysOff) / (w.bytes() + cellBytes))
	for keysOff+keyBytes(fit, w)+uintptr(fit)*cellBytes > usable {
		fit-- // the key array's padding cells
	}
	return &shape{typ: typ, fit: fit, class: usable + header}
}
