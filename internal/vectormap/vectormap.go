// Package vectormap implements the key/payload vectors ("chunks") that skip
// vector nodes flatten their layers into (Listing 1 of the paper: type
// VectorMap). A chunk stores up to 2×targetSize correlated key/payload pairs
// in one block: a single allocation holding its own capacity, then the keys
// in one contiguous array, then the payloads in another (block.go). That is
// the source of the skip vector's spatial locality: one chunk traversal
// touches a handful of contiguous cache lines instead of chasing per-element
// pointers. The block is sized to what the chunk holds, not to 2×targetSize,
// and is replaced by a bigger or smaller one as the chunk fills and drains.
// Its key cells are 1 byte each when its keys all lie in one window of 2^8
// values starting at a multiple of 2^7 (and it has at most 64 cells), whose
// base the block's header then keeps, 2 bytes when they lie in one of 2^16,
// 4 bytes in one of 2^32 and 8 bytes otherwise; so keys less than 2^7, 2^15
// or 2^31 apart take 1-, 2- or 4-byte cells wherever they lie. Every
// replacement chooses the width and window again from the keys the new
// block is to hold.
//
// Chunks come in two flavours (Section V-B):
//
//   - sorted: keys kept in ascending order. Lookups binary-search in
//     O(log T); inserts and removals shift elements in O(T). Profitable in
//     index layers where reads dominate.
//   - unsorted: keys appended in arrival order. All lookups scan in O(T),
//     but inserts and removals write O(1) slots. Profitable in the data
//     layer where modifications are common.
//
// Synchronization discipline: a chunk has no lock of its own — the owning
// node's sequence lock protects it. Writers mutate a chunk, and replace its
// block, only while holding that lock. Readers may scan a chunk
// optimistically (concurrently with a writer) and must validate the node's
// sequence lock afterwards; until validated, any value read from a chunk is
// a candidate that may be torn or stale. To make such racy-by-design reads
// well-defined under the Go memory model, every cell is atomic, a block is
// published whole by one atomic store, and each read path loads the block
// once and clamps the size to that block's own capacity, so every index it
// touches lies inside the memory it reads whatever the interleaving. A block
// a writer replaced is never written again, so a reader still working from
// it sees an old version, which its validation rejects. Every read path
// terminates regardless of concurrent writes (the paper's requirement in
// Section IV-C).
package vectormap

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"
	"unsafe"

	"skipvector/internal/telemetry"
)

// Shift-distance histograms, registered with the global telemetry registry:
// how many elements a sorted-chunk Insert or Remove displaces. The paper's
// sorted/unsorted chunk-policy trade-off is exactly this cost, so measuring
// it shows whether a layer's policy matches its workload. Chunks carry no
// per-structure identity (the owning node's lock protects them), so the
// metrics are process-wide; the caller holds the node's write lock, making
// the insertion position a fine stripe hint.
var (
	mInsertShift = telemetry.Global.Histogram("sv_vectormap_insert_shift",
		"Elements shifted right by a sorted-chunk Insert.")
	mRemoveShift = telemetry.Global.Histogram("sv_vectormap_remove_shift",
		"Elements shifted left by a sorted-chunk Remove.")
)

// Sentinel keys. NegInf lives in head nodes (the paper's ⊥) and PosInf in
// tail nodes (⊤). User keys must lie strictly between them.
const (
	NegInf = math.MinInt64
	PosInf = math.MaxInt64
)

// Cell is the content of one payload cell. A pointer-celled chunk stores Ptr
// and ignores Word; a word-celled chunk (InitWords) stores Word, 8 bytes the
// collector never scans, and ignores Ptr. The zero Cell is a nil pointer or
// the word 0, and both are valid payloads, so no cell content means "empty":
// the chunk's size alone says which cells are live.
type Cell struct {
	Ptr  unsafe.Pointer
	Word uint64
}

// Cells is a bounded map from int64 keys to payload cells: the chunk itself.
// Its methods hold every loop over cells and are compiled once, in this
// package. Chunk[P] types the payloads of a pointer-celled chunk; a skip
// vector data node whose values fit in a word reads and writes its Cells
// directly.
//
// Its header is 16 bytes on 64-bit platforms: the block pointer, the size,
// and the logical capacity packed into a uint16 beside the two flags.
//
// The zero value is unusable; call Init or InitWords.
type Cells struct {
	blk    atomic.Pointer[block]
	size   atomic.Int32
	limit  uint16 // the logical capacity, 2×targetSize
	sorted bool
	words  bool // payload cells are words, not pointers
}

// MaxTarget is the largest targetSize a chunk takes: its logical capacity,
// 2×targetSize, must fit the header's 16-bit field.
const MaxTarget = 1<<15 - 1

// Chunk is a Cells whose payloads are *P pointers. In the skip vector, P is
// the node type for index-layer chunks (the payload is the "down" pointer)
// and the value type for the data chunks of a map whose values are boxed.
//
// A generic method body is compiled in each package that instantiates it,
// where this package's unexported cell accessors are not inlined, so Chunk's
// methods only convert payloads and call Cells, which scans at full speed.
// They are valid only on a pointer-celled chunk (Init, not InitWords).
//
// The zero value is unusable; call Init.
type Chunk[P any] struct{ Cells }

// Init prepares an empty pointer-celled chunk with logical capacity
// 2×targetSize. It may be called again on a recycled chunk to reset it: the
// chunk drops its block for the shared empty one, leaving the old block
// untouched for any reader still working from it.
func (c *Cells) Init(targetSize int, sorted bool) { c.init(targetSize, sorted, false) }

// InitWords is Init for a chunk whose payload cells are 8-byte words (Cell.Word)
// rather than pointers: its blocks hold no pointers, and the collector does
// not scan them.
func (c *Cells) InitWords(targetSize int, sorted bool) { c.init(targetSize, sorted, true) }

func (c *Cells) init(targetSize int, sorted, words bool) {
	if targetSize < 1 || targetSize > MaxTarget {
		panic(fmt.Sprintf("vectormap: targetSize %d outside [1, %d]", targetSize, MaxTarget))
	}
	c.limit = uint16(2 * targetSize)
	c.sorted = sorted
	c.words = words
	c.size.Store(0)
	c.blk.Store(&emptyBlock)
}

// Sorted reports whether this chunk keeps its keys in ascending order.
func (c *Cells) Sorted() bool { return c.sorted }

// Words reports whether this chunk's payload cells are words (InitWords).
func (c *Cells) Words() bool { return c.words }

// Cap returns the chunk's logical capacity (2×targetSize), which its block
// never exceeds.
func (c *Cells) Cap() int { return int(c.limit) }

// Size returns the current number of elements. Under optimistic readers it
// is a snapshot that must be validated by the node's sequence lock.
func (c *Cells) Size() int {
	_, s := c.load()
	return s
}

// Full reports whether the chunk is at its logical capacity. Caller must
// hold the write lock.
func (c *Cells) Full() bool { return int(c.size.Load()) >= int(c.limit) }

// load is every read path's single load of the block, with the size clamped
// into [0, that block's capacity], so that concurrent readers can never
// index outside the block they read even if they observe a torn state.
func (c *Cells) load() (*block, int) {
	b := c.blk.Load()
	return b, min(max(int(c.size.Load()), 0), b.cap())
}

// owned returns the block and the exact size to a writer, which holds the
// lock and so may trust size ≤ b.cap().
func (c *Cells) owned() (*block, int) { return c.blk.Load(), int(c.size.Load()) }

// cell loads payload cell i of b. It finds the payload array once, so that
// it inlines.
func (c *Cells) cell(b *block, i int) Cell {
	v := b.vals()
	if c.words {
		return Cell{Word: (*atomic.Uint64)(unsafe.Add(v, uintptr(i)*wordSize)).Load()}
	}
	return Cell{Ptr: atomic.LoadPointer((*unsafe.Pointer)(unsafe.Add(v, uintptr(i)*ptrSize)))}
}

// setCell stores v into payload cell i of b.
func (c *Cells) setCell(b *block, i int, v Cell) {
	if c.words {
		b.word(i).Store(v.Word)
	} else {
		b.storeVal(i, v.Ptr)
	}
}

// copyCell copies the key and payload of src's cell i into dst's cell j,
// which must hold the key.
func (c *Cells) copyCell(dst *block, j int, src *block, i int) {
	dst.storeKey(j, src.loadKey(i))
	c.setCell(dst, j, c.cell(src, i))
}

// shift moves the n cells of b from src to dst = src±1, the keys and then
// the payloads, each cell read before it is overwritten, with one atomic
// load and store per cell and one branch per call on the width and the cell
// kind.
func (c *Cells) shift(b *block, dst, src, n int) {
	b.shift(dst, src, n)
	first, step := 0, 1
	if dst > src {
		first, step = n-1, -1
	}
	if c.words {
		for i, j := 0, first; i < n; i, j = i+1, j+step {
			b.word(dst + j).Store(b.word(src + j).Load())
		}
	} else {
		for i, j := 0, first; i < n; i, j = i+1, j+step {
			b.storeVal(dst+j, b.loadVal(src+j))
		}
	}
}

// clearCell drops the pointer in cell i, which is past the live prefix, so
// it keeps nothing alive. A word cell holds nothing the collector sees and
// is left as it is.
func (c *Cells) clearCell(b *block, i int) {
	if !c.words {
		b.storeVal(i, nil)
	}
}

// The read methods below each branch once on the block's key width and call
// that width's kernel (search.go) directly: the kernels do not inline, and a
// shared dispatch function would put a second call on every read.

// MinKey returns the smallest key, or ok=false when empty.
func (c *Cells) MinKey() (int64, bool) {
	b, s := c.load()
	switch {
	case s == 0:
		return 0, false
	case c.sorted:
		return b.loadKey(0), true
	}
	switch b.width() {
	case w1:
		return top[uint8](b, s, true), true
	case w2:
		return top[uint16](b, s, true), true
	case w4:
		return top[uint32](b, s, true), true
	}
	return top[uint64](b, s, true), true
}

// MaxKey returns the largest key, or ok=false when empty.
func (c *Cells) MaxKey() (int64, bool) {
	b, s := c.load()
	switch {
	case s == 0:
		return 0, false
	case c.sorted:
		return b.loadKey(s - 1), true
	}
	switch b.width() {
	case w1:
		return top[uint8](b, s, false), true
	case w2:
		return top[uint16](b, s, false), true
	case w4:
		return top[uint32](b, s, false), true
	}
	return top[uint64](b, s, false), true
}

// Bounds returns the smallest and largest keys in a single pass, or ok=false
// when the chunk is empty. It is the cheaper equivalent of calling MinKey and
// MaxKey back to back, used by hot paths that need both ends of the chunk's
// key span (the search-finger ownership check).
func (c *Cells) Bounds() (minK, maxK int64, ok bool) {
	b, s := c.load()
	switch {
	case s == 0:
		return 0, 0, false
	case c.sorted:
		return b.loadKey(0), b.loadKey(s - 1), true
	}
	switch b.width() {
	case w1:
		minK, maxK = bounds[uint8](b, s)
	case w2:
		minK, maxK = bounds[uint16](b, s)
	case w4:
		minK, maxK = bounds[uint32](b, s)
	default:
		minK, maxK = bounds[uint64](b, s)
	}
	return minK, maxK, true
}

// lookup is the search mode that finds a key's position, or -1.
func (c *Cells) lookup() int {
	if c.sorted {
		return exact
	}
	return scan
}

// indexOf is the search of b's first s keys for k in the given mode: the
// writers' search, one call below them.
func (c *Cells) indexOf(b *block, s int, k int64, mode int) int {
	switch b.width() {
	case w1:
		return find[uint8](b, k, s, mode)
	case w2:
		return find[uint16](b, k, s, mode)
	case w4:
		return find[uint32](b, k, s, mode)
	}
	return find[uint64](b, k, s, mode)
}

// Get returns the payload mapped to k.
func (c *Cells) Get(k int64) (Cell, bool) {
	b, s := c.load()
	var i int
	switch mode := c.lookup(); b.width() {
	case w1:
		i = find[uint8](b, k, s, mode)
	case w2:
		i = find[uint16](b, k, s, mode)
	case w4:
		i = find[uint32](b, k, s, mode)
	default:
		i = find[uint64](b, k, s, mode)
	}
	if i < 0 {
		return Cell{}, false
	}
	return c.cell(b, i), true
}

// Contains reports whether k is present.
func (c *Cells) Contains(k int64) bool {
	b, s := c.load()
	switch mode := c.lookup(); b.width() {
	case w1:
		return find[uint8](b, k, s, mode) >= 0
	case w2:
		return find[uint16](b, k, s, mode) >= 0
	case w4:
		return find[uint32](b, k, s, mode) >= 0
	default:
		return find[uint64](b, k, s, mode) >= 0
	}
}

// FindLE returns the entry with the largest key ≤ k, which is the pivot for
// rightward/downward traversal (Listing 2 line 7). ok is false when the
// chunk is empty or every key exceeds k — under the traversal invariant
// (minKey ≤ k) that indicates a concurrent modification and the caller must
// validate and restart.
func (c *Cells) FindLE(k int64) (key int64, val Cell, ok bool) {
	b, s := c.load()
	mode, back := below, 0
	if c.sorted {
		mode, back = upper, 1 // the position before the first key > k
	}
	var i int
	switch b.width() {
	case w1:
		i = find[uint8](b, k, s, mode)
	case w2:
		i = find[uint16](b, k, s, mode)
	case w4:
		i = find[uint32](b, k, s, mode)
	default:
		i = find[uint64](b, k, s, mode)
	}
	if i -= back; i < 0 {
		return 0, Cell{}, false
	}
	return b.loadKey(i), c.cell(b, i), true
}

// FindGE returns the entry with the smallest key ≥ k, for ceiling/successor
// queries. ok is false when every key is < k (or the chunk is empty).
func (c *Cells) FindGE(k int64) (key int64, val Cell, ok bool) {
	b, s := c.load()
	mode := above
	if c.sorted {
		mode = lower
	}
	var i int
	switch b.width() {
	case w1:
		i = find[uint8](b, k, s, mode)
	case w2:
		i = find[uint16](b, k, s, mode)
	case w4:
		i = find[uint32](b, k, s, mode)
	default:
		i = find[uint64](b, k, s, mode)
	}
	if i < 0 || i >= s {
		return 0, Cell{}, false
	}
	return b.loadKey(i), c.cell(b, i), true
}

// resize moves the first s elements of b into a new block with room for at
// least need ≥ s cells, and for n ≥ need where the width's header holds that
// many, and for the keys of sp, which must cover those s keys, and publishes
// it. The new block takes the narrowest width sp and need allow. b itself is
// left as it was. Caller must hold the write lock, or hold the node frozen
// with nothing about to change (ReserveKeys).
func (c *Cells) resize(b *block, s, need, n int, sp span) *block {
	nb := c.newBlock(need, n, sp)
	nb.fill(b, s, c.words)
	c.blk.Store(nb)
	return nb
}

// newBlock allocates this chunk's block for at least n cells, need ≤ n of
// them for certain, and the keys of sp.
func (c *Cells) newBlock(need, n int, sp span) *block {
	capacity, w := sized(need, n, int(c.limit), c.words, sp)
	return newBlock(capacity, c.words, w, sp)
}

// grow returns a block with room for need ≤ Cap() elements and for the keys
// of more, resizing b, which holds s, when it has too few cells or too
// narrow ones: to appendRoom(s) cells if more extends the span of b's keys,
// to room(s) if it lies inside, or to need if that is more. Caller must hold
// the write lock (or see ReserveKeys).
func (c *Cells) grow(b *block, s, need int, more span) *block {
	if need <= b.cap() && b.holds(more) {
		return b
	}
	sp := b.span(s)
	lo := sp.lo
	if lo == NegInf {
		// A head node's chunk holds the NegInf sentinel, which bounds every
		// key but is none of the input's: a put below all the others
		// extends the span. (No put reaches a tail node's PosInf.)
		lo = PosInf
		if k, _, ok := c.FindGE(NegInf + 1); ok {
			lo = k
		}
	}
	n := room(s)
	if more.lo < lo || more.hi > sp.hi {
		n = appendRoom(s)
	}
	return c.resize(b, s, need, max(n, need), sp.with(more))
}

// settle applies the shrink rule after removals left n elements in b.
// Caller must hold the write lock.
func (c *Cells) settle(b *block, n int) {
	if n == 0 {
		if b.cap() > 0 {
			c.blk.Store(&emptyBlock)
		}
		return
	}
	// g ≥ cap rules a smaller class out without looking it up.
	if g := appendRoom(n); g < b.cap() && capFor(g, int(c.limit), c.words, b.width()) < b.cap() {
		c.resize(b, n, n, room(n), b.span(n))
	}
}

// ReserveKeys makes room for n more elements (up to Cap()) with keys in
// [lo, hi] now, so that the inserts that follow do not resize the block. A
// writer that has frozen the node calls it before upgrading to the write
// lock: nothing can change a frozen chunk, so the new block holds exactly
// what the old one does, a reader sees the same contents through either,
// and the allocation stays out of the seqlock's write hold. Caller must hold
// the node frozen or write-locked.
func (c *Cells) ReserveKeys(n int, lo, hi int64) {
	b, s := c.owned()
	c.grow(b, s, min(s+n, int(c.limit)), span{lo, hi})
}

// BlockCap is the number of cells in the chunk's block: its allocated
// capacity, which Size never exceeds, against Cap's logical one.
func (c *Cells) BlockCap() int { return c.blk.Load().cap() }

// BlockBytes is what the allocator charges for the chunk's block: the size
// class it was allocated in, or 0 for the shared empty block. It reads the
// shape cache the block was allocated through, so it does not allocate.
func (c *Cells) BlockBytes() int {
	b := c.blk.Load()
	if b.cap() == 0 {
		return 0
	}
	return int(shapeOf(b.cap(), c.words, b.width()).class)
}

// KeyBytes is the width of the key cells of the chunk's block, 1, 2, 4 or 8
// bytes, or 0 for the shared empty block.
func (c *Cells) KeyBytes() int {
	if b := c.blk.Load(); b.cap() > 0 {
		return int(b.width().bytes())
	}
	return 0
}

// Insert adds the mapping k→v. It returns false if k is already present.
// The caller must hold the owning node's write lock and must have ensured
// spare capacity (insert into a full chunk panics: the skip vector splits
// before inserting).
func (c *Cells) Insert(k int64, v Cell) bool {
	b, s := c.owned()
	if c.indexOf(b, s, k, c.lookup()) >= 0 {
		return false
	}
	if s >= int(c.limit) {
		panic("vectormap: Insert into full chunk")
	}
	c.put(c.grow(b, s, s+1, spanOf(k)), s, k, v)
	return true
}

// put adds k→v to b, which holds s elements, has a free cell and holds k.
// Sorted chunks shift the larger keys right.
func (c *Cells) put(b *block, s int, k int64, v Cell) {
	pos := s
	if c.sorted {
		pos = c.indexOf(b, s, k, lower)
		mInsertShift.Observe(pos, int64(s-pos))
		c.shift(b, pos+1, pos, s-pos)
	}
	b.storeKey(pos, k)
	c.setCell(b, pos, v)
	c.size.Store(int32(s + 1))
}

// Set updates the payload of an existing key, returning false if absent.
// Caller must hold the write lock.
func (c *Cells) Set(k int64, v Cell) bool {
	b, s := c.owned()
	i := c.indexOf(b, s, k, c.lookup())
	if i < 0 {
		return false
	}
	c.setCell(b, i, v)
	return true
}

// CellOp is one element of a multi-slot batch application (ApplyOps): a put
// (optionally insert-only) or a delete of Key.
type CellOp struct {
	Key int64
	Val Cell // payload for puts; ignored for deletes
	Del bool // delete Key instead of writing it
	// InsertOnly makes a put succeed only when Key is absent; an existing
	// key is left untouched and reported as SlotExists.
	InsertOnly bool
}

// SlotOutcome reports what one CellOp or SlotOp did to the chunk.
type SlotOutcome uint8

const (
	// SlotNone means the op was not applied (past an overflow cut).
	SlotNone SlotOutcome = iota
	// SlotInserted: the key was absent and was added.
	SlotInserted
	// SlotUpdated: the key was present and its payload was overwritten.
	SlotUpdated
	// SlotRemoved: the key was present and was deleted.
	SlotRemoved
	// SlotAbsent: a delete found nothing to delete.
	SlotAbsent
	// SlotExists: an insert-only put found the key already present.
	SlotExists
)

// String names the outcome for results and test failures.
func (o SlotOutcome) String() string {
	switch o {
	case SlotNone:
		return "none"
	case SlotInserted:
		return "inserted"
	case SlotUpdated:
		return "updated"
	case SlotRemoved:
		return "removed"
	case SlotAbsent:
		return "absent"
	case SlotExists:
		return "exists"
	default:
		return fmt.Sprintf("SlotOutcome(%d)", int(o))
	}
}

// ApplyOps applies ops sequentially — so duplicate keys inside one batch
// resolve last-write-wins — recording each op's outcome in the parallel out
// slice, and returns the number of ops applied. It stops short (returning
// i < len(ops)) only when ops[i] must insert a new key into a full chunk;
// the caller splits the chunk and retries ops[i:] on the half that owns the
// key. Deletes, overwrites, and insert-only hits on existing keys never need
// capacity and never stop the run. The block is resized at most once each
// way per call: the first insert that finds it full, or too narrow for its
// key, sizes it for the count and the keys of every put still ahead, and
// the shrink rule runs once at the end, if the call left fewer elements or
// a new block. A call whose every outcome is SlotAbsent or SlotExists leaves
// the chunk untouched. Caller must hold the owning node's write lock; out
// must be at least as long as ops.
func (c *Cells) ApplyOps(ops []CellOp, out []SlotOutcome) int {
	b0, s0 := c.owned()
	b, s := b0, s0
	for i := range ops {
		op := &ops[i]
		j := c.indexOf(b, s, op.Key, c.lookup())
		switch {
		case op.Del && j < 0:
			out[i] = SlotAbsent
		case op.Del:
			c.removeAt(b, s, j)
			s--
			out[i] = SlotRemoved
		case j >= 0 && op.InsertOnly:
			out[i] = SlotExists
		case j >= 0:
			c.setCell(b, j, op.Val)
			out[i] = SlotUpdated
		case s >= int(c.limit):
			return i
		default:
			if s == b.cap() || !b.holds(spanOf(op.Key)) {
				puts, keys := 0, noKeys
				for _, rest := range ops[i:] {
					if !rest.Del {
						puts++
						keys = keys.with(spanOf(rest.Key))
					}
				}
				b = c.grow(b, s, min(s+puts, int(c.limit)), keys)
			}
			c.put(b, s, op.Key, op.Val)
			s++
			out[i] = SlotInserted
		}
	}
	if s < s0 || b != b0 {
		c.settle(b, s)
	}
	return len(ops)
}

// Remove deletes k and returns its payload. Caller must hold the write lock.
func (c *Cells) Remove(k int64) (Cell, bool) {
	b, s := c.owned()
	i := c.indexOf(b, s, k, c.lookup())
	if i < 0 {
		return Cell{}, false
	}
	v := c.cell(b, i)
	c.removeAt(b, s, i)
	c.settle(b, s-1)
	return v, true
}

// removeAt deletes the element at position i of b, which holds s elements,
// keeping the pointer cells past the new size nil.
func (c *Cells) removeAt(b *block, s, i int) {
	if c.sorted {
		mRemoveShift.Observe(i, int64(s-1-i))
		c.shift(b, i, i+1, s-1-i)
	} else if i != s-1 {
		c.copyCell(b, i, b, s-1)
	}
	c.clearCell(b, s-1)
	c.size.Store(int32(s - 1))
}

// moveTo moves the elements of c for which move reports true into dst,
// which must be empty and of c's cell kind, keeping the rest of c in order.
// dst gets a fresh block with room for what it receives and the inserts
// likely to follow, filled before it is published; c keeps its block unless
// the shrink rule applies. Caller must hold write locks (or exclusive
// access) on both chunks.
func (c *Cells) moveTo(dst *Cells, move func(k int64) bool) {
	if dst.Size() != 0 {
		panic("vectormap: move into non-empty chunk")
	}
	b, s := c.owned()
	n, keys := 0, noKeys
	for i := 0; i < s; i++ {
		if k := b.loadKey(i); move(k) {
			n++
			keys = keys.with(spanOf(k))
		}
	}
	if n == 0 {
		return
	}
	db := dst.newBlock(n, room(n), keys)
	d, w := 0, 0
	for i := 0; i < s; i++ {
		if move(b.loadKey(i)) {
			c.copyCell(db, d, b, i)
			d++
		} else {
			if w != i {
				c.copyCell(b, w, b, i)
			}
			w++
		}
	}
	for i := w; i < s; i++ {
		c.clearCell(b, i)
	}
	dst.blk.Store(db)
	dst.size.Store(int32(d))
	c.size.Store(int32(w))
	c.settle(b, w)
}

// MoveGreaterTo moves every element with key strictly greater than k from c
// into dst, which must be empty and have the same logical capacity and cell
// kind. It is the splitting primitive used when an Insert at height h cuts a
// node at key k (Listing 3 line 36). Caller must hold write locks (or
// exclusive access) on both chunks.
func (c *Cells) MoveGreaterTo(k int64, dst *Cells) {
	c.moveTo(dst, func(kk int64) bool { return kk > k })
}

// SplitUpperHalfTo moves the largest ⌈size/2⌉ elements into dst (which must
// be empty) and returns the minimum key of dst. It is the capacity split
// applied when an Insert finds a full chunk. Caller must hold write locks on
// both chunks.
func (c *Cells) SplitUpperHalfTo(dst *Cells) int64 {
	b, s := c.owned()
	if s < 2 {
		panic("vectormap: SplitUpperHalfTo of chunk with fewer than 2 elements")
	}
	pivot := b.loadKey(s / 2)
	if !c.sorted {
		// Select the median via a copy + sort of the keys. Splits are rare
		// (amortized across T inserts), so O(T log T) here is acceptable and
		// keeps the hot paths branch-light. The copy sits in a stack array
		// unless the chunk holds more keys than it has room for.
		var buf [128]int64
		tmp := buf[:0]
		if s > len(buf) {
			tmp = make([]int64, 0, s)
		}
		for i := range s {
			tmp = append(tmp, b.loadKey(i))
		}
		slices.Sort(tmp)
		pivot = tmp[s/2]
	}
	c.moveTo(dst, func(k int64) bool { return k >= pivot })
	return pivot
}

// AbsorbFrom moves every element of src into c (the merge primitive for
// orphan cleanup, Listing 2 line 33). All of src's keys must exceed all of
// c's keys (src is c's right neighbour), and src must be of c's cell kind.
// Caller must hold write locks on both chunks. Panics if the combined size
// exceeds capacity.
func (c *Cells) AbsorbFrom(src *Cells) {
	b, cs := c.owned()
	sb, ss := src.owned()
	if cs+ss > int(c.limit) {
		panic("vectormap: AbsorbFrom overflows capacity")
	}
	b = c.grow(b, cs, cs+ss, sb.span(ss))
	if c.sorted && !src.sorted {
		// Normalize: absorb in ascending key order.
		idx := make([]int, ss)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(x, y int) bool { return sb.loadKey(idx[x]) < sb.loadKey(idx[y]) })
		for n, i := range idx {
			c.copyCell(b, cs+n, sb, i)
		}
	} else {
		for i := 0; i < ss; i++ {
			c.copyCell(b, cs+i, sb, i)
		}
	}
	c.size.Store(int32(cs + ss))
	src.size.Store(0)
	src.blk.Store(&emptyBlock)
}

// ForEach calls fn for each element. For sorted chunks the iteration is in
// ascending key order; for unsorted chunks it is arbitrary. Returning false
// from fn stops the iteration.
func (c *Cells) ForEach(fn func(k int64, v Cell) bool) {
	b, s := c.load()
	for i := 0; i < s; i++ {
		if !fn(b.loadKey(i), c.cell(b, i)) {
			return
		}
	}
}

// ForEachOrdered calls fn in ascending key order regardless of chunk policy.
// Unsorted chunks pay an O(T log T) index sort; it is used by range
// operations, which hold the node lock.
func (c *Cells) ForEachOrdered(fn func(k int64, v Cell) bool) {
	if c.sorted {
		c.ForEach(fn)
		return
	}
	b, s := c.load()
	idx := make([]int, s)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(x, y int) bool { return b.loadKey(idx[x]) < b.loadKey(idx[y]) })
	for _, i := range idx {
		if !fn(b.loadKey(i), c.cell(b, i)) {
			return
		}
	}
}

// Keys returns a copy of the current keys (ascending for sorted chunks).
func (c *Cells) Keys() []int64 {
	b, s := c.load()
	out := make([]int64, s)
	for i := range out {
		out[i] = b.loadKey(i)
	}
	return out
}

// CheckInvariants validates internal consistency (used by tests): the block
// within the chunk's capacity and of a capacity the sizing policy in
// block.go produces for the chunk's cell kind and the block's width, size
// within the block, every key round-tripping through the block's base (its
// cell is its offset from the base, inside the window, and the base plus the
// cell is the key), no duplicate keys, ascending order for sorted chunks,
// every key found at its own position by the chunk's search (which resolves
// a key outside the window without probing), and, in a pointer-celled
// chunk, no pointer left in a cell past the live prefix (it would keep its
// target alive).
func (c *Cells) CheckInvariants() error {
	b := c.blk.Load()
	if b == nil {
		return fmt.Errorf("chunk has no block")
	}
	s, bc, w := int(c.size.Load()), b.cap(), b.width()
	switch {
	case bc > c.Cap():
		return fmt.Errorf("block of %d cells exceeds capacity %d", bc, c.Cap())
	case s < 0 || s > bc:
		return fmt.Errorf("size %d out of bounds [0,%d]", s, bc)
	case bc > 0 && bc != capFor(bc, int(c.limit), c.words, w):
		return fmt.Errorf("block of %d cells (%d-byte keys) does not fill its size class (%d would)",
			bc, w.bytes(), capFor(bc, int(c.limit), c.words, w))
	}
	seen := make(map[int64]struct{}, s)
	var prev int64
	for i := 0; i < s; i++ {
		k, kc := b.loadKey(i), load(b.keys(), uintptr(i), w.bytes())
		if cell, side := b.cellOf(k, w.bytes()); side != 0 || cell != kc || b.keyOf(kc, w.bytes()) != k {
			return fmt.Errorf("key %d at %d does not round-trip through its block's base (header %#x)", k, i, b.hdr)
		}
		if _, dup := seen[k]; dup {
			return fmt.Errorf("duplicate key %d", k)
		}
		seen[k] = struct{}{}
		if c.sorted && i > 0 && k <= prev {
			return fmt.Errorf("sorted chunk out of order at %d: %d <= %d", i, k, prev)
		}
		prev = k
	}
	for i := 0; i < s; i++ {
		if k := b.loadKey(i); c.indexOf(b, s, k, c.lookup()) != i {
			return fmt.Errorf("key %d at %d: the search finds it at %d (%d-byte keys)", k, i, c.indexOf(b, s, k, c.lookup()), w.bytes())
		}
	}
	for i := s; i < bc && !c.words; i++ {
		if b.loadVal(i) != nil {
			return fmt.Errorf("slot %d past size %d holds a payload", i, s)
		}
	}
	return nil
}

// The typed view. Each method converts payloads between *P and Cell.Ptr and
// calls the Cells method of the same name.

func ptrCell[P any](v *P) Cell { return Cell{Ptr: unsafe.Pointer(v)} }

// Get returns the payload mapped to k.
func (c *Chunk[P]) Get(k int64) (*P, bool) {
	v, ok := c.Cells.Get(k)
	return (*P)(v.Ptr), ok
}

// FindLE is Cells.FindLE with a typed payload.
func (c *Chunk[P]) FindLE(k int64) (key int64, val *P, ok bool) {
	key, v, ok := c.Cells.FindLE(k)
	return key, (*P)(v.Ptr), ok
}

// FindGE is Cells.FindGE with a typed payload.
func (c *Chunk[P]) FindGE(k int64) (key int64, val *P, ok bool) {
	key, v, ok := c.Cells.FindGE(k)
	return key, (*P)(v.Ptr), ok
}

// Insert is Cells.Insert with a typed payload.
func (c *Chunk[P]) Insert(k int64, v *P) bool { return c.Cells.Insert(k, ptrCell(v)) }

// Set is Cells.Set with a typed payload.
func (c *Chunk[P]) Set(k int64, v *P) bool { return c.Cells.Set(k, ptrCell(v)) }

// Remove is Cells.Remove with a typed payload.
func (c *Chunk[P]) Remove(k int64) (*P, bool) {
	v, ok := c.Cells.Remove(k)
	return (*P)(v.Ptr), ok
}

// SlotOp is CellOp with a typed payload.
type SlotOp[P any] struct {
	Key        int64
	Val        *P
	Del        bool
	InsertOnly bool
}

// applyWindow is how many typed ops ApplyOps converts per Cells.ApplyOps
// call: a full default-size chunk's worth, so that a run into one chunk
// still resizes its block once.
const applyWindow = 64

// ApplyOps is Cells.ApplyOps with typed payloads.
func (c *Chunk[P]) ApplyOps(ops []SlotOp[P], out []SlotOutcome) int {
	var buf [applyWindow]CellOp
	done := 0
	for done < len(ops) {
		n := min(len(ops)-done, len(buf))
		for i, op := range ops[done : done+n] {
			buf[i] = CellOp{Key: op.Key, Val: ptrCell(op.Val), Del: op.Del, InsertOnly: op.InsertOnly}
		}
		got := c.Cells.ApplyOps(buf[:n], out[done:done+n])
		done += got
		if got < n {
			break
		}
	}
	return done
}

// MoveGreaterTo is Cells.MoveGreaterTo between typed chunks.
func (c *Chunk[P]) MoveGreaterTo(k int64, dst *Chunk[P]) { c.Cells.MoveGreaterTo(k, &dst.Cells) }

// SplitUpperHalfTo is Cells.SplitUpperHalfTo between typed chunks.
func (c *Chunk[P]) SplitUpperHalfTo(dst *Chunk[P]) int64 { return c.Cells.SplitUpperHalfTo(&dst.Cells) }

// AbsorbFrom is Cells.AbsorbFrom between typed chunks.
func (c *Chunk[P]) AbsorbFrom(src *Chunk[P]) { c.Cells.AbsorbFrom(&src.Cells) }

// ForEach is Cells.ForEach with typed payloads.
func (c *Chunk[P]) ForEach(fn func(k int64, v *P) bool) {
	c.Cells.ForEach(func(k int64, v Cell) bool { return fn(k, (*P)(v.Ptr)) })
}

// ForEachOrdered is Cells.ForEachOrdered with typed payloads.
func (c *Chunk[P]) ForEachOrdered(fn func(k int64, v *P) bool) {
	c.Cells.ForEachOrdered(func(k int64, v Cell) bool { return fn(k, (*P)(v.Ptr)) })
}
