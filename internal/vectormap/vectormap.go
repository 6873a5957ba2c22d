// Package vectormap implements the key/payload vectors ("chunks") that skip
// vector nodes flatten their layers into (Listing 1 of the paper: type
// VectorMap). A chunk stores up to 2×targetSize correlated key/payload pairs
// in one block: a single allocation holding its own capacity, then the keys
// in one contiguous array, then the payloads in another (block.go). That is
// the source of the skip vector's spatial locality: one chunk traversal
// touches a handful of contiguous cache lines instead of chasing per-element
// pointers. The block is sized to what the chunk holds, not to 2×targetSize,
// and is replaced by a bigger or smaller one as the chunk fills and drains.
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

// Chunk is a bounded map from int64 keys to *P payloads. In the skip vector,
// P is the value type for data-layer chunks and the node type for
// index-layer chunks (the payload is the "down" pointer).
//
// Chunk only types the payloads: its methods convert them and call chunk,
// which stores payloads as untyped pointers and holds every loop over cells.
// chunk is compiled once, in this package. A generic method body is compiled
// in each package that instantiates it, where this package's unexported cell
// accessors are not inlined, so a scan there would pay a call per key read.
//
// The zero value is unusable; call Init.
type Chunk[P any] struct{ chunk }

type chunk struct {
	blk    atomic.Pointer[block]
	size   atomic.Int32
	limit  int32 // the logical capacity, 2×targetSize
	sorted bool
}

// View reinterprets c as a chunk of payload type Q over the same memory. A
// skip vector node holds one chunk and reads it as key → value at the data
// layer and as key → child node in the index layers.
//
// The conversion is sound because Chunk's layout does not depend on P: it is
// a chunk, whose block stores payloads as untyped pointer words, so size,
// field offsets and the collector's pointer map are the same for every
// instantiation (TestChunkLayoutIndependentOfPayload pins this). What
// the layout cannot guarantee is the payloads themselves: every payload
// stored through one view must only ever be loaded through a view of the
// same Q.
func View[Q, P any](c *Chunk[P]) *Chunk[Q] {
	return (*Chunk[Q])(unsafe.Pointer(c))
}

// Init prepares an empty chunk with logical capacity 2×targetSize. It may be
// called again on a recycled chunk to reset it: the chunk drops its block
// for the shared empty one, leaving the old block untouched for any reader
// still working from it.
func (c *chunk) Init(targetSize int, sorted bool) {
	if targetSize < 1 {
		panic(fmt.Sprintf("vectormap: targetSize %d < 1", targetSize))
	}
	c.limit = int32(2 * targetSize)
	c.sorted = sorted
	c.size.Store(0)
	c.blk.Store(&emptyBlock)
}

// Sorted reports whether this chunk keeps its keys in ascending order.
func (c *chunk) Sorted() bool { return c.sorted }

// Cap returns the chunk's logical capacity (2×targetSize), which its block
// never exceeds.
func (c *chunk) Cap() int { return int(c.limit) }

// Size returns the current number of elements. Under optimistic readers it
// is a snapshot that must be validated by the node's sequence lock.
func (c *chunk) Size() int {
	_, s := c.load()
	return s
}

// Full reports whether the chunk is at its logical capacity. Caller must
// hold the write lock.
func (c *chunk) Full() bool { return c.size.Load() >= c.limit }

// load is every read path's single load of the block, with the size clamped
// into [0, that block's capacity], so that concurrent readers can never
// index outside the block they read even if they observe a torn state.
func (c *chunk) load() (*block, int) {
	b := c.blk.Load()
	s := int(c.size.Load())
	if s < 0 {
		return b, 0
	}
	if s > int(b.cap) {
		return b, int(b.cap)
	}
	return b, s
}

// owned returns the block and the exact size to a writer, which holds the
// lock and so may trust size ≤ b.cap.
func (c *chunk) owned() (*block, int) { return c.blk.Load(), int(c.size.Load()) }

// MinKey returns the smallest key, or ok=false when empty.
func (c *chunk) MinKey() (int64, bool) {
	b, s := c.load()
	if s == 0 {
		return 0, false
	}
	if c.sorted {
		return b.key(0).Load(), true
	}
	minK := b.key(0).Load()
	for i := 1; i < s; i++ {
		if k := b.key(i).Load(); k < minK {
			minK = k
		}
	}
	return minK, true
}

// MaxKey returns the largest key, or ok=false when empty.
func (c *chunk) MaxKey() (int64, bool) {
	b, s := c.load()
	if s == 0 {
		return 0, false
	}
	if c.sorted {
		return b.key(s - 1).Load(), true
	}
	maxK := b.key(0).Load()
	for i := 1; i < s; i++ {
		if k := b.key(i).Load(); k > maxK {
			maxK = k
		}
	}
	return maxK, true
}

// Bounds returns the smallest and largest keys in a single pass, or ok=false
// when the chunk is empty. It is the cheaper equivalent of calling MinKey and
// MaxKey back to back, used by hot paths that need both ends of the chunk's
// key span (the search-finger ownership check).
func (c *chunk) Bounds() (minK, maxK int64, ok bool) {
	b, s := c.load()
	if s == 0 {
		return 0, 0, false
	}
	if c.sorted {
		return b.key(0).Load(), b.key(s - 1).Load(), true
	}
	minK = b.key(0).Load()
	maxK = minK
	for i := 1; i < s; i++ {
		k := b.key(i).Load()
		if k < minK {
			minK = k
		}
		if k > maxK {
			maxK = k
		}
	}
	return minK, maxK, true
}

// indexOf returns the position of key k among b's first s cells, or -1.
func (c *chunk) indexOf(b *block, s int, k int64) int {
	if c.sorted {
		if i := b.lowerBound(k, s); i < s && b.key(i).Load() == k {
			return i
		}
		return -1
	}
	for i := 0; i < s; i++ {
		if b.key(i).Load() == k {
			return i
		}
	}
	return -1
}

// Get returns the payload mapped to k.
func (c *Chunk[P]) Get(k int64) (*P, bool) {
	v, ok := c.get(k)
	return (*P)(v), ok
}

func (c *chunk) get(k int64) (unsafe.Pointer, bool) {
	b, s := c.load()
	if i := c.indexOf(b, s, k); i >= 0 {
		return b.loadVal(i), true
	}
	return nil, false
}

// Contains reports whether k is present.
func (c *chunk) Contains(k int64) bool {
	b, s := c.load()
	return c.indexOf(b, s, k) >= 0
}

// FindLE returns the entry with the largest key ≤ k, which is the pivot for
// rightward/downward traversal (Listing 2 line 7). ok is false when the
// chunk is empty or every key exceeds k — under the traversal invariant
// (minKey ≤ k) that indicates a concurrent modification and the caller must
// validate and restart.
func (c *Chunk[P]) FindLE(k int64) (key int64, val *P, ok bool) {
	key, v, ok := c.findLE(k)
	return key, (*P)(v), ok
}

func (c *chunk) findLE(k int64) (int64, unsafe.Pointer, bool) {
	b, s := c.load()
	if s == 0 {
		return 0, nil, false
	}
	if c.sorted {
		// Largest index with key ≤ k.
		i := b.upperBound(k, s)
		if i == 0 {
			return 0, nil, false
		}
		return b.key(i - 1).Load(), b.loadVal(i - 1), true
	}
	best := -1
	var bestKey int64
	for i := 0; i < s; i++ {
		if kk := b.key(i).Load(); kk <= k && (best < 0 || kk > bestKey) {
			best, bestKey = i, kk
		}
	}
	if best < 0 {
		return 0, nil, false
	}
	return bestKey, b.loadVal(best), true
}

// FindGE returns the entry with the smallest key ≥ k, for ceiling/successor
// queries. ok is false when every key is < k (or the chunk is empty).
func (c *Chunk[P]) FindGE(k int64) (key int64, val *P, ok bool) {
	key, v, ok := c.findGE(k)
	return key, (*P)(v), ok
}

func (c *chunk) findGE(k int64) (int64, unsafe.Pointer, bool) {
	b, s := c.load()
	if s == 0 {
		return 0, nil, false
	}
	if c.sorted {
		i := b.lowerBound(k, s)
		if i == s {
			return 0, nil, false
		}
		return b.key(i).Load(), b.loadVal(i), true
	}
	best := -1
	var bestKey int64
	for i := 0; i < s; i++ {
		if kk := b.key(i).Load(); kk >= k && (best < 0 || kk < bestKey) {
			best, bestKey = i, kk
		}
	}
	if best < 0 {
		return 0, nil, false
	}
	return bestKey, b.loadVal(best), true
}

// resize moves the first s elements of b into a new block of capacity nc
// and publishes it. b itself is left as it was. Caller must hold the write
// lock, or hold the node frozen with nothing about to change (Reserve).
func (c *chunk) resize(b *block, s, nc int) *block {
	nb := newBlock(nc)
	nb.fill(b, s)
	c.blk.Store(nb)
	return nb
}

// grow returns a block with room for need ≤ Cap() elements, resizing b,
// which holds s, when it is smaller: to room(s) cells, or to need if that
// is more. Caller must hold the write lock (or see Reserve).
func (c *chunk) grow(b *block, s, need int) *block {
	if need <= int(b.cap) {
		return b
	}
	return c.resize(b, s, capFor(max(need, room(s)), int(c.limit)))
}

// settle applies the shrink rule after removals left n elements in b.
// Caller must hold the write lock.
func (c *chunk) settle(b *block, n int) {
	if n >= int(b.cap)/2 {
		return
	}
	if n == 0 {
		c.blk.Store(&emptyBlock)
		return
	}
	if nc := capFor(room(n), int(c.limit)); nc < int(b.cap) {
		c.resize(b, n, nc)
	}
}

// Reserve makes room for n more elements (up to Cap()) now, so that the
// inserts that follow do not resize the block. A writer that has frozen the
// node calls it before upgrading to the write lock: nothing can change a
// frozen chunk, so the new block holds exactly what the old one does, a
// reader sees the same contents through either, and the allocation stays
// out of the seqlock's write hold. Caller must hold the node frozen or
// write-locked.
func (c *chunk) Reserve(n int) {
	b, s := c.owned()
	c.grow(b, s, min(s+n, int(c.limit)))
}

// Insert adds the mapping k→v. It returns false if k is already present.
// The caller must hold the owning node's write lock and must have ensured
// spare capacity (insert into a full chunk panics: the skip vector splits
// before inserting).
func (c *Chunk[P]) Insert(k int64, v *P) bool { return c.insert(k, unsafe.Pointer(v)) }

func (c *chunk) insert(k int64, v unsafe.Pointer) bool {
	b, s := c.owned()
	if c.indexOf(b, s, k) >= 0 {
		return false
	}
	if s >= int(c.limit) {
		panic("vectormap: Insert into full chunk")
	}
	c.put(c.grow(b, s, s+1), s, k, v)
	return true
}

// put adds k→v to b, which holds s elements and has a free cell. Sorted
// chunks shift the larger keys right.
func (c *chunk) put(b *block, s int, k int64, v unsafe.Pointer) {
	pos := s
	if c.sorted {
		pos = b.lowerBound(k, s)
		mInsertShift.Observe(pos, int64(s-pos))
		for i := s; i > pos; i-- {
			b.copyCell(i, b, i-1)
		}
	}
	b.key(pos).Store(k)
	b.storeVal(pos, v)
	c.size.Store(int32(s + 1))
}

// Set updates the payload of an existing key, returning false if absent.
// Caller must hold the write lock.
func (c *Chunk[P]) Set(k int64, v *P) bool { return c.set(k, unsafe.Pointer(v)) }

func (c *chunk) set(k int64, v unsafe.Pointer) bool {
	b, s := c.owned()
	i := c.indexOf(b, s, k)
	if i < 0 {
		return false
	}
	b.storeVal(i, v)
	return true
}

// SlotOp is one element of a multi-slot batch application (ApplyOps): a put
// (optionally insert-only) or a delete of Key.
type SlotOp[P any] struct {
	Key int64
	Val *P   // payload for puts; ignored for deletes
	Del bool // delete Key instead of writing it
	// InsertOnly makes a put succeed only when Key is absent; an existing
	// key is left untouched and reported as SlotExists.
	InsertOnly bool
}

// SlotOutcome reports what one SlotOp did to the chunk.
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
// way per call: the first insert that finds it full sizes it for every put
// still ahead, and the shrink rule runs once at the end. Caller must hold
// the owning node's write lock; out must be at least as long as ops.
func (c *Chunk[P]) ApplyOps(ops []SlotOp[P], out []SlotOutcome) int {
	// The batch's slot searches walk the whole occupied prefix; pull its
	// first lines in while the loop sets up.
	c.PrefetchKeys()
	b, s := c.owned()
	for i := range ops {
		op := &ops[i]
		j := c.indexOf(b, s, op.Key)
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
			b.storeVal(j, unsafe.Pointer(op.Val))
			out[i] = SlotUpdated
		case s >= int(c.limit):
			return i
		default:
			if s == int(b.cap) {
				puts := 0
				for _, rest := range ops[i:] {
					if !rest.Del {
						puts++
					}
				}
				b = c.grow(b, s, min(s+puts, int(c.limit)))
			}
			c.put(b, s, op.Key, unsafe.Pointer(op.Val))
			s++
			out[i] = SlotInserted
		}
	}
	c.settle(b, s)
	return len(ops)
}

// Remove deletes k and returns its payload. Caller must hold the write lock.
func (c *Chunk[P]) Remove(k int64) (*P, bool) {
	v, ok := c.remove(k)
	return (*P)(v), ok
}

func (c *chunk) remove(k int64) (unsafe.Pointer, bool) {
	b, s := c.owned()
	i := c.indexOf(b, s, k)
	if i < 0 {
		return nil, false
	}
	v := b.loadVal(i)
	c.removeAt(b, s, i)
	c.settle(b, s-1)
	return v, true
}

// removeAt deletes the element at position i of b, which holds s elements,
// keeping the cells past the new size nil.
func (c *chunk) removeAt(b *block, s, i int) {
	if c.sorted {
		mRemoveShift.Observe(i, int64(s-1-i))
		for j := i; j < s-1; j++ {
			b.copyCell(j, b, j+1)
		}
	} else if i != s-1 {
		b.copyCell(i, b, s-1)
	}
	b.clearVal(s - 1) // release payload reference for the collector
	c.size.Store(int32(s - 1))
}

// moveTo moves the elements of c for which move reports true into dst,
// which must be empty, keeping the rest of c in order. dst gets a fresh block
// with room for what it receives and the inserts likely to follow, filled
// before it is published; c keeps its block unless the shrink rule applies.
// Caller must hold write locks (or exclusive access) on both chunks.
func (c *chunk) moveTo(dst *chunk, move func(k int64) bool) {
	if dst.Size() != 0 {
		panic("vectormap: move into non-empty chunk")
	}
	b, s := c.owned()
	n := 0
	for i := 0; i < s; i++ {
		if move(b.key(i).Load()) {
			n++
		}
	}
	if n == 0 {
		return
	}
	db := newBlock(capFor(room(n), int(dst.limit)))
	d, w := 0, 0
	for i := 0; i < s; i++ {
		k := b.key(i).Load()
		if move(k) {
			// Plain stores: db is not published yet.
			*(*int64)(unsafe.Pointer(db.key(d))) = k
			*db.val(d) = atomic.LoadPointer(b.val(i))
			d++
		} else {
			if w != i {
				b.copyCell(w, b, i)
			}
			w++
		}
	}
	for i := w; i < s; i++ {
		b.clearVal(i)
	}
	dst.blk.Store(db)
	dst.size.Store(int32(d))
	c.size.Store(int32(w))
	c.settle(b, w)
}

// MoveGreaterTo moves every element with key strictly greater than k from c
// into dst, which must be empty and have the same logical capacity. It is
// the splitting primitive used when an Insert at height h cuts a node at key
// k (Listing 3 line 36). Caller must hold write locks (or exclusive access)
// on both chunks.
func (c *Chunk[P]) MoveGreaterTo(k int64, dst *Chunk[P]) {
	c.moveTo(&dst.chunk, func(kk int64) bool { return kk > k })
}

// SplitUpperHalfTo moves the largest ⌈size/2⌉ elements into dst (which must
// be empty) and returns the minimum key of dst. It is the capacity split
// applied when an Insert finds a full chunk. Caller must hold write locks on
// both chunks.
func (c *Chunk[P]) SplitUpperHalfTo(dst *Chunk[P]) int64 { return c.splitUpperHalfTo(&dst.chunk) }

func (c *chunk) splitUpperHalfTo(dst *chunk) int64 {
	b, s := c.owned()
	if s < 2 {
		panic("vectormap: SplitUpperHalfTo of chunk with fewer than 2 elements")
	}
	pivot := b.key(s / 2).Load()
	if !c.sorted {
		// Select the median via an explicit copy + sort of keys. Splits are
		// rare (amortized across T inserts), so O(T log T) here is
		// acceptable and keeps the hot paths branch-light.
		tmp := c.Keys()
		slices.Sort(tmp)
		pivot = tmp[s/2]
	}
	c.moveTo(dst, func(k int64) bool { return k >= pivot })
	return pivot
}

// AbsorbFrom moves every element of src into c (the merge primitive for
// orphan cleanup, Listing 2 line 33). All of src's keys must exceed all of
// c's keys (src is c's right neighbour). Caller must hold write locks on
// both chunks. Panics if the combined size exceeds capacity.
func (c *Chunk[P]) AbsorbFrom(src *Chunk[P]) { c.absorbFrom(&src.chunk) }

func (c *chunk) absorbFrom(src *chunk) {
	b, cs := c.owned()
	sb, ss := src.owned()
	if cs+ss > int(c.limit) {
		panic("vectormap: AbsorbFrom overflows capacity")
	}
	b = c.grow(b, cs, cs+ss)
	if c.sorted && !src.sorted {
		// Normalize: absorb in ascending key order.
		idx := make([]int, ss)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(x, y int) bool { return sb.key(idx[x]).Load() < sb.key(idx[y]).Load() })
		for n, i := range idx {
			b.copyCell(cs+n, sb, i)
		}
	} else {
		for i := 0; i < ss; i++ {
			b.copyCell(cs+i, sb, i)
		}
	}
	c.size.Store(int32(cs + ss))
	src.size.Store(0)
	src.blk.Store(&emptyBlock)
}

// ForEach calls fn for each element. For sorted chunks the iteration is in
// ascending key order; for unsorted chunks it is arbitrary. Returning false
// from fn stops the iteration.
func (c *Chunk[P]) ForEach(fn func(k int64, v *P) bool) {
	c.forEach(func(k int64, v unsafe.Pointer) bool { return fn(k, (*P)(v)) })
}

func (c *chunk) forEach(fn func(k int64, v unsafe.Pointer) bool) {
	b, s := c.load()
	for i := 0; i < s; i++ {
		if !fn(b.key(i).Load(), b.loadVal(i)) {
			return
		}
	}
}

// ForEachOrdered calls fn in ascending key order regardless of chunk policy.
// Unsorted chunks pay an O(T log T) index sort; it is used by range
// operations, which hold the node lock.
func (c *Chunk[P]) ForEachOrdered(fn func(k int64, v *P) bool) {
	c.forEachOrdered(func(k int64, v unsafe.Pointer) bool { return fn(k, (*P)(v)) })
}

func (c *chunk) forEachOrdered(fn func(k int64, v unsafe.Pointer) bool) {
	if c.sorted {
		c.forEach(fn)
		return
	}
	b, s := c.load()
	idx := make([]int, s)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(x, y int) bool { return b.key(idx[x]).Load() < b.key(idx[y]).Load() })
	for _, i := range idx {
		if !fn(b.key(i).Load(), b.loadVal(i)) {
			return
		}
	}
}

// Keys returns a copy of the current keys (ascending for sorted chunks).
func (c *chunk) Keys() []int64 {
	b, s := c.load()
	out := make([]int64, s)
	for i := range out {
		out[i] = b.key(i).Load()
	}
	return out
}

// CheckInvariants validates internal consistency (used by tests): the block
// within the chunk's capacity and of a capacity the sizing policy in
// block.go produces, size within the block, no duplicate keys, ascending
// order for sorted chunks, and no payload left in a cell past the live
// prefix (a stale pointer there would keep its target alive).
func (c *chunk) CheckInvariants() error {
	b := c.blk.Load()
	if b == nil {
		return fmt.Errorf("chunk has no block")
	}
	s, bc := int(c.size.Load()), int(b.cap)
	switch {
	case bc > c.Cap():
		return fmt.Errorf("block of %d cells exceeds capacity %d", bc, c.Cap())
	case s < 0 || s > bc:
		return fmt.Errorf("size %d out of bounds [0,%d]", s, bc)
	case bc > 0 && bc != capFor(bc, c.Cap()):
		return fmt.Errorf("block of %d cells does not fill its size class (%d would)", bc, capFor(bc, c.Cap()))
	}
	seen := make(map[int64]struct{}, s)
	var prev int64
	for i := 0; i < s; i++ {
		k := b.key(i).Load()
		if _, dup := seen[k]; dup {
			return fmt.Errorf("duplicate key %d", k)
		}
		seen[k] = struct{}{}
		if c.sorted && i > 0 && k <= prev {
			return fmt.Errorf("sorted chunk out of order at %d: %d <= %d", i, k, prev)
		}
		prev = k
	}
	for i := s; i < bc; i++ {
		if atomic.LoadPointer(b.val(i)) != nil {
			return fmt.Errorf("slot %d past size %d holds a payload", i, s)
		}
	}
	return nil
}
