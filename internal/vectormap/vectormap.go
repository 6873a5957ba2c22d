// Package vectormap implements the fixed-capacity key/payload vectors
// ("chunks") that skip vector nodes flatten their layers into (Listing 1 of
// the paper: type VectorMap). A chunk stores up to 2×targetSize correlated
// key/payload pairs in two parallel arrays, which is the source of the skip
// vector's spatial locality: one chunk traversal touches a handful of
// contiguous cache lines instead of chasing per-element pointers.
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
// node's sequence lock protects it. Writers mutate a chunk only while
// holding that lock. Readers may scan a chunk optimistically (concurrently
// with a writer) and must validate the node's sequence lock afterwards;
// until validated, any value read from a chunk is a candidate that may be
// torn or stale. To make such racy-by-design reads well-defined under the Go
// memory model, every slot is an atomic cell, and all size loads are clamped
// to the capacity. Every read path terminates regardless of concurrent
// writes (the paper's requirement in Section IV-C).
package vectormap

import (
	"fmt"
	"math"
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

// Chunk is a fixed-capacity map from int64 keys to *P payloads. In the skip
// vector, P is the value type for data-layer chunks and the node type for
// index-layer chunks (the payload is the "down" pointer).
//
// The zero value is unusable; call Init.
type Chunk[P any] struct {
	keys   []atomic.Int64
	vals   []atomic.Pointer[P]
	size   atomic.Int32
	sorted bool
}

// View reinterprets c as a chunk of payload type Q over the same memory. A
// skip vector node holds one chunk and reads it as key → value at the data
// layer and as key → child node in the index layers.
//
// The conversion is sound because Chunk's layout does not depend on P: keys
// and size do not mention it, and a vals cell is atomic.Pointer[P], which is
// one unsafe.Pointer word (plus zero-sized markers) whatever P is, so size,
// field offsets and the collector's pointer map are the same for every
// instantiation (TestChunkLayoutIndependentOfPayload pins this). What the
// layout cannot guarantee is the payloads themselves: every payload stored
// through one view must only ever be loaded through a view of the same Q.
func View[Q, P any](c *Chunk[P]) *Chunk[Q] {
	return (*Chunk[Q])(unsafe.Pointer(c))
}

// Init prepares the chunk with capacity 2×targetSize. It may be called again
// on a recycled chunk to reset it (the backing arrays are reused when the
// capacity matches). Only the live prefix is cleared: every slot at an index
// ≥ size already holds nil, because each primitive that takes an entry out
// nils the slot it vacates (CheckInvariants enforces this).
func (c *Chunk[P]) Init(targetSize int, sorted bool) {
	if targetSize < 1 {
		panic(fmt.Sprintf("vectormap: targetSize %d < 1", targetSize))
	}
	capacity := 2 * targetSize
	if len(c.keys) != capacity {
		c.keys = make([]atomic.Int64, capacity)
		c.vals = make([]atomic.Pointer[P], capacity)
	} else {
		for i, s := 0, c.snapshotSize(); i < s; i++ {
			c.vals[i].Store(nil)
		}
	}
	c.sorted = sorted
	c.size.Store(0)
}

// Sorted reports whether this chunk keeps its keys in ascending order.
func (c *Chunk[P]) Sorted() bool { return c.sorted }

// Cap returns the chunk capacity (2×targetSize).
func (c *Chunk[P]) Cap() int { return len(c.keys) }

// Size returns the current number of elements. Under optimistic readers it
// is a snapshot that must be validated by the node's sequence lock.
func (c *Chunk[P]) Size() int {
	return c.snapshotSize()
}

// Full reports whether the chunk is at capacity.
func (c *Chunk[P]) Full() bool { return c.snapshotSize() == len(c.keys) }

// snapshotSize loads size clamped into [0, cap] so that concurrent readers
// can never index out of bounds even if they observe a torn state.
func (c *Chunk[P]) snapshotSize() int {
	s := int(c.size.Load())
	if s < 0 {
		return 0
	}
	if s > len(c.keys) {
		return len(c.keys)
	}
	return s
}

// At returns the key/payload pair at position i. For sorted chunks positions
// are in key order; for unsorted chunks the order is arbitrary.
func (c *Chunk[P]) At(i int) (int64, *P) {
	return c.keys[i].Load(), c.vals[i].Load()
}

// MinKey returns the smallest key, or ok=false when empty.
func (c *Chunk[P]) MinKey() (int64, bool) {
	s := c.snapshotSize()
	if s == 0 {
		return 0, false
	}
	if c.sorted {
		return c.keys[0].Load(), true
	}
	minK := c.keys[0].Load()
	for i := 1; i < s; i++ {
		if k := c.keys[i].Load(); k < minK {
			minK = k
		}
	}
	return minK, true
}

// MaxKey returns the largest key, or ok=false when empty.
func (c *Chunk[P]) MaxKey() (int64, bool) {
	s := c.snapshotSize()
	if s == 0 {
		return 0, false
	}
	if c.sorted {
		return c.keys[s-1].Load(), true
	}
	maxK := c.keys[0].Load()
	for i := 1; i < s; i++ {
		if k := c.keys[i].Load(); k > maxK {
			maxK = k
		}
	}
	return maxK, true
}

// Bounds returns the smallest and largest keys in a single pass, or ok=false
// when the chunk is empty. It is the cheaper equivalent of calling MinKey and
// MaxKey back to back, used by hot paths that need both ends of the chunk's
// key span (the search-finger ownership check).
func (c *Chunk[P]) Bounds() (minK, maxK int64, ok bool) {
	s := c.snapshotSize()
	if s == 0 {
		return 0, 0, false
	}
	if c.sorted {
		return c.keys[0].Load(), c.keys[s-1].Load(), true
	}
	minK = c.keys[0].Load()
	maxK = minK
	for i := 1; i < s; i++ {
		k := c.keys[i].Load()
		if k < minK {
			minK = k
		}
		if k > maxK {
			maxK = k
		}
	}
	return minK, maxK, true
}

// indexOf returns the position of key k, or -1.
func (c *Chunk[P]) indexOf(k int64) int {
	s := c.snapshotSize()
	if c.sorted {
		if i := c.lowerBound(k, s); i < s && c.keys[i].Load() == k {
			return i
		}
		return -1
	}
	for i := 0; i < s; i++ {
		if c.keys[i].Load() == k {
			return i
		}
	}
	return -1
}

// Get returns the payload mapped to k.
func (c *Chunk[P]) Get(k int64) (*P, bool) {
	if i := c.indexOf(k); i >= 0 {
		return c.vals[i].Load(), true
	}
	return nil, false
}

// Contains reports whether k is present.
func (c *Chunk[P]) Contains(k int64) bool { return c.indexOf(k) >= 0 }

// FindLE returns the entry with the largest key ≤ k, which is the pivot for
// rightward/downward traversal (Listing 2 line 7). ok is false when the
// chunk is empty or every key exceeds k — under the traversal invariant
// (minKey ≤ k) that indicates a concurrent modification and the caller must
// validate and restart.
func (c *Chunk[P]) FindLE(k int64) (key int64, val *P, ok bool) {
	s := c.snapshotSize()
	if s == 0 {
		return 0, nil, false
	}
	if c.sorted {
		// Largest index with keys[i] <= k.
		i := c.upperBound(k, s)
		if i == 0 {
			return 0, nil, false
		}
		return c.keys[i-1].Load(), c.vals[i-1].Load(), true
	}
	best := -1
	var bestKey int64
	for i := 0; i < s; i++ {
		if kk := c.keys[i].Load(); kk <= k && (best < 0 || kk > bestKey) {
			best, bestKey = i, kk
		}
	}
	if best < 0 {
		return 0, nil, false
	}
	return bestKey, c.vals[best].Load(), true
}

// FindGE returns the entry with the smallest key ≥ k, for ceiling/successor
// queries. ok is false when every key is < k (or the chunk is empty).
func (c *Chunk[P]) FindGE(k int64) (key int64, val *P, ok bool) {
	s := c.snapshotSize()
	if s == 0 {
		return 0, nil, false
	}
	if c.sorted {
		i := c.lowerBound(k, s)
		if i == s {
			return 0, nil, false
		}
		return c.keys[i].Load(), c.vals[i].Load(), true
	}
	best := -1
	var bestKey int64
	for i := 0; i < s; i++ {
		if kk := c.keys[i].Load(); kk >= k && (best < 0 || kk < bestKey) {
			best, bestKey = i, kk
		}
	}
	if best < 0 {
		return 0, nil, false
	}
	return bestKey, c.vals[best].Load(), true
}

// Insert adds the mapping k→v. It returns false if k is already present.
// The caller must hold the owning node's write lock and must have ensured
// spare capacity (insert into a full chunk panics: the skip vector splits
// before inserting).
func (c *Chunk[P]) Insert(k int64, v *P) bool {
	if c.indexOf(k) >= 0 {
		return false
	}
	s := int(c.size.Load())
	if s == len(c.keys) {
		panic("vectormap: Insert into full chunk")
	}
	if c.sorted {
		// Find insertion point, shift right.
		pos := sort.Search(s, func(i int) bool { return c.keys[i].Load() >= k })
		mInsertShift.Observe(pos, int64(s-pos))
		for i := s; i > pos; i-- {
			c.keys[i].Store(c.keys[i-1].Load())
			c.vals[i].Store(c.vals[i-1].Load())
		}
		c.keys[pos].Store(k)
		c.vals[pos].Store(v)
	} else {
		c.keys[s].Store(k)
		c.vals[s].Store(v)
	}
	c.size.Store(int32(s + 1))
	return true
}

// Set updates the payload of an existing key, returning false if absent.
// Caller must hold the write lock.
func (c *Chunk[P]) Set(k int64, v *P) bool {
	i := c.indexOf(k)
	if i < 0 {
		return false
	}
	c.vals[i].Store(v)
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
// capacity and never stop the run. Caller must hold the owning node's write
// lock; out must be at least as long as ops.
func (c *Chunk[P]) ApplyOps(ops []SlotOp[P], out []SlotOutcome) int {
	// The batch's slot searches walk the whole occupied prefix; pull its
	// first lines in while the loop sets up.
	c.PrefetchKeys()
	for i := range ops {
		op := &ops[i]
		if op.Del {
			if _, removed := c.Remove(op.Key); removed {
				out[i] = SlotRemoved
			} else {
				out[i] = SlotAbsent
			}
			continue
		}
		if j := c.indexOf(op.Key); j >= 0 {
			if op.InsertOnly {
				out[i] = SlotExists
			} else {
				c.vals[j].Store(op.Val)
				out[i] = SlotUpdated
			}
			continue
		}
		if c.Full() {
			return i
		}
		if !c.Insert(op.Key, op.Val) {
			panic("vectormap: ApplyOps insert failed after absence check")
		}
		out[i] = SlotInserted
	}
	return len(ops)
}

// Remove deletes k and returns its payload. Caller must hold the write lock.
func (c *Chunk[P]) Remove(k int64) (*P, bool) {
	i := c.indexOf(k)
	if i < 0 {
		return nil, false
	}
	v := c.vals[i].Load()
	s := int(c.size.Load())
	if c.sorted {
		mRemoveShift.Observe(i, int64(s-1-i))
		for j := i; j < s-1; j++ {
			c.keys[j].Store(c.keys[j+1].Load())
			c.vals[j].Store(c.vals[j+1].Load())
		}
	} else if i != s-1 {
		c.keys[i].Store(c.keys[s-1].Load())
		c.vals[i].Store(c.vals[s-1].Load())
	}
	c.vals[s-1].Store(nil) // release payload reference for the collector
	c.size.Store(int32(s - 1))
	return v, true
}

// MoveGreaterTo moves every element with key strictly greater than k from c
// into dst, which must be empty and have the same capacity class (at least
// as many free slots as elements moved). It is the splitting primitive used
// when an Insert at height h cuts a node at key k (Listing 3 line 36).
// Caller must hold write locks (or exclusive access) on both chunks.
func (c *Chunk[P]) MoveGreaterTo(k int64, dst *Chunk[P]) {
	if dst.Size() != 0 {
		panic("vectormap: MoveGreaterTo into non-empty chunk")
	}
	s := int(c.size.Load())
	if c.sorted {
		pos := sort.Search(s, func(i int) bool { return c.keys[i].Load() > k })
		n := 0
		for i := pos; i < s; i++ {
			dst.keys[n].Store(c.keys[i].Load())
			dst.vals[n].Store(c.vals[i].Load())
			c.vals[i].Store(nil)
			n++
		}
		dst.size.Store(int32(n))
		c.size.Store(int32(pos))
		return
	}
	n := 0
	w := 0
	for i := 0; i < s; i++ {
		kk := c.keys[i].Load()
		vv := c.vals[i].Load()
		if kk > k {
			dst.keys[n].Store(kk)
			dst.vals[n].Store(vv)
			n++
		} else {
			c.keys[w].Store(kk)
			c.vals[w].Store(vv)
			w++
		}
	}
	for i := w; i < s; i++ {
		c.vals[i].Store(nil)
	}
	dst.size.Store(int32(n))
	c.size.Store(int32(w))
}

// SplitUpperHalfTo moves the largest ⌈size/2⌉ elements into dst (which must
// be empty) and returns the minimum key of dst. It is the capacity split
// applied when an Insert finds a full chunk. Caller must hold write locks on
// both chunks.
func (c *Chunk[P]) SplitUpperHalfTo(dst *Chunk[P]) int64 {
	s := int(c.size.Load())
	if s < 2 {
		panic("vectormap: SplitUpperHalfTo of chunk with fewer than 2 elements")
	}
	if c.sorted {
		keep := s / 2
		n := 0
		for i := keep; i < s; i++ {
			dst.keys[n].Store(c.keys[i].Load())
			dst.vals[n].Store(c.vals[i].Load())
			c.vals[i].Store(nil)
			n++
		}
		dst.size.Store(int32(n))
		c.size.Store(int32(keep))
		return dst.keys[0].Load()
	}
	// Unsorted: select the median via an explicit copy + sort of keys.
	// Splits are rare (amortized across T inserts), so O(T log T) here is
	// acceptable and keeps the hot paths branch-light.
	tmp := make([]int64, s)
	for i := 0; i < s; i++ {
		tmp[i] = c.keys[i].Load()
	}
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
	pivot := tmp[s/2] // elements >= pivot move (upper half)
	n, w := 0, 0
	for i := 0; i < s; i++ {
		kk := c.keys[i].Load()
		vv := c.vals[i].Load()
		if kk >= pivot {
			dst.keys[n].Store(kk)
			dst.vals[n].Store(vv)
			n++
		} else {
			c.keys[w].Store(kk)
			c.vals[w].Store(vv)
			w++
		}
	}
	for i := w; i < s; i++ {
		c.vals[i].Store(nil)
	}
	dst.size.Store(int32(n))
	c.size.Store(int32(w))
	return pivot
}

// AbsorbFrom moves every element of src into c (the merge primitive for
// orphan cleanup, Listing 2 line 33). All of src's keys must exceed all of
// c's keys (src is c's right neighbour). Caller must hold write locks on
// both chunks. Panics if the combined size exceeds capacity.
func (c *Chunk[P]) AbsorbFrom(src *Chunk[P]) {
	cs, ss := int(c.size.Load()), int(src.size.Load())
	if cs+ss > len(c.keys) {
		panic("vectormap: AbsorbFrom overflows capacity")
	}
	if c.sorted && !src.sorted {
		// Normalize: absorb in ascending key order.
		idx := make([]int, ss)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool {
			return src.keys[idx[a]].Load() < src.keys[idx[b]].Load()
		})
		for n, i := range idx {
			c.keys[cs+n].Store(src.keys[i].Load())
			c.vals[cs+n].Store(src.vals[i].Load())
		}
	} else {
		for i := 0; i < ss; i++ {
			c.keys[cs+i].Store(src.keys[i].Load())
			c.vals[cs+i].Store(src.vals[i].Load())
		}
	}
	for i := 0; i < ss; i++ {
		src.vals[i].Store(nil)
	}
	c.size.Store(int32(cs + ss))
	src.size.Store(0)
}

// ForEach calls fn for each element. For sorted chunks the iteration is in
// ascending key order; for unsorted chunks it is arbitrary. Returning false
// from fn stops the iteration.
func (c *Chunk[P]) ForEach(fn func(k int64, v *P) bool) {
	s := c.snapshotSize()
	for i := 0; i < s; i++ {
		if !fn(c.keys[i].Load(), c.vals[i].Load()) {
			return
		}
	}
}

// ForEachOrdered calls fn in ascending key order regardless of chunk policy.
// Unsorted chunks pay an O(T log T) index sort; it is used by range
// operations, which hold the node lock.
func (c *Chunk[P]) ForEachOrdered(fn func(k int64, v *P) bool) {
	s := c.snapshotSize()
	if c.sorted {
		for i := 0; i < s; i++ {
			if !fn(c.keys[i].Load(), c.vals[i].Load()) {
				return
			}
		}
		return
	}
	idx := make([]int, s)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return c.keys[idx[a]].Load() < c.keys[idx[b]].Load()
	})
	for _, i := range idx {
		if !fn(c.keys[i].Load(), c.vals[i].Load()) {
			return
		}
	}
}

// Keys returns a copy of the current keys (ascending for sorted chunks).
// Intended for tests and invariant checks.
func (c *Chunk[P]) Keys() []int64 {
	s := c.snapshotSize()
	out := make([]int64, s)
	for i := 0; i < s; i++ {
		out[i] = c.keys[i].Load()
	}
	return out
}

// CheckInvariants validates internal consistency (used by tests): size in
// bounds, no duplicate keys, ascending order for sorted chunks, and no
// payload left in a slot past the live prefix (Init relies on it, and a
// stale pointer there would keep its target alive).
func (c *Chunk[P]) CheckInvariants() error {
	s := int(c.size.Load())
	if s < 0 || s > len(c.keys) {
		return fmt.Errorf("size %d out of bounds [0,%d]", s, len(c.keys))
	}
	seen := make(map[int64]struct{}, s)
	var prev int64
	for i := 0; i < s; i++ {
		k := c.keys[i].Load()
		if _, dup := seen[k]; dup {
			return fmt.Errorf("duplicate key %d", k)
		}
		seen[k] = struct{}{}
		if c.sorted && i > 0 && k <= prev {
			return fmt.Errorf("sorted chunk out of order at %d: %d <= %d", i, k, prev)
		}
		prev = k
	}
	for i := s; i < len(c.vals); i++ {
		if c.vals[i].Load() != nil {
			return fmt.Errorf("slot %d past size %d holds a payload", i, s)
		}
	}
	return nil
}
