package core

import (
	"sync"
	"sync/atomic"

	"skipvector/internal/hazard"
	"skipvector/internal/vectormap"
)

// opCtx is the per-operation (really per-goroutine, via pooling) state: the
// hazard-pointer handle, a private RNG stream for insertion heights, the
// stripe used for the length counter, and the search finger. It corresponds
// to the thread-local state a C++ implementation would keep.
//
// The finger deliberately survives put/get cycles through the pool: a
// single-threaded caller gets the same context back on every operation (the
// free list is LIFO), so its locality carries across operations with no API
// change. Callers that need guaranteed stickiness under concurrency pin a
// context with Map.NewHandle.
type opCtx[V any] struct {
	m      *Map[V]
	h      *hazard.Handle[node[V]] // nil in leak mode
	rng    uint64                  // splitmix64 state
	stripe int
	fing   finger[V]
	batch  batchScratch[V] // reusable ApplyBatch buffers (contexts are pooled)

	// one and oneOut are a singleton write's group of one (writeKey). They
	// cannot share batch.slots, which stays live while a batch replays a
	// key run through the singleton paths.
	one    [1]vectormap.CellOp
	oneOut [1]vectormap.SlotOutcome

	// walUnit tags commit-hook calls with the batch commit unit this context
	// is executing (0 outside ApplyBatchLogged); commitVal holds the value
	// copies the hook's ops point at (see commit.go).
	walUnit   uint64
	commitVal []V
}

// single loads op, with outcome out, into the context's group of one.
func (c *opCtx[V]) single(op vectormap.CellOp, out vectormap.SlotOutcome) ([]vectormap.CellOp, []vectormap.SlotOutcome) {
	c.one[0], c.oneOut[0] = op, out
	return c.one[:], c.oneOut[:]
}

// commitVals returns scratch for n value copies handed to the commit hook.
// Its contents are overwritten by the next hook call on this context.
func (c *opCtx[V]) commitVals(n int) []V {
	if len(c.commitVal) < n {
		c.commitVal = make([]V, max(n, 2*len(c.commitVal)))
	}
	return c.commitVal[:n]
}

// splitmix64 advances the RNG and returns the next 64-bit value. It is the
// standard SplitMix64 generator: tiny state, excellent distribution for
// height generation, fully deterministic per seed.
func (c *opCtx[V]) splitmix64() uint64 {
	c.rng += 0x9e3779b97f4a7c15
	z := c.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// randomHeight draws an insertion height (Listing 3 line 1): height 0 with
// probability (T_D-1)/T_D, otherwise 1 plus a geometric tail with success
// probability 1/T_I, capped at LayerCount-1. The resulting expected layer
// densities match a skip list with p = 1/T (Section IV-A). Degenerate
// target sizes of 1 (the paper's USL/SL emulation, which removes chunking)
// fall back to the classic skip list's p = 1/2 — with p = 1/T the
// un-chunked distribution would put every key in every layer.
func (c *opCtx[V]) randomHeight() int {
	cfg := &c.m.cfg
	if cfg.LayerCount == 1 {
		return 0
	}
	dataP := uint64(cfg.TargetDataVectorSize)
	if dataP < 2 {
		dataP = 2
	}
	if c.splitmix64()%dataP != 0 {
		return 0
	}
	indexP := uint64(cfg.TargetIndexVectorSize)
	if indexP < 2 {
		indexP = 2
	}
	h := 1
	for h < cfg.LayerCount-1 && c.splitmix64()%indexP == 0 {
		h++
	}
	return h
}

// take publishes a hazard pointer for n ("HP.take"). The pointer is not yet
// safe to dereference: the caller must validate the sequence lock of the
// node it read n from, which proves n was still linked when the hazard
// pointer became visible.
func (c *opCtx[V]) take(n *node[V]) {
	if c.h == nil {
		return
	}
	for i := 0; i < hazard.SlotsPerHandle; i++ {
		if c.slotLoad(i) == nil {
			c.h.Protect(i, n)
			return
		}
	}
	panic("core: hazard-pointer slots exhausted")
}

// drop clears the hazard pointer protecting n ("HP.drop").
func (c *opCtx[V]) drop(n *node[V]) {
	if c.h == nil {
		return
	}
	for i := 0; i < hazard.SlotsPerHandle; i++ {
		if c.slotLoad(i) == n {
			c.h.Clear(i)
			return
		}
	}
}

// dropAll clears every hazard pointer ("HP.dropAll"), invoked on restarts.
func (c *opCtx[V]) dropAll() {
	if c.h != nil {
		c.h.ClearAll()
	}
}

// opKind classifies the operation whose attempt is restarting, so restart
// totals can be broken down by the path that paid them.
type opKind int

const (
	opLookup opKind = iota
	opInsert
	opRemove
	opNav   // Floor/Ceiling (and the facades' Min/Max through them)
	opRange // RangeQuery/RangeUpdate window establishment
	opBatch // ApplyBatch group commits (singleton-routed batch ops charge their native kinds)
	opSnap  // snapshot point-read descents (snapshot scans have no restart path)
	numOpKinds
)

// restart accounts one failed optimistic attempt and resets the context so
// the operation can retry from the top. Every retry loop in the package goes
// through here, so the per-kind counters, and the total Stats sums from
// them, are a complete count of torn reads, failed validations, lost CAS
// races, and chaos-forced failures alike.
func (m *Map[V]) restart(ctx *opCtx[V], op opKind) {
	m.restartsByOp[op].Add(1)
	ctx.dropAll()
}

// retire marks an unlinked node for reclamation ("HP.mark"). While snapshots
// are pinned, a data node's retire record is stamped with a conservative
// upper bound on the unlinking write's epoch: the hazard domain's recycle
// filter keeps the node until no pinned snapshot's epoch precedes that
// bound, so snapshot scans may keep traversing its next pointer
// (epoch-aware reclamation). With no snapshot pinned the stamp is 0 — a node
// retired before a pin is unreachable from any post-pin scan, so immediate
// recycling is safe. In leak mode there is no domain and nothing to stamp:
// the collector keeps the node while any scan can reach it.
func (c *opCtx[V]) retire(n *node[V]) {
	var retireEpoch uint64
	if n.level == 0 && c.m.snaps.count.Load() > 0 {
		retireEpoch = c.m.epoch.Load() + 1
	}
	c.m.mem.retires.Add(1)
	if c.h != nil {
		c.h.Retire(n, retireEpoch)
	}
}

// slotLoad reads back slot i. The handle's slots are only written by this
// goroutine, so the scan here is exact.
func (c *opCtx[V]) slotLoad(i int) *node[V] {
	return c.h.Slot(i)
}

// ctxPool hands out opCtx values. Handles register with the hazard domain
// once and are reused across operations. A hand-rolled free stack is used
// instead of sync.Pool because pooled contexts own hazard-pointer retire
// lists: sync.Pool may drop items at any GC, which would strand their
// retired nodes (pinned by the domain's handle registry) forever. With the
// explicit stack, the number of contexts equals the peak concurrency and
// every retired node is eventually scanned.
type ctxPool[V any] struct {
	m    *Map[V]
	mu   sync.Mutex
	free []*opCtx[V]
	seq  atomic.Uint64
}

func newCtxPool[V any](m *Map[V]) *ctxPool[V] {
	return &ctxPool[V]{m: m}
}

func (p *ctxPool[V]) get() *opCtx[V] {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return c
	}
	p.mu.Unlock()
	id := p.seq.Add(1)
	c := &opCtx[V]{
		m:      p.m,
		rng:    p.m.cfg.Seed ^ (id * 0x9e3779b97f4a7c15),
		stripe: int(id),
	}
	if p.m.mem.domain != nil {
		c.h = p.m.mem.domain.NewHandle()
	}
	return c
}

func (p *ctxPool[V]) put(c *opCtx[V]) {
	p.mu.Lock()
	p.free = append(p.free, c)
	p.mu.Unlock()
}
