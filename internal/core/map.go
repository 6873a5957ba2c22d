// Package core implements the concurrent skip vector map of Rodriguez,
// Hassan and Spear, "Exploiting Locality in Scalable Ordered Maps" (ICDCS
// 2021). The skip vector is a skip list whose index and data layers are
// flattened into fixed-capacity vectors ("chunks"), traversed optimistically
// under per-node sequence locks and reclaimed precisely with hazard
// pointers.
//
// Layers are numbered bottom-up: layer 0 is the data layer (key → value);
// layers 1..LayerCount-1 are index layers (key → node one layer down). Every
// layer is a singly linked list of chunked nodes bracketed by head (⊥) and
// tail (⊤) sentinels. A node with no parent entry in the layer above is an
// "orphan": reachable only through its left neighbour's next pointer,
// created by splits and removals, and lazily merged away by later
// operations.
//
// Concurrency follows Listings 2-4 of the paper: readers traverse
// hand-over-hand, snapshotting each node's sequence lock and validating the
// snapshot after every exposure. A write that changes only the data layer
// locks its one data node (a group commit, batch.go); a tower insert freezes
// its target nodes on the way down and the removal of an indexed key locks
// top-down. Every writer restarts whenever a validation fails. All
// optimistically read fields are atomic cells, so the implementation is
// well-defined under the Go memory model and clean under the race detector.
package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"skipvector/internal/telemetry"
	"skipvector/internal/vectormap"
)

// MaxLayers bounds LayerCount. With TargetIndexVectorSize ≥ 2 even 2^64 keys
// need at most 64 index layers; practical configurations use ≤ 8.
const MaxLayers = 32

// ReclaimMode selects the memory-reclamation strategy.
type ReclaimMode int

const (
	// ReclaimHazard runs the full hazard-pointer protocol and recycles
	// retired nodes through a freelist ("HP" variants in the paper).
	ReclaimHazard ReclaimMode = iota + 1
	// ReclaimLeak skips the protocol; unlinked nodes are left for the
	// garbage collector ("Leak" variants in the paper).
	ReclaimLeak
)

func (m ReclaimMode) String() string {
	switch m {
	case ReclaimHazard:
		return "hp"
	case ReclaimLeak:
		return "leak"
	default:
		return fmt.Sprintf("ReclaimMode(%d)", int(m))
	}
}

// Config carries the tunables from Listing 1 and Section V-B. The zero
// value is not valid; start from DefaultConfig.
type Config struct {
	// LayerCount is the total number of layers including the data layer.
	LayerCount int
	// TargetDataVectorSize (T_D) is the expected data-chunk occupancy;
	// chunk capacity is twice this. At most vectormap.MaxTarget.
	TargetDataVectorSize int
	// TargetIndexVectorSize (T_I) is the expected index-chunk occupancy.
	// At most vectormap.MaxTarget.
	TargetIndexVectorSize int
	// MergeFactor scales the merge threshold: two adjacent nodes whose
	// combined size is below MergeFactor×targetSize are merged when the
	// right one is an orphan. The paper's default is 1.67.
	MergeFactor float64
	// SortedIndex selects sorted index chunks (binary-searchable). The
	// paper's best performer uses sorted index vectors.
	SortedIndex bool
	// SortedData selects sorted data chunks. The paper's best performer
	// uses unsorted data vectors.
	SortedData bool
	// Reclaim selects hazard-pointer or leaky reclamation.
	Reclaim ReclaimMode
	// Seed seeds the per-operation height RNG streams. A zero seed is
	// replaced with a fixed constant so behaviour is reproducible.
	Seed uint64
	// MetricLabels are constant label name/value pairs attached to every
	// series of the map's metric registry. Nil (the default) leaves series
	// unlabeled. A sharded deployment labels each shard's map (shard="3") so
	// a combined telemetry.View over all shards exports distinct series
	// instead of N colliding copies of each name.
	MetricLabels []string
}

// DefaultConfig returns the paper's general-purpose tuning (Section V-A):
// LayerCount 6, both target sizes 32, merge threshold 1.67×targetSize,
// sorted index chunks over unsorted data chunks, hazard-pointer reclamation.
func DefaultConfig() Config {
	return Config{
		LayerCount:            6,
		TargetDataVectorSize:  32,
		TargetIndexVectorSize: 32,
		MergeFactor:           1.67,
		SortedIndex:           true,
		SortedData:            false,
		Reclaim:               ReclaimHazard,
		Seed:                  0x5eed5eed5eed5eed,
	}
}

// Validate reports whether the configuration is usable.
func (c *Config) Validate() error {
	switch {
	case c.LayerCount < 1 || c.LayerCount > MaxLayers:
		return fmt.Errorf("core: LayerCount %d outside [1,%d]", c.LayerCount, MaxLayers)
	case c.TargetDataVectorSize < 1 || c.TargetDataVectorSize > vectormap.MaxTarget:
		return fmt.Errorf("core: TargetDataVectorSize %d outside [1,%d]", c.TargetDataVectorSize, vectormap.MaxTarget)
	case c.TargetIndexVectorSize < 1 || c.TargetIndexVectorSize > vectormap.MaxTarget:
		return fmt.Errorf("core: TargetIndexVectorSize %d outside [1,%d]", c.TargetIndexVectorSize, vectormap.MaxTarget)
	case c.MergeFactor <= 0 || c.MergeFactor > 2:
		return fmt.Errorf("core: MergeFactor %v outside (0,2]", c.MergeFactor)
	case c.Reclaim != ReclaimHazard && c.Reclaim != ReclaimLeak:
		return fmt.Errorf("core: invalid ReclaimMode %d", c.Reclaim)
	case len(c.MetricLabels)%2 != 0:
		return fmt.Errorf("core: MetricLabels has %d elements; need name/value pairs", len(c.MetricLabels))
	}
	return nil
}

// mergeThreshold computes ⌈factor × target⌉ clamped to chunk capacity, so a
// merge can never overflow the absorbing chunk.
func mergeThreshold(factor float64, target int) int {
	th := int(math.Ceil(factor * float64(target)))
	if th > 2*target {
		th = 2 * target
	}
	if th < 1 {
		th = 1
	}
	return th
}

// Map is a concurrent ordered map from int64 keys to V values, passed in and
// out by pointer (value.go has the ownership rules). Keys must lie strictly
// between MinKey and MaxKey (the sentinel values). All methods are safe for
// concurrent use by any number of goroutines.
type Map[V any] struct {
	cfg        Config
	inline     bool // values live in the data cells' words (value.go)
	mergeData  int  // merge threshold for data-layer nodes
	mergeIndex int  // merge threshold for index-layer nodes

	// head is the head node of the topmost layer; heads[l] is the head of
	// layer l. Head and tail nodes are never retired, never orphans, and
	// never change identity, so traversals may start from head without
	// hazard-pointer ceremony.
	head  *node[V]
	heads []*node[V]

	mem    *memory[V]
	ctxs   *ctxPool[V]
	length lengthCounter
	stats  Stats

	// Finger hit/miss counters are striped like the length counter: they
	// are touched once per operation, and a single shared cache line would
	// become a contention point at exactly the thread counts the finger is
	// meant to help.
	fingerHits   lengthCounter
	fingerMisses lengthCounter

	// batchDescSaved counts ApplyBatch groups positioned by the search finger
	// instead of a fresh descent (striped for the same reason as the finger
	// counters: one touch per group commit).
	batchDescSaved lengthCounter

	// restartsByOp counts restarts by the operation kind that paid them;
	// the restart total is their sum. Always on: restarts are a cold path.
	restartsByOp [numOpKinds]atomic.Int64

	// reg is this map's metric registry (always built; recording into the
	// gated instruments is off unless telemetry is enabled). descentDepth
	// and freezes are the two instruments hot enough to need gating — one
	// potential observation per operation; the batch histograms sit on the
	// per-call (not per-op) path of ApplyBatch and share the gate.
	reg            *telemetry.Registry
	descentDepth   *telemetry.Histogram
	freezes        *telemetry.Counter
	batchSize      *telemetry.Histogram
	batchGroupSize *telemetry.Histogram
	snapChainLen   *telemetry.Histogram

	// commitHook, when set, observes every effective mutation at its
	// linearization point (commit.go). Read without synchronization on the
	// write paths; must be installed before the map is shared.
	commitHook CommitHook[V]

	// MVCC snapshot state (snapshot.go): the global write epoch, the pinned
	// snapshot registry, and the copy-on-write version store. With no
	// snapshot pinned the only cost any write pays is one load of
	// snaps.count.
	epoch  atomic.Uint64
	snaps  snapRegistry
	vstore versionStore[V]
}

// Key sentinels: user keys must satisfy MinKey < k < MaxKey.
const (
	MinKey = vectormap.NegInf
	MaxKey = vectormap.PosInf
)

// NewMap builds an empty skip vector with the given configuration.
func NewMap[V any](cfg Config) (*Map[V], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Map[V]{
		cfg:        cfg,
		mergeData:  mergeThreshold(cfg.MergeFactor, cfg.TargetDataVectorSize),
		mergeIndex: mergeThreshold(cfg.MergeFactor, cfg.TargetIndexVectorSize),
		inline:     inlineable[V](),
	}
	m.mem = newMemory[V](&cfg, m.inline)
	m.ctxs = newCtxPool[V](m)

	// Build per-layer head/tail sentinels, bottom-up, linking each layer's
	// ⊥ entry down to the head below (Figure 3a).
	m.heads = make([]*node[V], cfg.LayerCount)
	var below *node[V]
	for l := 0; l < cfg.LayerCount; l++ {
		head := m.mem.allocRaw(l)
		tail := m.mem.allocRaw(l)
		if l == 0 {
			head.data().Insert(MinKey, vectormap.Cell{})
			tail.data().Insert(MaxKey, vectormap.Cell{})
		} else {
			head.index().Insert(MinKey, below)
			tail.index().Insert(MaxKey, nil)
		}
		head.next.Store(tail)
		m.heads[l] = head
		below = head
	}
	m.head = m.heads[cfg.LayerCount-1]
	if m.mem.domain != nil {
		// Epoch-aware reclamation: retired data nodes must outlive every
		// pinned snapshot that can still traverse them. Installed before any
		// node can be retired (see hazard.SetRecycleFilter's contract).
		m.mem.domain.SetRecycleFilter(m.snapshotsPermitRecycle)
	}
	m.initMetrics()
	return m, nil
}

// Config returns a copy of the map's configuration.
func (m *Map[V]) Config() Config { return m.cfg }

// Len returns the number of keys currently in the map. It is maintained
// with a striped counter and is linearizable only in quiescent states.
func (m *Map[V]) Len() int { return int(m.length.load()) }

// checkKey panics on sentinel keys; accepting them would corrupt the
// sentinel structure. This is a programming error, not a runtime condition.
func checkKey(k int64) {
	if k == MinKey || k == MaxKey {
		panic(fmt.Sprintf("core: key %d is reserved as a sentinel", k))
	}
}
