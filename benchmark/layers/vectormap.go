package layers

import (
	"sort"
	"time"

	"skipvector/internal/core"
	"skipvector/internal/vectormap"
)

// ChunkKernel is what VectormapKernel measured, in nanoseconds.
type ChunkKernel struct {
	SearchNsPerCall       float64 // FindLE on a sorted chunk and Get on an unsorted one, averaged
	InsertRemoveNsPerCall float64 // Insert of an absent key or Remove of a present one, unsorted chunk
	ApplyOpsNsPerKey      float64 // ApplyOps over the keys of a batch that share a chunk
}

// VectormapKernel times vectormap.Chunk alone on a workload's key stream, at
// the chunk sizes and orderings the map is configured with. Chunks are laid
// out as a flat directory, one per run of Cap() consecutive keys and half
// full, so that a call costs what the chunk costs — its search and its cache
// misses — with no descent, lock or hazard pointer around it.
func VectormapKernel(keySpace int64, reads, writes []int64, batches [][]int64) ChunkKernel {
	cfg := core.DefaultConfig()
	data := newDirectory(keySpace, cfg.TargetDataVectorSize, cfg.SortedData)
	index := newDirectory(keySpace, cfg.TargetIndexVectorSize, cfg.SortedIndex)
	var k ChunkKernel
	sink := 0

	t0 := time.Now()
	for _, key := range reads {
		if _, _, ok := index.of(key).FindLE(key); ok {
			sink++
		}
		if _, ok := data.of(key).Get(key); ok {
			sink++
		}
	}
	k.SearchNsPerCall = perCall(t0, 2*len(reads))

	t0 = time.Now()
	for _, key := range writes {
		c := data.of(key)
		if _, removed := c.Remove(key); !removed {
			c.Insert(key, &data.val)
		}
	}
	k.InsertRemoveNsPerCall = perCall(t0, len(writes))

	var (
		ops  = make([]vectormap.SlotOp[uint64], 0, 64)
		outs = make([]vectormap.SlotOutcome, data.span)
		keys int
		busy time.Duration
	)
	for _, b := range batches {
		// As core.ApplyBatch does: sort, then one ApplyOps per run of keys
		// that one chunk owns. Only the ApplyOps calls are timed.
		ops = ops[:0]
		for _, key := range b {
			ops = append(ops, vectormap.SlotOp[uint64]{Key: key, Val: &data.val})
		}
		sort.Slice(ops, func(i, j int) bool { return ops[i].Key < ops[j].Key })
		t0 := time.Now()
		for lo := 0; lo < len(ops); {
			c, hi := data.of(ops[lo].Key), lo+1
			for hi < len(ops) && hi-lo < len(outs) && data.of(ops[hi].Key) == c {
				hi++
			}
			sink += c.ApplyOps(ops[lo:hi], outs)
			lo = hi
		}
		busy += time.Since(t0)
		keys += len(b)
	}
	k.ApplyOpsNsPerKey = float64(busy.Nanoseconds()) / float64(max(keys, 1))
	kernelSink += sink
	return k
}

// perCall is the mean time of n calls started at t0; 0 when there were none.
func perCall(t0 time.Time, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// directory is keySpace/span chunks; chunk i owns keys [i·span, (i+1)·span),
// so it can never overflow, and starts with every second key.
type directory struct {
	chunks []vectormap.Chunk[uint64]
	span   int64
	val    uint64
}

func newDirectory(keySpace int64, targetSize int, sorted bool) *directory {
	d := &directory{span: int64(2 * targetSize)}
	d.chunks = make([]vectormap.Chunk[uint64], (keySpace+d.span-1)/d.span)
	for i := range d.chunks {
		d.chunks[i].Init(targetSize, sorted)
	}
	// Unsorted chunks keep keys in arrival order; arrive in a scattered one.
	for j := int64(0); j < d.span; j += 2 {
		off := j * 37 % d.span &^ 1
		for i := range d.chunks {
			if k := int64(i)*d.span + off; k < keySpace {
				d.chunks[i].Insert(k, &d.val)
			}
		}
	}
	return d
}

func (d *directory) of(k int64) *vectormap.Chunk[uint64] { return &d.chunks[k/d.span] }
