package core

import "fmt"

// BulkLoad constructs a skip vector from pre-sorted data in O(n) time with
// perfectly packed chunks — the ordered-map analogue of B+-tree bulk
// loading, and the fast path database index builds want (the paper's
// future-work direction of using the skip vector as a database index). Keys
// must be strictly ascending and within (MinKey, MaxKey); vals must be the
// same length as keys, or nil to load zero values. Each vals[i] is copied;
// the map keeps no reference to the slice.
//
// Every chunk is filled to exactly its target size (index chunks to two
// entries when T_I = 1), so the loaded structure matches the steady-state
// shape the height distribution would converge to, and every node at layer
// L>0 gets a parent entry except at the top layer, where non-head nodes are
// marked orphans (the invariant normal operation maintains; lazy merging
// will coalesce them if the top layer is overfull for the configured
// LayerCount).
func BulkLoad[V any](cfg Config, keys []int64, vals []V) (*Map[V], error) {
	if vals != nil && len(vals) != len(keys) {
		return nil, fmt.Errorf("core: BulkLoad with %d keys but %d values", len(keys), len(vals))
	}
	for i, k := range keys {
		if k == MinKey || k == MaxKey {
			return nil, fmt.Errorf("core: BulkLoad key %d is a sentinel", k)
		}
		if i > 0 && keys[i-1] >= k {
			return nil, fmt.Errorf("core: BulkLoad keys not strictly ascending at %d", i)
		}
	}
	m, err := NewMap[V](cfg)
	if err != nil {
		return nil, err
	}
	if len(keys) == 0 {
		return m, nil
	}

	// Build the data layer: a chain of nodes with T_D keys each, linked
	// between the head and tail sentinels.
	type childRef[W any] struct {
		min  int64
		node *node[W]
	}
	var refs []childRef[V]
	head := m.heads[0]
	tail := head.next.Load()
	prev := head
	for off := 0; off < len(keys); off += cfg.TargetDataVectorSize {
		end := off + cfg.TargetDataVectorSize
		if end > len(keys) {
			end = len(keys)
		}
		n := m.mem.allocRaw(0)
		n.chunk.ReserveKeys(end-off, keys[off], keys[end-1])
		for i := off; i < end; i++ {
			var v *V
			if vals != nil {
				v = &vals[i]
			}
			n.data().Insert(keys[i], m.cellOf(v))
		}
		prev.next.Store(n)
		prev = n
		if cfg.LayerCount == 1 {
			// Degenerate configuration: the data layer is the top layer,
			// so non-head nodes must be orphans (the shape splits produce).
			n.markOrphanPrivate()
		} else {
			refs = append(refs, childRef[V]{min: keys[off], node: n})
		}
	}
	prev.next.Store(tail)

	// Build index layers bottom-up: one entry per child node, T_I entries
	// per index node, until the top configured layer absorbs the rest. With
	// T_I = 1 (the un-chunked USL/SL emulation) one entry per node would
	// repeat every entry in every layer and leave a top layer as long as the
	// data layer, so the fan-out falls back to 2, the same p = 1/2 that
	// randomHeight uses for that configuration.
	fanout := max(cfg.TargetIndexVectorSize, 2)
	for level := 1; level < cfg.LayerCount; level++ {
		lhead := m.heads[level]
		ltail := lhead.next.Load()
		lprev := lhead
		var parents []childRef[V]
		isTop := level == cfg.LayerCount-1
		for off := 0; off < len(refs); off += fanout {
			end := off + fanout
			if end > len(refs) {
				end = len(refs)
			}
			n := m.mem.allocRaw(level)
			n.chunk.ReserveKeys(end-off, refs[off].min, refs[end-1].min)
			for i := off; i < end; i++ {
				n.index().Insert(refs[i].min, refs[i].node)
			}
			lprev.next.Store(n)
			lprev = n
			if isTop {
				// Top-layer rule: non-head nodes must be orphans.
				n.markOrphanPrivate()
			} else {
				parents = append(parents, childRef[V]{min: refs[off].min, node: n})
			}
		}
		lprev.next.Store(ltail)
		if isTop {
			break
		}
		refs = parents
		if len(refs) == 0 {
			break
		}
	}

	m.length.add(0, int64(len(keys)))
	return m, nil
}
