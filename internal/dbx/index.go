package dbx

import (
	"skipvector/internal/core"
)

// svIndex adapts a skip vector configuration as a primary index. Row IDs
// are stored directly as values.
type svIndex struct {
	name string
	m    *core.Map[RowID]
}

var _ Index = (*svIndex)(nil)

// newSVIndex builds an index over a skip vector with the given chunking.
func newSVIndex(name string, rows int64, targetData, targetIndex int) *svIndex {
	cfg := core.DefaultConfig()
	cfg.TargetDataVectorSize = targetData
	cfg.TargetIndexVectorSize = targetIndex
	cfg.Reclaim = core.ReclaimHazard
	// Size the layer count for the expected row count.
	cfg.LayerCount = 2
	base := float64(targetIndex)
	if base < 2 {
		base = 2
	}
	for nodes := float64(rows) / float64(targetData); nodes > base &&
		cfg.LayerCount < core.MaxLayers; cfg.LayerCount++ {
		nodes /= base
	}
	m, err := core.NewMap[RowID](cfg)
	if err != nil {
		panic("dbx: " + err.Error())
	}
	return &svIndex{name: name, m: m}
}

// NewSkipVectorIndex is the paper's "SV-HP" index: chunked data and index
// layers with hazard-pointer reclamation.
func NewSkipVectorIndex(rows int64) Index {
	return newSVIndex("SV-HP", rows, 32, 32)
}

// NewUnrolledIndex is the "USL-HP" comparator: chunked data layer only.
func NewUnrolledIndex(rows int64) Index {
	return newSVIndex("USL-HP", rows, 32, 1)
}

// NewSkipListIndex is the "SL-HP" comparator: no chunking at all.
func NewSkipListIndex(rows int64) Index {
	return newSVIndex("SL-HP", rows, 1, 1)
}

// Insert implements Index.
func (ix *svIndex) Insert(key int64, rid RowID) bool {
	r := rid
	return ix.m.Insert(key, &r)
}

// Lookup implements Index.
func (ix *svIndex) Lookup(key int64) (RowID, bool) {
	p, ok := ix.m.Lookup(key)
	if !ok {
		return 0, false
	}
	return *p, true
}

// Scan implements Index via the skip vector's linearizable range query.
func (ix *svIndex) Scan(start int64, fn func(key int64, rid RowID) bool) {
	ix.m.RangeQuery(start, core.MaxKey-1, func(k int64, p *RowID) bool {
		return fn(k, *p)
	})
}

// Name implements Index.
func (ix *svIndex) Name() string { return ix.name }

// BulkLoad implements BulkLoader by replacing the inner map with a bulk-
// built one. It must be called before the index is shared across
// goroutines (i.e., during table load).
func (ix *svIndex) BulkLoad(keys []int64, rids []RowID) error {
	cfg := ix.m.Config()
	m, err := core.BulkLoad(cfg, keys, rids)
	if err != nil {
		return err
	}
	ix.m = m
	return nil
}
