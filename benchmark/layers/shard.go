package layers

import (
	"fmt"
	"time"

	"skipvector/internal/core"
	"skipvector/internal/shard"
)

// ShardMap drives shard.Sharded[uint64] the way ShardedMap does: point ops
// and batches through a pinned Handle, ranges on the router, cursors as a
// second pinned handle stepping by Ceiling.
type ShardMap struct {
	s        *shard.Sharded[uint64]
	keySpace int64
}

func OpenShard(keySpace int64, shards int) (*ShardMap, error) {
	s, err := shard.New[uint64](core.DefaultConfig(), shard.EvenBounds(0, keySpace, shards))
	if err != nil {
		return nil, err
	}
	return &ShardMap{s: s, keySpace: keySpace}, nil
}

func (m *ShardMap) Ascend(fn func(k int64, v uint64) bool) {
	m.s.Ascend(func(k int64, v *uint64) bool { return fn(k, *v) })
}
func (m *ShardMap) Len() int               { return m.s.Len() }
func (m *ShardMap) CheckInvariants() error { return m.s.CheckInvariants() }
func (m *ShardMap) Close() error           { return nil }
func (m *ShardMap) Metrics() fmt.Stringer  { return m.s.Metrics() }

func (m *ShardMap) SplitHot(median func(lo, hi int64) int64) error {
	i := m.s.ShardFor(0)
	lo, hi := int64(-1), m.keySpace
	if b := m.s.Bounds(); i < len(b) {
		hi = b[i]
	}
	_, err := m.s.SplitShard(i, median(lo, hi))
	return err
}

func (m *ShardMap) MergeHot() error {
	_, err := m.s.MergeShards(m.s.ShardFor(0))
	return err
}

func (m *ShardMap) Session() *ShardSession { return &ShardSession{s: m.s, h: m.s.NewHandle()} }

type ShardSession struct {
	s   *shard.Sharded[uint64]
	h   *shard.Handle[uint64]
	ops []core.BatchOp[uint64]
}

func (s *ShardSession) Close() { s.h.Close() }

func (s *ShardSession) Lookup(k int64) (uint64, bool) {
	p, ok := s.h.Lookup(k)
	_, v, ok := deref(k, p, ok)
	return v, ok
}

func (s *ShardSession) Floor(k int64) (int64, uint64, bool)   { return deref(s.h.Floor(k)) }
func (s *ShardSession) Ceiling(k int64) (int64, uint64, bool) { return deref(s.h.Ceiling(k)) }

func (s *ShardSession) Insert(k int64, v uint64) (bool, error) { return s.h.Insert(k, &v), nil }
func (s *ShardSession) Upsert(k int64, v uint64) (bool, error) { return s.h.Upsert(k, &v), nil }
func (s *ShardSession) Remove(k int64) (bool, error)           { return s.h.Remove(k), nil }

func (s *ShardSession) UpsertBatch(keys []int64, vals []uint64, inserted []bool) error {
	s.ops = s.ops[:0]
	for i, k := range keys {
		v := vals[i]
		s.ops = append(s.ops, core.BatchOp[uint64]{Key: k, Val: &v})
	}
	for i, r := range s.h.ApplyBatch(s.ops) {
		inserted[i] = r.Outcome == core.BatchInserted
	}
	return nil
}

func (s *ShardSession) RangeQuery(lo, hi int64, fn func(k int64, v uint64) bool) {
	s.s.RangeQuery(lo, hi, func(k int64, v *uint64) bool { return fn(k, *v) })
}

func (s *ShardSession) CursorWalk(start int64, steps int, fn func(k int64, v uint64) bool) {
	h := s.s.NewHandle()
	defer h.Close()
	for i := 0; i < steps; i++ {
		k, v, ok := deref(h.Ceiling(start))
		if !ok || !fn(k, v) {
			return
		}
		start = k + 1
	}
}

// RouteKernel times the router alone: ShardFor on every key of the stream,
// against a boundary table of the given shape. It returns ns per call.
func RouteKernel(keySpace int64, shards int, keys []int64) (float64, error) {
	m, err := OpenShard(keySpace, shards)
	if err != nil {
		return 0, err
	}
	sink := 0
	t0 := time.Now()
	for _, k := range keys {
		sink += m.s.ShardFor(k)
	}
	ns := perCall(t0, len(keys))
	kernelSink += sink
	return ns, nil
}

// kernelSink keeps the kernels' results alive so the calls are not removed.
var kernelSink int
