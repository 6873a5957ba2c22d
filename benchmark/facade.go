package main

import (
	"encoding/json"
	"fmt"
	"strings"

	"skipvector"
)

// session is one client thread's connection to a map under test; target is
// the map. The interfaces use built-in types only, so the adapters of the
// lower layers (benchmark/layers) satisfy them without sharing a package with
// this one, and the same runner, op list and oracle drive every layer.
type session interface {
	Lookup(k int64) (uint64, bool)
	Floor(k int64) (int64, uint64, bool)
	Ceiling(k int64) (int64, uint64, bool)
	Insert(k int64, v uint64) (bool, error)
	Upsert(k int64, v uint64) (bool, error)
	Remove(k int64) (bool, error)
	// UpsertBatch is one ApplyBatch of upserts; inserted[i] reports whether
	// keys[i] was new.
	UpsertBatch(keys []int64, vals []uint64, inserted []bool) error
	RangeQuery(lo, hi int64, fn func(k int64, v uint64) bool)
	// CursorWalk opens a cursor at start and calls Next up to steps times.
	CursorWalk(start int64, steps int, fn func(k int64, v uint64) bool)
	Close()
}

type target interface {
	Session() session
	Ascend(fn func(k int64, v uint64) bool)
	Len() int
	CheckInvariants() error
	// Counters returns the target's metric catalog by series name.
	Counters() map[string]float64
	Close() error
}

// Admin calls that exist on one kind of target only; the runner skips an
// admin op its target does not have.
type compacter interface{ Compact() error }

type resharder interface {
	// SplitHot splits the shard that owns key 0 at median(lo, hi) of its
	// interval; MergeHot merges that shard with its right neighbour.
	SplitHot(median func(lo, hi int64) int64) error
	MergeHot() error
}

// counters decodes a metrics view (its expvar JSON form) into scalars;
// histograms contribute name_count and name_sum.
func counters(view fmt.Stringer) map[string]float64 {
	var raw map[string]json.RawMessage
	out := map[string]float64{}
	if err := json.Unmarshal([]byte(view.String()), &raw); err != nil {
		return out
	}
	for name, msg := range raw {
		var f float64
		if json.Unmarshal(msg, &f) == nil {
			out[name] = f
			continue
		}
		var h struct{ Count, Sum float64 }
		if json.Unmarshal(msg, &h) == nil {
			out[name+"_count"], out[name+"_sum"] = h.Count, h.Sum
		}
	}
	return out
}

// batchBuf turns the runner's key and value slices into the facade's batch
// request without allocating per call.
type batchBuf[V any] struct{ ops []skipvector.BatchOp[V] }

func (b *batchBuf[V]) fill(keys []int64, val func(i int) V) []skipvector.BatchOp[V] {
	b.ops = b.ops[:0]
	for i, k := range keys {
		b.ops = append(b.ops, skipvector.BatchOp[V]{Key: k, Val: val(i)})
	}
	return b.ops
}

// walk steps a facade cursor up to steps times and closes it.
func walk[V any](c interface {
	Next() (int64, V, bool)
	Close()
}, steps int, fn func(k int64, v V) bool) {
	defer c.Close()
	for i := 0; i < steps; i++ {
		k, v, ok := c.Next()
		if !ok || !fn(k, v) {
			return
		}
	}
}

func insertedOf(res []skipvector.BatchResult, inserted []bool) {
	for i := range res {
		inserted[i] = res[i].Outcome == skipvector.BatchInserted
	}
}

// ---- skipvector.Map ----

type plainMap struct{ m *skipvector.Map[uint64] }

func openPlain() *plainMap { return &plainMap{m: skipvector.New[uint64]()} }

func (p *plainMap) Session() session                       { return &plainSession{m: p.m, h: p.m.NewHandle()} }
func (p *plainMap) Ascend(fn func(k int64, v uint64) bool) { p.m.Ascend(fn) }
func (p *plainMap) Len() int                               { return p.m.Len() }
func (p *plainMap) CheckInvariants() error                 { return p.m.CheckInvariants() }
func (p *plainMap) Counters() map[string]float64           { return counters(p.m.Metrics()) }
func (p *plainMap) Close() error                           { return nil }

// plainSession is a NewHandle session; RangeQuery and Cursor are methods of
// the map, not of the handle.
type plainSession struct {
	m   *skipvector.Map[uint64]
	h   *skipvector.Handle[uint64]
	buf batchBuf[uint64]
}

func (s *plainSession) Lookup(k int64) (uint64, bool)          { return s.h.Lookup(k) }
func (s *plainSession) Floor(k int64) (int64, uint64, bool)    { return s.h.Floor(k) }
func (s *plainSession) Ceiling(k int64) (int64, uint64, bool)  { return s.h.Ceiling(k) }
func (s *plainSession) Insert(k int64, v uint64) (bool, error) { return s.h.Insert(k, v), nil }
func (s *plainSession) Upsert(k int64, v uint64) (bool, error) { return s.h.Upsert(k, v), nil }
func (s *plainSession) Remove(k int64) (bool, error)           { return s.h.Remove(k), nil }
func (s *plainSession) Close()                                 { s.h.Close() }

func (s *plainSession) UpsertBatch(keys []int64, vals []uint64, inserted []bool) error {
	insertedOf(s.h.ApplyBatch(s.buf.fill(keys, func(i int) uint64 { return vals[i] })), inserted)
	return nil
}

func (s *plainSession) RangeQuery(lo, hi int64, fn func(k int64, v uint64) bool) {
	s.m.RangeQuery(lo, hi, fn)
}

func (s *plainSession) CursorWalk(start int64, steps int, fn func(k int64, v uint64) bool) {
	walk(s.m.Cursor(start), steps, fn)
}

// ---- skipvector.DurableMap ----

// durableMap has no handles: every thread calls the map itself. Values are
// int64 on the map and uint64 in the benchmark; the conversion is free.
type durableMap struct {
	m   *skipvector.DurableMap[int64]
	dir string
}

func openDurable(dir string) (*durableMap, error) {
	m, err := skipvector.OpenDurable[int64](dir, skipvector.Int64Codec(),
		skipvector.WithSyncPolicy(skipvector.SyncInterval))
	if err != nil {
		return nil, err
	}
	return &durableMap{m: m, dir: dir}, nil
}

func (d *durableMap) Session() session { return &durableSession{m: d.m} }
func (d *durableMap) Ascend(fn func(k int64, v uint64) bool) {
	d.m.Ascend(func(k int64, v int64) bool { return fn(k, uint64(v)) })
}
func (d *durableMap) Len() int                     { return d.m.Len() }
func (d *durableMap) CheckInvariants() error       { return d.m.CheckInvariants() }
func (d *durableMap) Counters() map[string]float64 { return counters(d.m.Metrics()) }
func (d *durableMap) Compact() error               { return d.m.Compact() }

// Close makes everything acknowledged durable, then closes the log.
func (d *durableMap) Close() error {
	if err := d.m.Sync(); err != nil {
		return err
	}
	return d.m.Close()
}

type durableSession struct {
	m   *skipvector.DurableMap[int64]
	buf batchBuf[int64]
}

func (s *durableSession) Lookup(k int64) (uint64, bool) {
	v, ok := s.m.Lookup(k)
	return uint64(v), ok
}
func (s *durableSession) Floor(k int64) (int64, uint64, bool) {
	rk, v, ok := s.m.Floor(k)
	return rk, uint64(v), ok
}
func (s *durableSession) Ceiling(k int64) (int64, uint64, bool) {
	rk, v, ok := s.m.Ceiling(k)
	return rk, uint64(v), ok
}
func (s *durableSession) Insert(k int64, v uint64) (bool, error) { return s.m.Insert(k, int64(v)) }
func (s *durableSession) Upsert(k int64, v uint64) (bool, error) { return s.m.Upsert(k, int64(v)) }
func (s *durableSession) Remove(k int64) (bool, error)           { return s.m.Remove(k) }
func (s *durableSession) Close()                                 {}

func (s *durableSession) UpsertBatch(keys []int64, vals []uint64, inserted []bool) error {
	res, err := s.m.ApplyBatch(s.buf.fill(keys, func(i int) int64 { return int64(vals[i]) }))
	insertedOf(res, inserted)
	return err
}

func (s *durableSession) RangeQuery(lo, hi int64, fn func(k int64, v uint64) bool) {
	s.m.RangeQuery(lo, hi, func(k int64, v int64) bool { return fn(k, uint64(v)) })
}

func (s *durableSession) CursorWalk(start int64, steps int, fn func(k int64, v uint64) bool) {
	walk(s.m.Cursor(start), steps, func(k int64, v int64) bool { return fn(k, uint64(v)) })
}

// ---- skipvector.ShardedMap ----

const initialShards = 4

type shardedMap struct {
	m *skipvector.ShardedMap[uint64]
}

func openSharded() *shardedMap {
	return &shardedMap{m: skipvector.NewSharded[uint64](skipvector.EvenShardBounds(0, keySpace, initialShards))}
}

func (p *shardedMap) Session() session                       { return &shardedSession{m: p.m, h: p.m.NewHandle()} }
func (p *shardedMap) Ascend(fn func(k int64, v uint64) bool) { p.m.Ascend(fn) }
func (p *shardedMap) Len() int                               { return p.m.Len() }
func (p *shardedMap) CheckInvariants() error                 { return p.m.CheckInvariants() }
func (p *shardedMap) Close() error                           { return nil }

// Counters sums the per-shard series (name{shard="i"}, or for a histogram
// name{shard="i"}_count) under the unlabeled name, and adds each shard's
// routed-op count as shard_ops{i}.
func (p *shardedMap) Counters() map[string]float64 {
	out := map[string]float64{}
	for name, v := range counters(p.m.Metrics()) {
		if i, j := strings.IndexByte(name, '{'), strings.IndexByte(name, '}'); i >= 0 && j > i {
			name = name[:i] + name[j+1:]
		}
		out[name] += v
	}
	for i, st := range p.m.ShardLoadStats() {
		out[fmt.Sprintf("shard_ops{%d}", i)] = float64(st.Ops)
	}
	return out
}

func (p *shardedMap) SplitHot(median func(lo, hi int64) int64) error {
	i := p.m.ShardFor(0)
	lo, hi := int64(-1), int64(keySpace)
	if b := p.m.ShardBounds(); i < len(b) {
		hi = b[i]
	}
	_, err := p.m.SplitShard(i, median(lo, hi))
	return err
}

func (p *shardedMap) MergeHot() error {
	_, err := p.m.MergeShards(p.m.ShardFor(0))
	return err
}

type shardedSession struct {
	m   *skipvector.ShardedMap[uint64]
	h   *skipvector.ShardedHandle[uint64]
	buf batchBuf[uint64]
}

func (s *shardedSession) Lookup(k int64) (uint64, bool)          { return s.h.Lookup(k) }
func (s *shardedSession) Floor(k int64) (int64, uint64, bool)    { return s.h.Floor(k) }
func (s *shardedSession) Ceiling(k int64) (int64, uint64, bool)  { return s.h.Ceiling(k) }
func (s *shardedSession) Insert(k int64, v uint64) (bool, error) { return s.h.Insert(k, v), nil }
func (s *shardedSession) Upsert(k int64, v uint64) (bool, error) { return s.h.Upsert(k, v), nil }
func (s *shardedSession) Remove(k int64) (bool, error)           { return s.h.Remove(k), nil }
func (s *shardedSession) Close()                                 { s.h.Close() }

func (s *shardedSession) UpsertBatch(keys []int64, vals []uint64, inserted []bool) error {
	insertedOf(s.h.ApplyBatch(s.buf.fill(keys, func(i int) uint64 { return vals[i] })), inserted)
	return nil
}

func (s *shardedSession) RangeQuery(lo, hi int64, fn func(k int64, v uint64) bool) {
	s.m.RangeQuery(lo, hi, fn)
}

func (s *shardedSession) CursorWalk(start int64, steps int, fn func(k int64, v uint64) bool) {
	walk(s.m.Cursor(start), steps, fn)
}
