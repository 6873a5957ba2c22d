// Package svset provides a concurrent sorted set of int64 keys backed by
// the skip vector — the set interface the paper's microbenchmarks drive
// (80/10/10 contains/insert/remove over a key range). It is a thin facade
// over skipvector.Map with empty values, so every performance and
// linearizability property of the map carries over.
package svset

import (
	"skipvector"
)

// Option re-exports skip vector tuning options.
type Option = skipvector.Option

// Set is a concurrent sorted set. All methods are safe for concurrent use.
// Construct with New.
type Set struct {
	m *skipvector.Map[struct{}]
}

// New builds an empty set; options tune the underlying skip vector.
func New(opts ...Option) *Set {
	return &Set{m: skipvector.New[struct{}](opts...)}
}

// Insert adds k, returning false if it was already present.
func (s *Set) Insert(k int64) bool { return s.m.Insert(k, struct{}{}) }

// InsertBatch adds every key in ks and returns how many were newly
// inserted. Keys that land close together in one data chunk commit under a
// single lock acquisition (see skipvector.Map.ApplyBatch for the exact
// unit), so sorted or clustered inputs are substantially cheaper than an
// Insert loop. Duplicate keys in ks count once.
func (s *Set) InsertBatch(ks []int64) int {
	ops := make([]skipvector.BatchOp[struct{}], len(ks))
	for i, k := range ks {
		ops[i] = skipvector.BatchOp[struct{}]{Key: k, InsertOnly: true}
	}
	n := 0
	for _, r := range s.m.ApplyBatch(ops) {
		if r.Outcome == skipvector.BatchInserted {
			n++
		}
	}
	return n
}

// Remove deletes k, returning false if it was absent.
func (s *Set) Remove(k int64) bool { return s.m.Remove(k) }

// RemoveBatch deletes every key in ks and returns how many were present.
// Like InsertBatch, chunk-local runs commit under one lock acquisition.
func (s *Set) RemoveBatch(ks []int64) int {
	ops := make([]skipvector.BatchOp[struct{}], len(ks))
	for i, k := range ks {
		ops[i] = skipvector.BatchOp[struct{}]{Key: k, Delete: true}
	}
	n := 0
	for _, r := range s.m.ApplyBatch(ops) {
		if r.Outcome == skipvector.BatchRemoved {
			n++
		}
	}
	return n
}

// Contains reports membership of k.
func (s *Set) Contains(k int64) bool { return s.m.Contains(k) }

// Len returns the number of elements.
func (s *Set) Len() int { return s.m.Len() }

// Min returns the smallest element (ok=false when empty).
func (s *Set) Min() (int64, bool) {
	k, _, ok := s.m.Min()
	return k, ok
}

// Max returns the largest element (ok=false when empty).
func (s *Set) Max() (int64, bool) {
	k, _, ok := s.m.Max()
	return k, ok
}

// Floor returns the largest element ≤ k (ok=false when none).
func (s *Set) Floor(k int64) (int64, bool) {
	fk, _, ok := s.m.Floor(k)
	return fk, ok
}

// Ceiling returns the smallest element ≥ k (ok=false when none).
func (s *Set) Ceiling(k int64) (int64, bool) {
	ck, _, ok := s.m.Ceiling(k)
	return ck, ok
}

// Range calls fn for every element in [lo,hi] in ascending order as one
// linearizable operation; fn returning false stops early.
func (s *Set) Range(lo, hi int64, fn func(k int64) bool) {
	s.m.RangeQuery(lo, hi, func(k int64, _ struct{}) bool { return fn(k) })
}

// Ascend iterates all elements in ascending order.
func (s *Set) Ascend(fn func(k int64) bool) {
	s.m.Ascend(func(k int64, _ struct{}) bool { return fn(k) })
}

// Elements returns every element in ascending order (quiescent use).
func (s *Set) Elements() []int64 { return s.m.Keys() }

// Snapshot pins the set's current membership and returns an immutable view
// of it. Acquisition is O(1) copy-on-write; scans over the snapshot never
// restart and never block concurrent mutators. Close the snapshot when done.
func (s *Set) Snapshot() *Snapshot {
	return &Snapshot{s: s.m.Snapshot()}
}

// Snapshot is an immutable point-in-time view of a Set. Safe for concurrent
// use; using it after Close panics.
type Snapshot struct {
	s *skipvector.Snapshot[struct{}]
}

// Close releases the snapshot's pin. Idempotent.
func (s *Snapshot) Close() { s.s.Close() }

// Contains reports membership of k at the snapshot's point in time.
func (s *Snapshot) Contains(k int64) bool { return s.s.Contains(k) }

// Len counts the snapshot's elements with a full scan.
func (s *Snapshot) Len() int { return s.s.Len() }

// Range calls fn for every element in [lo,hi] at the snapshot's point in
// time, in ascending order; fn returning false stops early.
func (s *Snapshot) Range(lo, hi int64, fn func(k int64) bool) {
	s.s.Range(lo, hi, func(k int64, _ struct{}) bool { return fn(k) })
}

// Ascend iterates the snapshot's elements in ascending order.
func (s *Snapshot) Ascend(fn func(k int64) bool) {
	s.s.Ascend(func(k int64, _ struct{}) bool { return fn(k) })
}

// Elements returns the snapshot's elements in ascending order.
func (s *Snapshot) Elements() []int64 {
	var ks []int64
	s.Ascend(func(k int64) bool { ks = append(ks, k); return true })
	return ks
}
