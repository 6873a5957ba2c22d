// Package bench is the throughput harness behind every figure in the
// paper's evaluation (Section V): it prefills a structure with half the key
// range, runs a fixed-duration timed trial with G worker goroutines drawing
// operations from a mix, and reports ops/second, averaged over repetitions.
package bench

import (
	"skipvector/internal/core"
	"skipvector/internal/skiplist"
)

// IntMap is the uniform adapter interface the harness drives: an ordered map
// from int64 keys to uint64 values (the paper benchmarks 64-bit keys with
// 64-bit pointer values).
type IntMap interface {
	Insert(k int64, v uint64) bool
	Lookup(k int64) (uint64, bool)
	Remove(k int64) bool
	Len() int
}

// RangeMap extends IntMap with a linearizable mutating range operation, used
// by the Figure 8 workload.
type RangeMap interface {
	IntMap
	// RangeUpdate applies fn to every value in [lo,hi] atomically and
	// returns the number of keys visited.
	RangeUpdate(lo, hi int64, fn func(k int64, v uint64) uint64) int
}

// Session is a single-goroutine view of an IntMap. Sessions carry
// per-goroutine state — for the skip vector, the pinned search finger — and
// must be Closed when the worker finishes.
type Session interface {
	IntMap
	Close()
}

// Sessioner is implemented by adapters whose structure supports pinned
// per-goroutine sessions. The trial runner gives each worker its own session
// when available, so locality optimizations that live in per-handle state are
// actually exercised under concurrency.
type Sessioner interface {
	NewSession() Session
}

// svMap adapts core.Map to IntMap/RangeMap.
type svMap struct {
	m *core.Map[uint64]
}

// NewSkipVector builds a skip vector adapter with the given configuration.
func NewSkipVector(cfg core.Config) IntMap {
	m, err := core.NewMap[uint64](cfg)
	if err != nil {
		panic("bench: " + err.Error())
	}
	return &svMap{m: m}
}

var (
	_ IntMap   = (*svMap)(nil)
	_ RangeMap = (*svMap)(nil)
)

func (s *svMap) Insert(k int64, v uint64) bool { return s.m.Insert(k, &v) }

func (s *svMap) Lookup(k int64) (uint64, bool) {
	p, ok := s.m.Lookup(k)
	if !ok {
		return 0, false
	}
	return *p, true
}

func (s *svMap) Remove(k int64) bool { return s.m.Remove(k) }

func (s *svMap) Len() int { return s.m.Len() }

func (s *svMap) RangeUpdate(lo, hi int64, fn func(k int64, v uint64) uint64) int {
	return s.m.RangeUpdate(lo, hi, func(k int64, v *uint64) *uint64 {
		nv := fn(k, *v)
		return &nv
	})
}

// Stats exposes the underlying skip vector counters (for ablation output).
func (s *svMap) Stats() core.StatsSnapshot { return s.m.Stats() }

var _ Sessioner = (*svMap)(nil)

// NewSession pins a per-worker handle (and with it a search finger).
func (s *svMap) NewSession() Session {
	return &svSession{owner: s, h: s.m.NewHandle()}
}

// svSession is a worker-pinned view of a skip vector.
type svSession struct {
	owner *svMap
	h     *core.Handle[uint64]
}

func (ss *svSession) Insert(k int64, v uint64) bool { return ss.h.Insert(k, &v) }

func (ss *svSession) Lookup(k int64) (uint64, bool) {
	p, ok := ss.h.Lookup(k)
	if !ok {
		return 0, false
	}
	return *p, true
}

func (ss *svSession) Remove(k int64) bool { return ss.h.Remove(k) }

func (ss *svSession) Len() int { return ss.owner.Len() }

func (ss *svSession) Close() { ss.h.Close() }

// fslMap adapts the lock-free skip list baseline.
type fslMap struct {
	l *skiplist.List[uint64]
}

// NewFSL builds the Fraser-style lock-free skip list adapter.
func NewFSL() IntMap { return &fslMap{l: skiplist.New[uint64]()} }

var _ IntMap = (*fslMap)(nil)

func (f *fslMap) Insert(k int64, v uint64) bool { return f.l.Insert(k, &v) }

func (f *fslMap) Lookup(k int64) (uint64, bool) {
	p, ok := f.l.Lookup(k)
	if !ok {
		return 0, false
	}
	return *p, true
}

func (f *fslMap) Remove(k int64) bool { return f.l.Remove(k) }

func (f *fslMap) Len() int { return f.l.Len() }
