package skipvector_test

import (
	"testing"

	sv "skipvector"
)

// TestSessionWorkBudgets holds the point reads and writes of a Handle, and
// a Cursor's step, to zero heap allocations on both map types that have
// sessions. The handle passes values to its session by pointer; a pointer
// to a by-value argument passed through that call would escape and cost one
// allocation per call.
func TestSessionWorkBudgets(t *testing.T) {
	const keys = 1 << 12 // even keys present, odd keys absent
	type session interface {
		Lookup(k int64) (uint64, bool)
		Floor(k int64) (int64, uint64, bool)
		Ceiling(k int64) (int64, uint64, bool)
		Upsert(k int64, v uint64) bool
		Remove(k int64) bool
		Close()
	}
	type cursor interface {
		Next() (int64, uint64, bool)
		Close()
	}
	m := sv.New[uint64]()
	s := sv.NewSharded[uint64](sv.EvenShardBounds(0, 2*keys, 4))
	for k := int64(0); k < 2*keys; k += 2 {
		m.Insert(k, uint64(k))
		s.Insert(k, uint64(k))
	}
	for _, mt := range []struct {
		name   string
		h      session
		cursor func() cursor
	}{
		{"Map", m.NewHandle(), func() cursor { return m.Cursor(0) }},
		{"ShardedMap", s.NewHandle(), func() cursor { return s.Cursor(0) }},
	} {
		i := int64(0)
		perOp := func(op func(k int64)) float64 {
			return testing.AllocsPerRun(1000, func() {
				i = (i + 7) % (2 * keys)
				op(i)
			})
		}
		c := mt.cursor()
		for _, row := range []struct {
			name string
			got  float64
		}{
			{"Handle.Lookup", perOp(func(k int64) { mt.h.Lookup(k) })},
			{"Handle.Floor", perOp(func(k int64) { mt.h.Floor(k) })},
			{"Handle.Ceiling", perOp(func(k int64) { mt.h.Ceiling(k) })},
			{"Handle.Upsert of a present key", perOp(func(k int64) { mt.h.Upsert(k&^1, uint64(k)) })},
			{"Handle.Remove of an absent key", perOp(func(k int64) { mt.h.Remove(k | 1) })},
			{"Cursor.Next", testing.AllocsPerRun(1000, func() { c.Next() })},
		} {
			if row.got != 0 {
				t.Errorf("%s: allocs per %s = %v, budget 0", mt.name, row.name, row.got)
			}
		}
		c.Close()
		mt.h.Close()
	}
}
