package core

import (
	"testing"
	"unsafe"
)

// TestInlineEligibility pins which value types a map stores inline in its
// data cells and which it boxes, and that the data chunks a map builds
// match the choice.
func TestInlineEligibility(t *testing.T) {
	type pair struct{ a, b uint32 }
	type withPtr struct {
		n int32
		p *int
	}
	for _, tc := range []struct {
		name   string
		inline bool
		build  func() (inline, words bool)
	}{
		{"uint64", true, eligibility[uint64]},
		{"int64", true, eligibility[int64]},
		{"float64", true, eligibility[float64]},
		{"int32", true, eligibility[int32]},
		{"bool", true, eligibility[bool]},
		{"struct{a, b uint32}", true, eligibility[pair]},
		{"struct{}", true, eligibility[struct{}]},
		{"string", false, eligibility[string]},
		{"*int", false, eligibility[*int]},
		{"[2]uint64", false, eligibility[[2]uint64]},
		{"unsafe.Pointer", false, eligibility[unsafe.Pointer]},
		{"struct holding a pointer", false, eligibility[withPtr]},
	} {
		inline, words := tc.build()
		if inline != tc.inline || words != tc.inline {
			t.Errorf("%s: inline=%t, data chunks word-celled=%t, want %t", tc.name, inline, words, tc.inline)
		}
	}
}

// eligibility builds a map of V and reports its choice, and whether every
// data chunk is word-celled: sentinels and a node made by an insert alike.
func eligibility[V any]() (inline, words bool) {
	m, err := NewMap[V](DefaultConfig())
	if err != nil {
		panic(err)
	}
	var v V
	m.Insert(1, &v)
	words = true
	for n := m.heads[0]; n != nil; n = n.next.Load() {
		words = words && n.chunk.Words()
	}
	return m.inline, words
}
