package core

import (
	"math/rand"
	"testing"
	"unsafe"
)

// TestNodeLayout pins the one-chunk node: the whole struct is the 48-byte
// size class on 64-bit platforms (at most 48 bytes on 32-bit ones), and
// everything a traversal hop reads ends by byte 36. A chunk's keys and
// payloads are one block allocation beside it. A second chunk header, a
// field slipped in ahead of the chunk or level, a chunk header wider than 16
// bytes, or storage that takes a second allocation fails here.
func TestNodeLayout(t *testing.T) {
	var n node[uint64]
	want := uintptr(48)
	if sz := unsafe.Sizeof(n); sz != want && (unsafe.Sizeof(uintptr(0)) == 8 || sz > want) {
		t.Errorf("unsafe.Sizeof(node[uint64]{}) = %d, want 48 on 64-bit, ≤ 48 on 32-bit", sz)
	}
	if end := unsafe.Offsetof(n.level) + unsafe.Sizeof(n.level); end > 36 {
		t.Errorf("level ends at byte %d, want ≤ 36 (lock, next, chunk, level lead the struct)", end)
	}
	if a, b := unsafe.Sizeof(n), unsafe.Sizeof(node[[4]uint64]{}); a != b {
		t.Errorf("node size depends on V: %d vs %d", a, b)
	}
	allocs := testing.AllocsPerRun(100, func() {
		n.chunk.Init(32, false)
		n.chunk.ReserveKeys(40, 0, 0)
	})
	if allocs != 1 {
		t.Errorf("a chunk with room for 40 keys took %v allocations, want 1", allocs)
	}
}

// TestRecycledNodeKeepsClass churns a tiny-chunk hazard-mode map so that data
// and index nodes are retired and reused constantly, and checks the invariant
// node.data() rests on: a node never changes class across lifetimes. Each
// round records the class of every node it can see (live in a layer, or
// parked on a freelist) against the class it was first seen with; at the end
// every node allocRaw hands out for a class was last seen in that class.
func TestRecycledNodeKeepsClass(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TargetDataVectorSize = 2
	cfg.TargetIndexVectorSize = 2
	cfg.LayerCount = 5
	m := newTestMap(t, cfg)

	wasIndex := map[*node[int64]]bool{}
	see := func(n *node[int64], index bool, where string) {
		t.Helper()
		if was, ok := wasIndex[n]; ok && was != index {
			t.Fatalf("%s: node %p changed class (was index=%t, now index=%t)", where, n, was, index)
		}
		wasIndex[n] = index
	}
	observe := func() {
		t.Helper()
		for l, head := range m.heads {
			for n := head; n != nil; n = n.next.Load() {
				see(n, l > 0, "live")
			}
		}
		m.mem.mu.Lock()
		defer m.mem.mu.Unlock()
		for _, n := range m.mem.freeData {
			if n.isIndex() {
				t.Fatalf("freeData holds a level-%d node", n.level)
			}
			see(n, false, "freeData")
		}
		for _, n := range m.mem.freeIndex {
			if !n.isIndex() {
				t.Fatal("freeIndex holds a level-0 node")
			}
			see(n, true, "freeIndex")
		}
	}

	rng := rand.New(rand.NewSource(21))
	const keys = 512
	for round := 0; round < 40; round++ {
		for i := 0; i < 400; i++ {
			k := int64(rng.Intn(keys) + 1)
			if rng.Intn(2) == 0 {
				m.Insert(k, &k)
			} else {
				m.Remove(k)
			}
		}
		m.FlushRetired()
		observe()
	}
	mustCheck(t, m)
	st := m.Stats()
	if st.Reuses == 0 {
		t.Fatal("churn recycled no node; the test exercised nothing")
	}

	// Drain both freelists through the allocator.
	for _, level := range []int{0, 3} {
		for {
			before := m.mem.reuses.Load()
			n := m.mem.allocRaw(level)
			if m.mem.reuses.Load() == before {
				break // freelist empty: n is fresh
			}
			was, seen := wasIndex[n]
			if !seen {
				t.Fatalf("allocRaw(%d) reused a node no round observed", level)
			}
			if was != (level > 0) {
				t.Fatalf("allocRaw(%d) handed out a node last seen with index=%t", level, was)
			}
		}
	}
}
