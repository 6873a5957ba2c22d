package bench

import (
	"fmt"
	"runtime"
)

// MemoryFootprint measures live bytes per element for each variant after a
// half-full prefill at the given key range — the quantitative face of the
// paper's memory observations (Section V-A: the competitors ran out of
// memory at 2^31 keys while the skip vector completed up to 2^35; chunking
// amortizes per-node overheads across T elements).
//
// The measurement forces a full GC before and after construction and reads
// HeapAlloc, so it reflects live structure size, not allocation churn. Each
// variant built on core.Map (SV, USL, SL) also gets a "walked" column: the
// bytes its layers hold, counted exactly by Occupancy (nodes at their struct
// size, blocks at their size class). The heap delta holds everything the
// walk counts and more, so a heap cell below its walked bytes is marked: that
// heap delta missed part of the structure.
func MemoryFootprint(keyRangeExps []int, seed uint64) *Table {
	variants := append(ScalabilityVariants(), SLHP)
	var cols []string
	heapCol := make([]int, len(variants))
	for i, v := range variants {
		heapCol[i] = len(cols)
		cols = append(cols, v.Name)
		if _, ok := v.New(2).(*svMap); ok {
			cols = append(cols, v.Name+" walked")
		}
	}
	t := NewTable("Memory: live bytes per element after half-range prefill", "key-bits", cols)
	t.Note = "* heap delta below the walked bytes"
	// The process's one-time allocations (the chunk blocks' shape cache,
	// registries) would be charged to the first structure of each kind
	// measured; a throwaway build of each at the smallest range makes them
	// first.
	if len(keyRangeExps) > 0 {
		for _, v := range variants {
			bytesPerElement(v, Pow2(keyRangeExps[0]), seed)
		}
	}
	for _, exp := range keyRangeExps {
		keyRange := Pow2(exp)
		row := make([]float64, len(cols))
		var marks []int
		for i, v := range variants {
			heap, walked, ok := bytesPerElement(v, keyRange, seed)
			row[heapCol[i]] = heap
			if ok {
				row[heapCol[i]+1] = walked
				if heap < walked {
					marks = append(marks, heapCol[i])
				}
			}
		}
		t.AddRow(fmt.Sprintf("2^%d", exp), row)
		for _, c := range marks {
			t.Mark(len(t.XValues)-1, c)
		}
	}
	return t
}

// bytesPerElement builds one structure and reports its live heap cost per
// contained element and, for a variant built on core.Map (ok), the bytes per
// element its layers hold.
func bytesPerElement(v Variant, keyRange int64, seed uint64) (heap, walked float64, ok bool) {
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	m := v.New(keyRange)
	Prefill(m, keyRange, seed, 1)

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	n := m.Len()
	if n == 0 {
		return 0, 0, false
	}
	delta := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	if delta < 0 {
		delta = 0
	}
	if sv, isSV := m.(*svMap); isSV {
		occ := sv.m.Occupancy()
		walked, ok = float64(occ.NodeBytes+occ.DataBytes+occ.IndexBytes)/float64(n), true
	}
	runtime.KeepAlive(m)
	return delta / float64(n), walked, ok
}

// MemoryChurnGarbage measures the bounded-garbage property: after a heavy
// insert/remove churn, how many retired-but-unreclaimed nodes remain for
// the HP variant (bounded) versus how much extra heap the Leak variant has
// accumulated. Returns (hpRetiredNodes, hpHeapMB, leakHeapMB).
func MemoryChurnGarbage(keyRange int64, churnOps int, seed uint64) (int64, float64, float64) {
	measure := func(v Variant) (int64, float64) {
		runtime.GC()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		m := v.New(keyRange)
		// Churn: repeatedly fill and drain a window so nodes retire.
		for i := 0; i < churnOps; i++ {
			k := int64(i) % keyRange
			m.Insert(k, uint64(k))
			m.Remove(k)
		}
		runtime.GC()
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		var retired int64
		if sv, ok := m.(*svMap); ok {
			retired = sv.Stats().Retired
		}
		heapMB := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / (1 << 20)
		if heapMB < 0 {
			heapMB = 0
		}
		runtime.KeepAlive(m)
		return retired, heapMB
	}
	retired, hpMB := measure(SVHP)
	_, leakMB := measure(SVLeak)
	return retired, hpMB, leakMB
}
