package core_test

import (
	"math/rand"
	"runtime"
	"testing"

	"skipvector"
	"skipvector/internal/core"
)

// Work budgets: the cost of the default configuration as executable
// inequalities. One single-threaded, seeded build of n = 2^16 keys in
// shuffled order, then counts that do not depend on the clock: heap bytes
// per key, heap allocations per operation, restarts. A budget is set just
// above what the code measures, so work that creeps back in fails a test
// instead of waiting for a benchmark session.

const budgetKeys = 1 << 16

// heapBytesPerKeyBudget is 1 B/key above the 34.87 B/key measured here on
// amd64 with occupancy-sized chunk blocks (64 B node, boxed uint64 values).
// Fixed 2×T_D chunk arrays in a 96 B node measured 51.44 and fail it.
const heapBytesPerKeyBudget = 35.87

// freshInsertAllocsBudget is the value box plus the amortised share of the
// chunk blocks and nodes that ascending inserts allocate: 1.20 measured.
const freshInsertAllocsBudget = 1.25

// raceEnabled is set by race_test.go. The race detector's allocator pads an
// 8-byte value box to 16, so the heap budget is only checked without it.
var raceEnabled bool

func shuffledKeys(seed int64) []int64 {
	keys := make([]int64, budgetKeys)
	for i := range keys {
		keys[i] = int64(i) * 2 // even keys present, odd keys absent
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(keys), func(i, j int) {
		keys[i], keys[j] = keys[j], keys[i]
	})
	return keys
}

// insertsPerRun is how many fresh keys one measured run inserts, so that
// testing.AllocsPerRun, which rounds down to whole allocations per run,
// resolves the amortised block and node allocations to 1/insertsPerRun.
const insertsPerRun = 100

func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func TestWorkBudgets(t *testing.T) {
	keys := shuffledKeys(1)

	before := heapAlloc()
	m, err := core.NewMap[uint64](core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		v := uint64(k) // one box per value, as skipvector.Map.Insert makes
		if !m.Insert(k, &v) {
			t.Fatalf("Insert(%d) of a fresh key failed", k)
		}
	}
	heapPerKey := float64(heapAlloc()-before) / budgetKeys

	h := m.NewHandle()
	defer h.Close()
	i := 0
	nextKey := func() int64 { // present and absent keys alternate
		i++
		return keys[i%budgetKeys] + int64(i&1)
	}
	perOp := func(op func(k int64)) float64 {
		return testing.AllocsPerRun(1000, func() { op(nextKey()) })
	}

	facade := skipvector.New[uint64]()
	fresh := int64(0)

	type budget struct {
		name   string
		got    float64
		budget float64
	}
	budgets := []budget{
		{"allocs per Handle.Lookup", perOp(func(k int64) { h.Lookup(k) }), 0},
		{"allocs per Handle.Contains", perOp(func(k int64) { h.Contains(k) }), 0},
		{"allocs per Handle.Floor", perOp(func(k int64) { h.Floor(k) }), 0},
		{"allocs per Handle.Ceiling", perOp(func(k int64) { h.Ceiling(k) }), 0},
		{"allocs per facade Insert of a fresh key", testing.AllocsPerRun(40, func() {
			for range insertsPerRun {
				fresh++
				facade.Insert(fresh, uint64(fresh))
			}
		}) / insertsPerRun, freshInsertAllocsBudget},
		{"restarts", float64(m.Stats().Restarts), 0},
	}
	if !raceEnabled {
		budgets = append(budgets, budget{"heap bytes per key", heapPerKey, heapBytesPerKeyBudget})
	}
	for _, b := range budgets {
		if b.got > b.budget {
			t.Errorf("%s = %.2f, budget %.2f", b.name, b.got, b.budget)
		} else {
			t.Logf("%s = %.2f (budget %.2f)", b.name, b.got, b.budget)
		}
	}
	runtime.KeepAlive(m)
}
