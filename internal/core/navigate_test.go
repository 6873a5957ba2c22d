package core

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func TestFloorCeilingBasic(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, cfg Config) {
		m := newTestMap(t, cfg)
		for _, k := range []int64{10, 20, 30, 40} {
			m.Insert(k, v64(k*10))
		}
		cases := []struct {
			q                    int64
			floorK, ceilK        int64
			floorOK, ceilOK      bool
			floorVal, ceilVal    int64
			checkFloor, checkVal bool
		}{
			{q: 5, floorOK: false, ceilK: 10, ceilOK: true, ceilVal: 100},
			{q: 10, floorK: 10, floorOK: true, floorVal: 100, ceilK: 10, ceilOK: true, ceilVal: 100},
			{q: 15, floorK: 10, floorOK: true, floorVal: 100, ceilK: 20, ceilOK: true, ceilVal: 200},
			{q: 40, floorK: 40, floorOK: true, floorVal: 400, ceilK: 40, ceilOK: true, ceilVal: 400},
			{q: 45, floorK: 40, floorOK: true, floorVal: 400, ceilOK: false},
		}
		for _, tc := range cases {
			fk, fv, fok := m.Floor(tc.q)
			if fok != tc.floorOK || (fok && (fk != tc.floorK || *fv != tc.floorVal)) {
				t.Fatalf("Floor(%d) = %d,%t", tc.q, fk, fok)
			}
			ck, cv, cok := m.Ceiling(tc.q)
			if cok != tc.ceilOK || (cok && (ck != tc.ceilK || *cv != tc.ceilVal)) {
				t.Fatalf("Ceiling(%d) = %d,%t", tc.q, ck, cok)
			}
		}
	})
}

// TestFirstLast reads the smallest and largest keys the way the facades'
// Min and Max do: Ceiling and Floor at the sentinels.
func TestFirstLast(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, cfg Config) {
		m := newTestMap(t, cfg)
		if _, _, ok := m.Ceiling(MinKey + 1); ok {
			t.Fatal("Ceiling(MinKey+1) on empty map")
		}
		if _, _, ok := m.Floor(MaxKey - 1); ok {
			t.Fatal("Floor(MaxKey-1) on empty map")
		}
		for _, k := range []int64{50, -3, 17, 99, 0} {
			m.Insert(k, v64(k))
		}
		if k, _, ok := m.Ceiling(MinKey + 1); !ok || k != -3 {
			t.Fatalf("Ceiling(MinKey+1) = %d,%t", k, ok)
		}
		if k, _, ok := m.Floor(MaxKey - 1); !ok || k != 99 {
			t.Fatalf("Floor(MaxKey-1) = %d,%t", k, ok)
		}
	})
}

func TestFloorCeilingAcrossEmptyOrphans(t *testing.T) {
	// Force orphan creation between keys, then navigate across the gaps.
	cfg := testConfigs()["tiny-chunks"]
	m := newTestMap(t, cfg)
	for k := int64(0); k < 200; k += 2 {
		m.Insert(k, v64(k))
	}
	for k := int64(50); k < 150; k += 2 {
		m.Remove(k)
	}
	mustCheck(t, m)
	if fk, _, ok := m.Floor(149); !ok || fk != 48 {
		t.Fatalf("Floor(149) = %d,%t, want 48", fk, ok)
	}
	if ck, _, ok := m.Ceiling(51); !ok || ck != 150 {
		t.Fatalf("Ceiling(51) = %d,%t, want 150", ck, ok)
	}
}

// TestFloorCeilingModel cross-checks against a sorted slice oracle under a
// random workload.
func TestFloorCeilingModel(t *testing.T) {
	cfg := testConfigs()["tiny-chunks"]
	m := newTestMap(t, cfg)
	present := map[int64]bool{}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 3000; i++ {
		k := int64(rng.Intn(400))
		switch rng.Intn(4) {
		case 0:
			if m.Insert(k, v64(k)) {
				present[k] = true
			}
		case 1:
			if m.Remove(k) {
				delete(present, k)
			}
		default:
			keys := make([]int64, 0, len(present))
			for pk := range present {
				keys = append(keys, pk)
			}
			sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
			q := int64(rng.Intn(420)) - 10
			// Oracle floor/ceiling.
			var wantF, wantC int64
			haveF, haveC := false, false
			for _, pk := range keys {
				if pk <= q {
					wantF, haveF = pk, true
				}
				if pk >= q && !haveC {
					wantC, haveC = pk, true
				}
			}
			gotF, _, okF := m.Floor(q)
			if okF != haveF || (okF && gotF != wantF) {
				t.Fatalf("op %d: Floor(%d) = %d,%t want %d,%t", i, q, gotF, okF, wantF, haveF)
			}
			gotC, _, okC := m.Ceiling(q)
			if okC != haveC || (okC && gotC != wantC) {
				t.Fatalf("op %d: Ceiling(%d) = %d,%t want %d,%t", i, q, gotC, okC, wantC, haveC)
			}
		}
	}
	mustCheck(t, m)
}

// TestNavigateConcurrent verifies floor/ceiling results stay within the set
// of keys that were ever present, while mutators churn.
func TestNavigateConcurrent(t *testing.T) {
	cfg := testConfigs()["tiny-chunks"]
	m := newTestMap(t, cfg)
	const stableStep = 10
	// Stable keys at multiples of 10 are never removed.
	for k := int64(0); k <= 1000; k += stableStep {
		m.Insert(k, v64(k))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 6000; i++ {
			k := int64(rng.Intn(1000))
			if k%stableStep == 0 {
				k++
			}
			if rng.Intn(2) == 0 {
				m.Insert(k, v64(k))
			} else {
				m.Remove(k)
			}
		}
		close(stop)
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := int64(rng.Intn(1000))
				// The floor can never be farther than stableStep-1 below q,
				// because stable multiples of 10 are always present.
				if fk, _, ok := m.Floor(q); !ok || q-fk >= stableStep {
					t.Errorf("Floor(%d) = %d,%t violates stable-key bound", q, fk, ok)
					return
				}
				if ck, _, ok := m.Ceiling(q); !ok || ck-q >= stableStep {
					t.Errorf("Ceiling(%d) = %d,%t violates stable-key bound", q, ck, ok)
					return
				}
			}
		}(int64(r) + 21)
	}
	wg.Wait()
	mustCheck(t, m)
}
