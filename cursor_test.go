package skipvector

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// TestCursorSessionLifecycle verifies the cursor's pinned session: it is
// acquired lazily on the first Next, released automatically when the scan
// exhausts, released by Close mid-scan (idempotently), and re-acquired when
// a closed cursor is revived with SeekTo.
func TestCursorSessionLifecycle(t *testing.T) {
	m := New[int]()
	for k := int64(0); k < 30; k++ {
		m.Insert(k, int(k))
	}
	c := m.Cursor(0)
	if c.h.s != nil {
		t.Fatal("session pinned before first Next")
	}
	if k, _, ok := c.Next(); !ok || k != 0 {
		t.Fatalf("first = %d,%t", k, ok)
	}
	if c.h.s == nil {
		t.Fatal("first Next did not pin a session")
	}
	// Close mid-scan releases the session; a second Close is a no-op.
	c.Close()
	c.Close()
	if c.h.s != nil {
		t.Fatal("Close left the session pinned")
	}
	if _, _, ok := c.Next(); ok {
		t.Fatal("closed cursor yielded a key")
	}
	// SeekTo revives the cursor and Next re-pins a session.
	c.SeekTo(10)
	if k, _, ok := c.Next(); !ok || k != 10 {
		t.Fatalf("after revive = %d,%t", k, ok)
	}
	if c.h.s == nil {
		t.Fatal("revived cursor did not re-pin a session")
	}
	// Exhausting the scan auto-releases the session.
	for {
		if _, _, ok := c.Next(); !ok {
			break
		}
	}
	if c.h.s != nil {
		t.Fatal("exhausted cursor kept its session")
	}
}

// TestCursorScanUsesFinger confirms a sequential scan actually rides the
// search finger: after the first step, each Next should resume at the chunk
// the previous step finished on.
func TestCursorScanUsesFinger(t *testing.T) {
	m := New[int64]()
	const n = 3000
	for k := int64(0); k < n; k++ {
		m.Insert(k, k)
	}
	before := m.Stats()
	c := m.Cursor(0)
	count := 0
	for {
		if _, _, ok := c.Next(); !ok {
			break
		}
		count++
	}
	if count != n {
		t.Fatalf("scanned %d keys, want %d", count, n)
	}
	st := m.Stats()
	hits := st.FingerHits - before.FingerHits
	misses := st.FingerMisses - before.FingerMisses
	if hits+misses == 0 {
		t.Fatal("scan recorded no finger activity")
	}
	if rate := float64(hits) / float64(hits+misses); rate < 0.5 {
		t.Fatalf("scan finger hit rate %.2f (hits=%d misses=%d)", rate, hits, misses)
	}
}

// TestSnapshotCursorSeededReplay is the cursor-over-snapshot campaign: a
// seeded 10k-op tape mutates the map while snapshots pinned at known points
// carry exact model copies. Each snapshot's cursor — stepped lazily,
// interleaved with ongoing live churn and split/merge/orphan maintenance —
// must reproduce its pinned model exactly, key by key, value by value.
func TestSnapshotCursorSeededReplay(t *testing.T) {
	const (
		seed     = 0xC0FFEE
		ops      = 10_000
		keySpace = 2048
	)
	m := New[int64](WithTargetDataVectorSize(4), WithLayerCount(5))
	ref := map[int64]int64{}
	rng := rand.New(rand.NewSource(seed))

	type pinned struct {
		c     *SnapshotCursor[int64]
		s     *Snapshot[int64]
		model []int64 // interleaved key,value pairs, ascending by key
		at    int     // replay position (in pairs)
	}
	var pins []pinned

	takePin := func() {
		s := m.Snapshot()
		keys := make([]int64, 0, len(ref))
		for k := range ref {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		model := make([]int64, 0, 2*len(keys))
		for _, k := range keys {
			model = append(model, k, ref[k])
		}
		pins = append(pins, pinned{c: s.Cursor(MinKey + 1), s: s, model: model})
	}

	stepPins := func(steps int) {
		for i := range pins {
			p := &pins[i]
			for n := 0; n < steps && p.c != nil; n++ {
				k, v, ok := p.c.Next()
				if !ok {
					if p.at != len(p.model)/2 {
						t.Fatalf("pin %d: cursor exhausted after %d of %d pairs",
							i, p.at, len(p.model)/2)
					}
					p.s.Close()
					p.c = nil
					break
				}
				if p.at >= len(p.model)/2 {
					t.Fatalf("pin %d: cursor produced extra pair (%d,%d)", i, k, v)
				}
				if wk, wv := p.model[2*p.at], p.model[2*p.at+1]; k != wk || v != wv {
					t.Fatalf("pin %d: pair %d: got (%d,%d), want (%d,%d)", i, p.at, k, v, wk, wv)
				}
				p.at++
			}
		}
	}

	for i := 0; i < ops; i++ {
		k := int64(rng.Intn(keySpace))
		switch rng.Intn(6) {
		case 0, 1:
			v := int64(i)
			if m.Insert(k, v) {
				ref[k] = v
			}
		case 2:
			m.Upsert(k, int64(-i))
			ref[k] = int64(-i)
		case 3:
			m.Remove(k)
			delete(ref, k)
		case 4:
			hi := k + int64(rng.Intn(64))
			m.RangeUpdate(k, hi, func(_ int64, v int64) int64 { return v + 1 })
			for rk := range ref {
				if rk >= k && rk <= hi {
					ref[rk]++
				}
			}
		default:
			v, ok := m.Lookup(k)
			want, had := ref[k]
			if ok != had || (ok && v != want) {
				t.Fatalf("op %d: Lookup(%d) diverged from model", i, k)
			}
		}
		if i%1000 == 999 && len(pins) < 8 {
			takePin()
		}
		if i%37 == 0 {
			stepPins(3) // lazy stepping, interleaved with churn
		}
	}
	// Drain every remaining cursor to exhaustion.
	stepPins(2 * keySpace)
	for i := range pins {
		if pins[i].c != nil {
			t.Fatalf("pin %d: cursor still unfinished after full drain", i)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestCursorUnderConcurrentChurn verifies a cursor makes monotone progress
// and only ever reports stable keys while churn happens around it.
func TestCursorUnderConcurrentChurn(t *testing.T) {
	m := New[int64]()
	const stableStep = 10
	for k := int64(0); k <= 5000; k += stableStep {
		m.Insert(k, k)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30000; i++ {
			k := int64(i%5000) + 1
			if k%stableStep == 0 {
				k++
			}
			if i%2 == 0 {
				m.Insert(k, k)
			} else {
				m.Remove(k)
			}
		}
		close(stop)
	}()
	c := m.Cursor(0)
	prev := int64(-1)
	n := 0
	for {
		k, v, ok := c.Next()
		if !ok {
			c.SeekTo(0)
			prev = -1
			select {
			case <-stop:
				wg.Wait()
				if n == 0 {
					t.Fatal("cursor never scanned anything")
				}
				return
			default:
				continue
			}
		}
		if k <= prev {
			t.Fatalf("cursor went backwards: %d after %d", k, prev)
		}
		if v != k {
			t.Fatalf("corrupt value %d at %d", v, k)
		}
		prev = k
		n++
	}
}

func TestCursorSkipsRemovedSeesAhead(t *testing.T) {
	m := New[int]()
	for k := int64(0); k < 10; k++ {
		m.Insert(k, 0)
	}
	c := m.Cursor(0)
	k, _, _ := c.Next() // 0
	if k != 0 {
		t.Fatalf("first = %d", k)
	}
	m.Remove(1)
	m.Remove(2)
	m.Insert(100, 0) // ahead of the cursor
	var rest []int64
	for {
		k, _, ok := c.Next()
		if !ok {
			break
		}
		rest = append(rest, k)
	}
	want := []int64{3, 4, 5, 6, 7, 8, 9, 100}
	if len(rest) != len(want) {
		t.Fatalf("rest = %v", rest)
	}
	for i := range want {
		if rest[i] != want[i] {
			t.Fatalf("rest = %v, want %v", rest, want)
		}
	}
}
