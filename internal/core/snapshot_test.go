package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"skipvector/internal/chaos"
	"skipvector/internal/lincheck"
)

// snapPairs materializes a snapshot's full content via Ascend.
func snapPairs(s *Snapshot[int64]) ([]int64, []int64) {
	var ks, vs []int64
	s.Ascend(func(k int64, v *int64) bool {
		ks = append(ks, k)
		vs = append(vs, *v)
		return true
	})
	return ks, vs
}

// modelPairs sorts a reference map into (keys, values) slices.
func modelPairs(ref map[int64]int64) ([]int64, []int64) {
	ks := make([]int64, 0, len(ref))
	for k := range ref {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	vs := make([]int64, len(ks))
	for i, k := range ks {
		vs[i] = ref[k]
	}
	return ks, vs
}

// mustEqualModel fails unless the snapshot's content equals the reference
// exactly — same keys, same values, ascending order — via Ascend, and agrees
// on point reads for every reference key.
func mustEqualModel(t *testing.T, s *Snapshot[int64], ref map[int64]int64, label string) {
	t.Helper()
	ks, vs := snapPairs(s)
	wantK, wantV := modelPairs(ref)
	if len(ks) != len(wantK) {
		t.Fatalf("%s: snapshot holds %d keys, model %d\n got %v\nwant %v", label, len(ks), len(wantK), ks, wantK)
	}
	for i := range ks {
		if ks[i] != wantK[i] || vs[i] != wantV[i] {
			t.Fatalf("%s: position %d: got (%d,%d), want (%d,%d)", label, i, ks[i], vs[i], wantK[i], wantV[i])
		}
	}
	for k, want := range ref {
		v, ok := s.Get(k)
		if !ok || *v != want {
			t.Fatalf("%s: Get(%d) = (%v,%t), want %d", label, k, v, ok, want)
		}
	}
}

// TestSnapshotBasicSemantics pins a view and proves post-pin writes of every
// kind — insert, remove, overwrite, range update, batch — are invisible to
// it while the live map moves on.
func TestSnapshotBasicSemantics(t *testing.T) {
	forAllConfigs(t, func(t *testing.T, cfg Config) {
		m := newTestMap(t, cfg)
		ref := map[int64]int64{}
		for k := int64(0); k < 300; k += 3 {
			m.Insert(k, v64(k*10))
			ref[k] = k * 10
		}

		s := m.Snapshot()
		defer s.Close()

		// Churn the live map in every way the API offers.
		for k := int64(1); k < 300; k += 3 {
			m.Insert(k, v64(-k)) // new keys
		}
		for k := int64(0); k < 150; k += 3 {
			m.Remove(k) // old keys gone
		}
		for k := int64(150); k < 300; k += 6 {
			m.Upsert(k, v64(777)) // old keys overwritten
		}
		m.RangeUpdate(200, 250, func(_ int64, v *int64) *int64 { return v64(*v + 1) })
		m.ApplyBatch([]BatchOp[int64]{
			{Key: 298, Del: true},
			{Key: 5000, Val: v64(1)},
		})

		mustEqualModel(t, s, ref, "pinned view after churn")

		// Absent-at-pin keys stay absent no matter what the live map holds.
		for _, k := range []int64{1, 299, 5000, 100000} {
			if s.Contains(k) {
				t.Fatalf("snapshot sees key %d inserted after the pin", k)
			}
		}
		if got := s.Len(); got != len(ref) {
			t.Fatalf("snapshot Len = %d, want %d", got, len(ref))
		}
		mustCheck(t, m)
	})
}

// TestSnapshotEmptyMap covers the degenerate pins: an empty map, and a map
// emptied after the pin.
func TestSnapshotEmptyMap(t *testing.T) {
	m := newTestMap(t, testConfigs()["tiny-chunks"])
	s := m.Snapshot()
	defer s.Close()
	if n := s.Len(); n != 0 {
		t.Fatalf("empty snapshot Len = %d", n)
	}
	if _, ok := s.Get(7); ok {
		t.Fatal("empty snapshot contains a key")
	}
	if _, _, ok := s.Cursor(MinKey + 1).Next(); ok {
		t.Fatal("empty snapshot cursor produced a pair")
	}

	for k := int64(0); k < 50; k++ {
		m.Insert(k, v64(k))
	}
	s2 := m.Snapshot()
	defer s2.Close()
	for k := int64(0); k < 50; k++ {
		m.Remove(k)
	}
	if m.Len() != 0 {
		t.Fatalf("live map should be empty, Len=%d", m.Len())
	}
	if got := s2.Len(); got != 50 {
		t.Fatalf("snapshot of emptied map Len = %d, want 50", got)
	}
	if n := s.Len(); n != 0 {
		t.Fatalf("first snapshot grew: Len = %d", n)
	}
}

// TestSnapshotOfBulkLoaded pins a bulk-loaded map (whose nodes carry epoch 0
// verbatim) and churns it.
func TestSnapshotOfBulkLoaded(t *testing.T) {
	const n = 2000
	keys := make([]int64, n)
	vals := make([]*int64, n)
	ref := map[int64]int64{}
	for i := range keys {
		keys[i] = int64(i * 2)
		vals[i] = v64(int64(i))
		ref[keys[i]] = int64(i)
	}
	m, err := BulkLoad(DefaultConfig(), keys, vals)
	if err != nil {
		t.Fatalf("BulkLoad: %v", err)
	}
	s := m.Snapshot()
	defer s.Close()
	for i := 0; i < n; i += 2 {
		m.Remove(keys[i])
		m.Insert(keys[i]+1, v64(-1))
	}
	mustEqualModel(t, s, ref, "bulk-loaded pin")
	mustCheck(t, m)
}

// TestSnapshotMultipleEpochs pins a sequence of snapshots between write
// waves: each must hold exactly its own era's state, epochs must be monotone,
// and closing them (out of order) must drain the version store.
func TestSnapshotMultipleEpochs(t *testing.T) {
	m := newTestMap(t, testConfigs()["tiny-chunks"])
	ref := map[int64]int64{}
	var snaps []*Snapshot[int64]
	var models []map[int64]int64
	rng := rand.New(rand.NewSource(41))

	for era := 0; era < 8; era++ {
		for i := 0; i < 120; i++ {
			k := int64(rng.Intn(400))
			if rng.Intn(3) == 0 {
				m.Remove(k)
				delete(ref, k)
			} else {
				v := int64(era*1000 + i)
				m.Upsert(k, &v)
				ref[k] = v
			}
		}
		snaps = append(snaps, m.Snapshot())
		cp := make(map[int64]int64, len(ref))
		for k, v := range ref {
			cp[k] = v
		}
		models = append(models, cp)
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Epoch() < snaps[i-1].Epoch() {
			t.Fatalf("epochs not monotone: %d then %d", snaps[i-1].Epoch(), snaps[i].Epoch())
		}
	}
	// Every era still reads its own state, interleaved with more churn.
	for i := 0; i < 300; i++ {
		m.Upsert(int64(rng.Intn(400)), v64(int64(-i)))
	}
	for i, s := range snaps {
		mustEqualModel(t, s, models[i], fmt.Sprintf("era %d", i))
	}
	// Close out of order; surviving snapshots must stay intact.
	order := rng.Perm(len(snaps))
	for _, i := range order {
		snaps[i].Close()
		for j, s := range snaps {
			if !s.Closed() {
				mustEqualModel(t, s, models[j], fmt.Sprintf("era %d after partial close", j))
			}
		}
	}
	if got := m.Stats().SnapshotRecords; got != 0 {
		t.Fatalf("version store holds %d records after all snapshots closed", got)
	}
	mustCheck(t, m)
}

// TestSnapshotCloseSemantics: Close is idempotent, use-after-close panics,
// and MarkLeaked counts exactly the never-closed snapshots.
func TestSnapshotCloseSemantics(t *testing.T) {
	m := newTestMap(t, DefaultConfig())
	m.Insert(1, v64(10))

	s := m.Snapshot()
	s.Close()
	s.Close() // idempotent
	st := m.Stats()
	if st.SnapshotsPinned != 1 || st.SnapshotsReleased != 1 || st.SnapshotsActive != 0 {
		t.Fatalf("after double close: pinned=%d released=%d active=%d",
			st.SnapshotsPinned, st.SnapshotsReleased, st.SnapshotsActive)
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Get on closed snapshot did not panic")
			}
		}()
		s.Get(1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Ascend on closed snapshot did not panic")
			}
		}()
		s.Ascend(func(int64, *int64) bool { return true })
	}()

	// A leaked snapshot is released and counted by MarkLeaked (the facade's
	// finalizer path); marking an already-closed one counts nothing.
	s2 := m.Snapshot()
	s2.MarkLeaked()
	s.MarkLeaked()
	st = m.Stats()
	if leaked := m.snaps.leaked.Load(); leaked != 1 {
		t.Fatalf("leaked counter = %d, want 1", leaked)
	}
	if st.SnapshotsReleased != 2 || st.SnapshotsActive != 0 {
		t.Fatalf("after leak release: released=%d active=%d", st.SnapshotsReleased, st.SnapshotsActive)
	}
}

// TestSnapshotStoreDropsItsArray: the last Close leaves the version store
// with no backing array, however many records the pins grew it to, so the
// store's peak is not kept for the life of the map.
func TestSnapshotStoreDropsItsArray(t *testing.T) {
	m := newTestMap(t, DefaultConfig())
	for k := int64(0); k < 4096; k++ {
		m.Insert(k, v64(k))
	}
	s1, s2 := m.Snapshot(), m.Snapshot()
	for k := int64(0); k < 4096; k += 3 {
		m.Remove(k)
		m.Insert(k+4096, v64(k))
	}
	if n := m.Stats().SnapshotRecords; n < 100 {
		t.Fatalf("pinned churn left %d records, want hundreds", n)
	}
	s1.Close()
	if len(m.vstore.recs) == 0 {
		t.Fatal("closing one of two pins at one epoch pruned its records")
	}
	s2.Close()
	if n := cap(m.vstore.recs); n != 0 {
		t.Fatalf("the version store keeps an array of %d records after the last Close", n)
	}
	mustCheck(t, m)
}

// TestSnapshotWalkerSkipsTheLivePreImage: a write between the walker's read
// of a node and its version-store query publishes, as a record visible at
// the pin, the very version the walker read live. The window skips that
// record and emits each key once, with its pinned value.
func TestSnapshotWalkerSkipsTheLivePreImage(t *testing.T) {
	m := newTestMap(t, DefaultConfig())
	for k := int64(1); k <= 200; k++ {
		m.Insert(k, v64(k))
	}
	s := m.Snapshot()
	defer s.Close()
	w := s.newWalker(1, MaxKey-1)
	for {
		w.readNode()
		if u, ok := w.live.MaxKey(); ok && u >= w.pos {
			break
		}
		w.n = w.next
	}
	u, _ := w.live.MaxKey()
	before := m.Stats().SnapshotCow
	m.Upsert(u, v64(-u))
	if m.Stats().SnapshotCow != before+1 {
		t.Fatal("the write published no pre-image")
	}
	w.emitWindow(u, &w.live)
	if int64(len(w.outK)) != u {
		t.Fatalf("the window emitted %d pairs, want keys 1 to %d once each", len(w.outK), u)
	}
	for i, k := range w.outK {
		var v int64
		m.load(w.outV[i], &v)
		if k != int64(i+1) || v != k {
			t.Fatalf("pair %d is %d → %d, want %d → %d", i, k, v, i+1, i+1)
		}
	}
}

// TestSnapshotCursorMidScanClose: a snapshot closed while one of its cursors
// is mid-scan must make the next cursor step panic rather than return data
// from a released version.
func TestSnapshotCursorMidScanClose(t *testing.T) {
	m := newTestMap(t, testConfigs()["tiny-chunks"])
	for k := int64(0); k < 100; k++ {
		m.Insert(k, v64(k))
	}
	s := m.Snapshot()
	c := s.Cursor(0)
	for i := 0; i < 10; i++ {
		if _, _, ok := c.Next(); !ok {
			t.Fatal("cursor exhausted early")
		}
	}
	s.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("cursor Next after snapshot Close did not panic")
		}
	}()
	c.Next()
}

// TestSnapshotSplitMergeChurn drives the pinned view through heavy
// structural churn on tiny chunks — splits on the way up, orphan merges and
// empty-chunk unlinks on the way down — and demands exactness throughout.
func TestSnapshotSplitMergeChurn(t *testing.T) {
	for _, name := range []string{"tiny-chunks", "sl", "leak"} {
		cfg := testConfigs()[name]
		t.Run(name, func(t *testing.T) {
			m := newTestMap(t, cfg)
			ref := map[int64]int64{}
			for k := int64(0); k < 256; k++ {
				m.Insert(k, v64(k))
				ref[k] = k
			}
			s := m.Snapshot()
			defer s.Close()

			// Down: remove everything, forcing merges and unlinks under the pin.
			for k := int64(0); k < 256; k++ {
				m.Remove(k)
			}
			// Sweep readers so lazy maintenance finishes its unlinking.
			for k := int64(0); k < 256; k += 16 {
				m.Contains(k)
			}
			mustEqualModel(t, s, ref, "after full drain")

			// Up again: double density, forcing splits of post-pin chunks.
			for k := int64(0); k < 512; k++ {
				m.Insert(k, v64(-k))
			}
			mustEqualModel(t, s, ref, "after regrow")
			mustCheck(t, m)
		})
	}
}

// TestSnapshotRangeAndCursor exercises windowed reads against a model:
// sub-windows, early stop, cursor-vs-Ascend agreement, cursor from offsets.
func TestSnapshotRangeAndCursor(t *testing.T) {
	m := newTestMap(t, testConfigs()["tiny-chunks"])
	ref := map[int64]int64{}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 400; i++ {
		k := int64(rng.Intn(1000))
		m.Upsert(k, v64(k*3))
		ref[k] = k * 3
	}
	s := m.Snapshot()
	defer s.Close()
	// Post-pin churn so the store, not just live chunks, answers.
	for i := 0; i < 400; i++ {
		k := int64(rng.Intn(1000))
		if rng.Intn(2) == 0 {
			m.Remove(k)
		} else {
			m.Upsert(k, v64(-1))
		}
	}

	wantK, wantV := modelPairs(ref)
	for trial := 0; trial < 50; trial++ {
		lo := int64(rng.Intn(1100)) - 50
		hi := lo + int64(rng.Intn(300))
		var gotK, gotV []int64
		s.Range(lo, hi, func(k int64, v *int64) bool {
			gotK = append(gotK, k)
			gotV = append(gotV, *v)
			return true
		})
		var expK, expV []int64
		for i, k := range wantK {
			if k >= lo && k <= hi {
				expK = append(expK, k)
				expV = append(expV, wantV[i])
			}
		}
		if fmt.Sprint(gotK, gotV) != fmt.Sprint(expK, expV) {
			t.Fatalf("Range[%d,%d]: got %v/%v, want %v/%v", lo, hi, gotK, gotV, expK, expV)
		}
	}

	// Early stop: exactly 5 pairs.
	count := 0
	s.Range(0, 999, func(int64, *int64) bool { count++; return count < 5 })
	if count != 5 {
		t.Fatalf("early stop visited %d pairs", count)
	}

	// Cursor from a mid-key offset must agree with the model's tail.
	start := wantK[len(wantK)/2]
	c := s.Cursor(start)
	i := len(wantK) / 2
	for {
		k, v, ok := c.Next()
		if !ok {
			break
		}
		if i >= len(wantK) || k != wantK[i] || *v != wantV[i] {
			t.Fatalf("cursor position %d: got (%d,%d)", i, k, *v)
		}
		i++
	}
	if i != len(wantK) {
		t.Fatalf("cursor stopped after %d of %d", i, len(wantK))
	}
}

// eachReclaimMode runs fn on tiny chunks under hazard reclamation and under
// leak mode, as subtests "hazard" and "leak". The snapshot walk's safety
// rests on a different mechanism in each: the recycle filter reading the
// retire epoch from a node's retire record, or the collector keeping every
// node a scan can reach.
func eachReclaimMode(t *testing.T, fn func(t *testing.T, cfg Config, hazard bool)) {
	for _, mode := range []struct {
		name    string
		reclaim ReclaimMode
	}{{"hazard", ReclaimHazard}, {"leak", ReclaimLeak}} {
		t.Run(mode.name, func(t *testing.T) {
			cfg := testConfigs()["tiny-chunks"]
			cfg.Reclaim = mode.reclaim
			fn(t, cfg, mode.reclaim == ReclaimHazard)
		})
	}
}

// TestSnapshotPinsRetiredChunks is the epoch-reclamation edge suite: retired
// data chunks must survive FlushRetired while any snapshot that can reach
// them is pinned — including when two snapshots pin the same retired chunk
// and only one closes — and must drain to zero once the last pin drops. In
// leak mode nothing is retired into a domain, so the Retired counts are
// hazard-only; the pinned snapshot must read its era in both modes.
func TestSnapshotPinsRetiredChunks(t *testing.T) {
	eachReclaimMode(t, func(t *testing.T, cfg Config, hazard bool) {
		m := newTestMap(t, cfg)
		ref := map[int64]int64{}
		for k := int64(0); k < 256; k++ {
			m.Insert(k, v64(k))
			ref[k] = k
		}
		m.FlushRetired()

		s1 := m.Snapshot()
		s2 := m.Snapshot() // same era: both pin the same soon-to-be-retired chunks

		// Drain the map: merges and unlinks retire nearly every data chunk.
		for k := int64(0); k < 256; k++ {
			m.Remove(k)
		}
		for k := int64(0); k < 256; k += 16 {
			m.Contains(k)
		}
		m.FlushRetired()
		if st := m.Stats(); hazard && st.Retired == 0 {
			t.Fatalf("no retired nodes pending under two pins; churn retired %d total", st.RetiredTotal)
		}

		// Close one pin: the other still holds the chunks and still reads them.
		s1.Close()
		m.FlushRetired()
		if st := m.Stats(); hazard && st.Retired == 0 {
			t.Fatal("retired chunks reclaimed while a second snapshot still pins them")
		}
		mustEqualModel(t, s2, ref, "second pin after first closed")

		// Last pin drops: everything must drain.
		s2.Close()
		m.FlushRetired()
		if st := m.Stats(); st.Retired != 0 {
			t.Fatalf("%d retired nodes pending after all snapshots closed (retired %d, reclaimed %d)",
				st.Retired, st.RetiredTotal, st.Reclaimed)
		}
		if got := m.Stats().SnapshotRecords; got != 0 {
			t.Fatalf("version store holds %d records after all pins dropped", got)
		}
		mustCheck(t, m)
	})
}

// TestSnapshotCursorOutlivesRecycling is the single-threaded, deterministic
// form of the release race: a snapshot cursor that stands on a data node
// holds no hazard pointer, so only the retire record's epoch tag keeps the
// node from being recycled under it. The cursor reads into the middle of
// the map; the keys around that point are removed, which unlinks and
// retires the node it stands on and the ones after it, while the nodes
// beyond keep their keys; FlushRetired runs the recycle filter over them,
// and fresh inserts far above take whatever nodes the free lists hold. The
// cursor must then finish its pinned era exactly: a node recycled since the
// pin would carry it into the new keys, past the unchanged nodes.
func TestSnapshotCursorOutlivesRecycling(t *testing.T) {
	eachReclaimMode(t, func(t *testing.T, cfg Config, hazard bool) {
		const n, read, kept = 256, 100, 160
		m := newTestMap(t, cfg)
		for k := int64(0); k < n; k++ {
			m.Insert(k, v64(k))
		}
		m.FlushRetired()
		s := m.Snapshot()
		c := s.Cursor(0)
		next := func(want int64) {
			t.Helper()
			k, v, ok := c.Next()
			if !ok || k != want || *v != want {
				t.Fatalf("cursor read %d → %v (ok %t), want %d → %d", k, v, ok, want, want)
			}
		}
		for k := int64(0); k < read; k++ {
			next(k)
		}
		for k := int64(read - 8); k < kept; k++ {
			m.Remove(k)
		}
		m.FlushRetired()
		if st := m.Stats(); hazard && st.Retired == 0 {
			t.Fatalf("no retired node held for the pinned cursor; %d retired in all", st.RetiredTotal)
		}
		for k := int64(4 * n); k < 8*n; k++ {
			m.Insert(k, v64(-k))
		}
		for k := int64(read); k < n; k++ {
			next(k)
		}
		if k, _, ok := c.Next(); ok {
			t.Fatalf("cursor read %d past its pinned era", k)
		}
		s.Close()
		m.FlushRetired()
		if st := m.Stats(); st.Retired != 0 {
			t.Fatalf("%d retired nodes pending after the snapshot closed", st.Retired)
		}
		mustCheck(t, m)
	})
}

// TestSnapshotReleaseRace closes snapshots at exactly the moment their last
// scan finishes, racing write churn whose threshold-driven reclamation
// scans run continuously, under the epoch-aware recycle filter (or, in
// leak mode, the collector). Every scan must still read its pinned era
// exactly; -race runs of this test are the memory-safety proof for the
// unprotected snapshot walk. (FlushRetired is a quiescence-only API, so
// reclamation pressure comes from the writers' own hazard scans: tiny
// chunks plus continuous remove churn retire nodes far past the scan
// threshold for the whole run.)
func TestSnapshotReleaseRace(t *testing.T) {
	eachReclaimMode(t, func(t *testing.T, cfg Config, _ bool) {
		m := newTestMap(t, cfg)
		const stable = 64
		for k := int64(0); k < stable; k++ {
			m.Insert(k, v64(k)) // class A: never touched, present in every era
		}

		var stop atomic.Bool
		var wg sync.WaitGroup
		// Writers churn a disjoint key region, retiring chunks continuously.
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w) + 5))
				for !stop.Load() {
					k := stable + int64(rng.Intn(256))
					if rng.Intn(2) == 0 {
						m.Insert(k, v64(k))
					} else {
						m.Remove(k)
					}
				}
			}(w)
		}
		// Scanners: pin, scan, close immediately — the release lands exactly
		// at scan-completion time, adjacent to the writers' concurrent
		// reclamation scans.
		scans := 0
		for scans < 300 {
			s := m.Snapshot()
			seen := 0
			prev := int64(MinKey)
			s.Ascend(func(k int64, v *int64) bool {
				if k <= prev {
					t.Errorf("scan not strictly ascending: %d after %d", k, prev)
				}
				prev = k
				if k < stable {
					seen++
					if *v != k {
						t.Errorf("class-A key %d carries value %d", k, *v)
					}
				}
				return true
			})
			s.Close()
			if seen != stable {
				stop.Store(true)
				wg.Wait()
				t.Fatalf("scan %d: saw %d of %d class-A keys", scans, seen, stable)
			}
			scans++
		}
		stop.Store(true)
		wg.Wait()
		m.FlushRetired()
		if st := m.Stats(); st.Retired != 0 {
			t.Fatalf("%d retired nodes pending at quiescence", st.Retired)
		}
		mustCheck(t, m)
	})
}

// TestSnapshotChaosWritersVsScanner is the headline stress: chaos-perturbed
// writers churn four key classes while scanners pin and iterate snapshots.
// Classes make the checks sharp without a lock-step model:
//
//	A — inserted before any pin, never touched: present in every snapshot.
//	B — inserted up front, then removed in strictly increasing order: any
//	    snapshot sees a suffix of the B sequence.
//	C — inserted during the run in strictly increasing order: any snapshot
//	    sees a prefix of the C sequence.
//	D — random churn: consistency only (ascending, duplicate-free, repeat
//	    iteration identical, point reads agree with the scan).
func TestSnapshotChaosWritersVsScanner(t *testing.T) {
	const (
		aBase, aN = 0, 80
		bBase, bN = 10_000, 200
		cBase, cN = 20_000, 200
		dBase, dN = 30_000, 160
	)
	cfgs := map[string]Config{
		"tiny-chunks": testConfigs()["tiny-chunks"],
		"default":     testConfigs()["default"],
		"leak":        testConfigs()["leak"],
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			m := newTestMap(t, cfg)
			for i := int64(0); i < aN; i++ {
				m.Insert(aBase+i, v64(aBase+i))
			}
			for i := int64(0); i < bN; i++ {
				m.Insert(bBase+i, v64(bBase+i))
			}

			scanRounds := 40
			if testing.Short() {
				scanRounds = 10
			}
			chaos.Enable(stressChaosConfig(uint64(0x54a9 + len(name))))
			var stop atomic.Bool
			var wg sync.WaitGroup

			// Long-lived pin across the whole run: its first observation must
			// still hold, bit for bit, at the end.
			long := m.Snapshot()
			longK, longV := snapPairs(long)

			wg.Add(1)
			go func() { // B remover, ascending
				defer wg.Done()
				for i := int64(0); i < bN && !stop.Load(); i++ {
					m.Remove(bBase + i)
				}
			}()
			wg.Add(1)
			go func() { // C inserter, ascending
				defer wg.Done()
				for i := int64(0); i < cN && !stop.Load(); i++ {
					m.Insert(cBase+i, v64(cBase+i))
				}
			}()
			for w := 0; w < 2; w++ { // D churners
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w) + 99))
					for !stop.Load() {
						k := dBase + int64(rng.Intn(dN))
						switch rng.Intn(3) {
						case 0:
							m.Insert(k, v64(int64(w)))
						case 1:
							m.Remove(k)
						default:
							m.Upsert(k, v64(int64(w)*1000))
						}
					}
				}(w)
			}

			check := func(round int) {
				s := m.Snapshot()
				defer s.Close()
				ks1, vs1 := snapPairs(s)
				// Repeat iteration must be identical: the view is immutable.
				ks2, vs2 := snapPairs(s)
				if fmt.Sprint(ks1, vs1) != fmt.Sprint(ks2, vs2) {
					t.Errorf("round %d: two iterations of one snapshot differ", round)
					return
				}
				seenA, minB, maxB, maxC := 0, int64(-1), int64(-1), int64(-1)
				nB, nC := int64(0), int64(0)
				prev := int64(MinKey)
				for i, k := range ks1 {
					if k <= prev {
						t.Errorf("round %d: keys not strictly ascending at %d", round, i)
						return
					}
					prev = k
					switch {
					case k < aN:
						seenA++
						if vs1[i] != k {
							t.Errorf("round %d: class-A key %d has value %d", round, k, vs1[i])
						}
					case k >= bBase && k < bBase+bN:
						if minB < 0 {
							minB = k
						}
						maxB = k
						nB++
					case k >= cBase && k < cBase+cN:
						maxC = k
						nC++
					}
				}
				if seenA != aN {
					t.Errorf("round %d: saw %d of %d class-A keys", round, seenA, aN)
				}
				// Suffix check: observed B keys are contiguous up to the top.
				if nB > 0 && (maxB != bBase+bN-1 || maxB-minB+1 != nB) {
					t.Errorf("round %d: B keys not a suffix: min=%d max=%d n=%d", round, minB, maxB, nB)
				}
				// Prefix check: observed C keys are contiguous from the base.
				if nC > 0 && maxC-cBase+1 != nC {
					t.Errorf("round %d: C keys not a prefix: max=%d n=%d", round, maxC, nC)
				}
				// Point reads agree with the scan on a sample, both ways.
				rng := rand.New(rand.NewSource(int64(round)))
				inScan := make(map[int64]int64, len(ks1))
				for i, k := range ks1 {
					inScan[k] = vs1[i]
				}
				for i := 0; i < 40; i++ {
					k := ks1[rng.Intn(len(ks1))]
					if v, ok := s.Get(k); !ok || *v != inScan[k] {
						t.Errorf("round %d: Get(%d) disagrees with scan", round, k)
					}
					probe := dBase + int64(rng.Intn(dN))
					v, ok := s.Get(probe)
					if want, scanned := inScan[probe]; ok != scanned || (ok && *v != want) {
						t.Errorf("round %d: Get(%d)=(%v,%t) but scan said (%d,%t)", round, probe, v, ok, want, scanned)
					}
				}
			}
			for round := 0; round < scanRounds && !t.Failed(); round++ {
				check(round)
			}
			stop.Store(true)
			wg.Wait()
			rep := chaos.Disable()
			t.Logf("%v", rep)
			if t.Failed() {
				return
			}
			if rep.Sites[chaos.CoreSnapshot].Fails == 0 {
				t.Fatalf("chaos never fired the core.snapshot site: %v", rep)
			}

			// The long pin read nothing from the future.
			gotK, gotV := snapPairs(long)
			if fmt.Sprint(gotK, gotV) != fmt.Sprint(longK, longV) {
				t.Fatal("long-lived snapshot drifted across the run")
			}
			long.Close()
			mustCheck(t, m)
		})
	}
}

// TestLinearizabilityWithSnapshots machine-checks the acquisition claim:
// the snapshot's interval covers ONLY Map.Snapshot(), yet its content —
// read at the very end of the proc, after more writes — must equal the
// model state at a linearization point inside that interval. Histories
// with torn or future-leaking snapshots are rejected by the checker
// (illegal-history self-tests live in the lincheck package).
func TestLinearizabilityWithSnapshots(t *testing.T) {
	cfgs := map[string]Config{
		"tiny-chunks": testConfigs()["tiny-chunks"],
		"default":     testConfigs()["default"],
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			const (
				rounds   = 60
				procs    = 3
				opsEach  = 4
				keySpace = 4
			)
			for round := 0; round < rounds; round++ {
				m := newTestMap(t, cfg)
				rec := lincheck.NewRecorder()
				var wg sync.WaitGroup
				for p := 0; p < procs; p++ {
					wg.Add(1)
					go func(p int, seed int64) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(seed))
						type pendingSnap struct {
							s        *Snapshot[int64]
							inv, ret int64
						}
						var pending []pendingSnap
						for i := 0; i < opsEach; i++ {
							k := int64(rng.Intn(keySpace))
							switch rng.Intn(5) {
							case 0, 1:
								v := int64(p*1000 + i)
								inv := rec.Begin()
								ok := m.Insert(k, &v)
								rec.End(lincheck.Event{Proc: p, Kind: lincheck.KindInsert, Key: k, Val: v, RetOK: ok}, inv)
							case 2:
								inv := rec.Begin()
								ok := m.Remove(k)
								rec.End(lincheck.Event{Proc: p, Kind: lincheck.KindRemove, Key: k, RetOK: ok}, inv)
							case 3:
								inv := rec.Begin()
								pv, ok := m.Lookup(k)
								var rv int64
								if ok {
									rv = *pv
								}
								rec.End(lincheck.Event{Proc: p, Kind: lincheck.KindLookup, Key: k, RetOK: ok, RetVal: rv}, inv)
							default:
								inv := rec.Begin()
								s := m.Snapshot()
								ret := rec.Now() // interval closes at acquisition
								pending = append(pending, pendingSnap{s, inv, ret})
							}
						}
						// Read the pinned views only now, after every later
						// write this proc issued.
						for _, ps := range pending {
							var pairs []lincheck.KV
							ps.s.Range(0, keySpace, func(qk int64, qv *int64) bool {
								pairs = append(pairs, lincheck.KV{K: qk, V: *qv})
								return true
							})
							ps.s.Close()
							rec.EndAt(lincheck.Event{
								Proc: p, Kind: lincheck.KindSnapshot,
								Key: 0, Hi: keySpace, Pairs: pairs,
							}, ps.inv, ps.ret)
						}
					}(p, int64(round*167+p))
				}
				wg.Wait()
				if ok, msg := lincheck.Check(rec.History()); !ok {
					t.Fatalf("round %d: %s\n%s", round, msg, m.Dump())
				}
				mustCheck(t, m)
			}
		})
	}
}

// snapDiffOps decodes a fuzz byte stream into a deterministic single-thread
// op sequence, mirroring each op on a reference map and pinning model copies
// at snapshot points. It is shared by the fuzz target and its seeded replay.
func snapDiffRun(t *testing.T, cfg Config, data []byte, keySpace int) {
	t.Helper()
	m := newTestMap(t, cfg)
	ref := map[int64]int64{}
	type pin struct {
		s     *Snapshot[int64]
		model map[int64]int64
	}
	var pins []pin
	verify := func() {
		for i, p := range pins {
			if p.s.Closed() {
				continue
			}
			mustEqualModel(t, p.s, p.model, fmt.Sprintf("pin %d", i))
		}
	}
	for i := 0; i+1 < len(data); i += 2 {
		k := int64(data[i]) % int64(keySpace)
		switch op := data[i+1] % 8; op {
		case 0, 1:
			v := int64(i)
			if m.Insert(k, &v) {
				ref[k] = v
			}
		case 2:
			m.Upsert(k, v64(int64(i)))
			ref[k] = int64(i)
		case 3:
			m.Remove(k)
			delete(ref, k)
		case 4:
			hi := k + int64(data[i]%32)
			n := m.RangeUpdate(k, hi, func(_ int64, v *int64) *int64 { return v64(*v + 1) })
			cnt := 0
			for rk := range ref {
				if rk >= k && rk <= hi {
					ref[rk]++
					cnt++
				}
			}
			if n != cnt {
				t.Fatalf("op %d: RangeUpdate visited %d, model %d", i, n, cnt)
			}
		case 5:
			cp := make(map[int64]int64, len(ref))
			for rk, rv := range ref {
				cp[rk] = rv
			}
			pins = append(pins, pin{m.Snapshot(), cp})
		case 6:
			if len(pins) > 0 {
				pins[int(data[i])%len(pins)].s.Close()
			}
		default:
			if v, ok := m.Lookup(k); ok != (func() bool { _, r := ref[k]; return r }()) ||
				(ok && *v != ref[k]) {
				t.Fatalf("op %d: Lookup(%d) diverged from model", i, k)
			}
		}
		if i%64 == 0 {
			verify()
		}
	}
	verify()
	for _, p := range pins {
		p.s.Close()
	}
	if got := m.Stats().SnapshotRecords; got != 0 {
		t.Fatalf("version store holds %d records after final close", got)
	}
	mustCheck(t, m)
}

// FuzzSnapshotDiff feeds random op tapes through snapDiffRun on tiny chunks,
// differentially checking every open snapshot against its pinned model copy.
func FuzzSnapshotDiff(f *testing.F) {
	f.Add([]byte{10, 0, 20, 0, 0, 5, 10, 3, 30, 0, 0, 5, 20, 3, 0, 6})
	f.Add([]byte{0, 0, 1, 0, 2, 0, 3, 0, 0, 5, 0, 3, 1, 3, 2, 3, 3, 3, 0, 5, 9, 4})
	f.Add([]byte{200, 2, 200, 5, 200, 3, 200, 2, 200, 5, 100, 6, 200, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip()
		}
		snapDiffRun(t, testConfigs()["tiny-chunks"], data, 64)
	})
}

// TestSnapshotDifferentialSeeded replays long pseudo-random tapes through the
// differential harness on several configs — the deterministic companion to
// FuzzSnapshotDiff that always runs in CI.
func TestSnapshotDifferentialSeeded(t *testing.T) {
	for _, name := range []string{"tiny-chunks", "default", "sl", "data-only"} {
		cfg := testConfigs()[name]
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(name)) * 1327))
			tape := make([]byte, 6000)
			if testing.Short() {
				tape = tape[:1500]
			}
			rng.Read(tape)
			snapDiffRun(t, cfg, tape, 96)
		})
	}
}

// TestSnapshotLastCloseRacingPreImagePush is the regression test for the
// version-store leak behind TestMetricInvariantsAfterChaosStress's flake: a
// writer that saw a pin in noteDataWrite, then lost the race with the last
// Close (count → 0, prune on a store that does not hold the record yet),
// must not leave its pre-image behind. The epoch advance is the writer's
// first step after it read the pin count, so the closer waits for it and
// releases inside the publication window; the chaos yield at CoreSnapshot
// holds that window open even on one processor.
func TestSnapshotLastCloseRacingPreImagePush(t *testing.T) {
	m := newTestMap(t, testConfigs()["default"])
	const keys = 32
	for k := int64(0); k < keys; k++ {
		m.Insert(k, v64(k))
	}
	chaos.Enable(chaos.Config{
		Seed: stressSeed(0x5ea1), YieldOneIn: 1, Sites: chaos.MaskOf(chaos.CoreSnapshot),
	})
	defer chaos.Disable()

	rounds := 4000
	if testing.Short() {
		rounds = 1000
	}
	start, done := make(chan int64), make(chan struct{})
	go func() {
		for k := range start {
			m.Upsert(k, v64(k))
			done <- struct{}{}
		}
	}()
	defer close(start)
	for i := 0; i < rounds; i++ {
		s := m.Snapshot()
		start <- int64(i % keys)
		for m.epoch.Load() == s.Epoch() {
			runtime.Gosched() // the writer has not read the pin count yet
		}
		s.Close()
		<-done
		if n := m.Stats().SnapshotRecords; n != 0 {
			t.Fatalf("round %d: version store holds %d records with no snapshot pinned", i, n)
		}
	}
	mustCheck(t, m)
}

// TestSnapshotNoEffectWritesPublishNothing pins the write kernel's snapshot
// rule: under a pinned snapshot, a write that changes nothing — a Remove of
// an absent key, an Insert of a present one, a batch made only of such ops —
// aborts before the copy-on-write hook and publishes no pre-image. An
// effective write publishes one.
func TestSnapshotNoEffectWritesPublishNothing(t *testing.T) {
	m := newTestMap(t, DefaultConfig())
	for k := int64(0); k < 64; k += 2 {
		m.Insert(k, v64(k))
	}
	s := m.Snapshot()
	defer s.Close()
	for _, c := range []struct {
		name  string
		write func() bool // reports whether the write did what was expected
		cow   int64
	}{
		{"Remove of an absent key", func() bool { return !m.Remove(3) }, 0},
		{"Insert of a present key", func() bool { return !m.Insert(4, v64(9)) }, 0},
		{"batch of an absent delete and an insert-only hit", func() bool {
			res := m.ApplyBatch([]BatchOp[int64]{{Key: 5, Del: true}, {Key: 6, Val: v64(9), InsertOnly: true}})
			return res[0].Outcome == BatchAbsent && res[1].Outcome == BatchExists
		}, 0},
		{"Remove of a present key", func() bool { return m.Remove(8) }, 1},
	} {
		before := m.Stats().SnapshotCow
		if !c.write() {
			t.Fatalf("%s: unexpected outcome", c.name)
		}
		if got := m.Stats().SnapshotCow - before; got != c.cow {
			t.Errorf("%s published %d pre-images, want %d", c.name, got, c.cow)
		}
	}
	mustCheck(t, m)
}
