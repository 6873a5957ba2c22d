package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skipvector/internal/chaos"
	"skipvector/internal/hazard"
	"skipvector/internal/telemetry"
)

// invariantExpect parameterizes verifyMetricInvariants for the workload that
// preceded the check. Zero values disable the corresponding assertion.
type invariantExpect struct {
	// freezesCoverIndex asserts Freezes ≥ IndexElems, for a map built from
	// empty with telemetry enabled throughout: only a tower insert adds index
	// entries, and one of height h freezes h+1 nodes to add h of them.
	freezesCoverIndex bool
	// singletonOnly asserts the workload made no ApplyBatch call, so the
	// batch instruments must read 0: singleton writes share the group-commit
	// kernel but none of its batch accounting.
	singletonOnly bool
	// occLo/occHi bound the mean interior data-chunk occupancy. Asserted only
	// when the structure holds at least minDataChunks interior data chunks,
	// so a nearly empty map cannot trip the envelope on noise.
	occLo, occHi  float64
	minDataChunks int
	// batchOps, when nonzero, is the exact number of per-op results the
	// workload collected from ApplyBatch calls with telemetry enabled
	// throughout: the batch-size histogram's mass must equal it.
	batchOps int64
	// snapshotsClosed asserts the workload closed every snapshot it pinned:
	// no snapshot may remain active and the version store must have pruned
	// to empty. This is the check the suppressed-release teeth test trips.
	snapshotsClosed bool
	// minSnapshots is a lower bound on snapshots pinned during the run.
	minSnapshots int64
}

// verifyMetricInvariants asserts the paper-level accounting identities over a
// quiescent map's metric surface. It is the headline check of the telemetry
// suite: any regression in reclamation precision, restart accounting, or chunk
// balance surfaces here as a non-nil error. Callers must guarantee quiescence
// (no operations in flight) — the identities below hold mid-churn only in
// their inequality forms, and this helper checks the stronger quiescent forms.
func verifyMetricInvariants(m *Map[int64], exp invariantExpect) error {
	s := m.Stats()

	// Reclamation precision: every reclaimed node was first retired, and at
	// quiescence the pending garbage is exactly the gap between the two.
	if s.Reclaimed > s.RetiredTotal {
		return fmt.Errorf("reclaimed %d > retired %d: reclamation double-counted a node",
			s.Reclaimed, s.RetiredTotal)
	}
	if got := s.RetiredTotal - s.Reclaimed; got != s.Retired {
		return fmt.Errorf("pending garbage %d ≠ retired %d − reclaimed %d",
			s.Retired, s.RetiredTotal, s.Reclaimed)
	}

	// Bounded garbage (Michael's bound): a handle scans once its retired list
	// reaches ScanThreshold, and a scan leaves at most one node per published
	// hazard slot behind, so neither the pending total nor the per-handle
	// high-water mark may exceed ScanThreshold + handles × SlotsPerHandle
	// (per handle for the HWM, × handles for the total). The bound does not
	// apply while a snapshot is pinned: the epoch-aware recycle filter holds
	// every post-pin-retired data chunk regardless of hazard slots, which is
	// the documented price of a pinned snapshot, not a reclamation bug. (The
	// sticky RetireHWM can also record such an era; callers reset it along
	// with the pin, as the teeth tests do.)
	if s.Handles > 0 && s.SnapshotsActive == 0 {
		perHandle := int64(hazard.ScanThreshold + s.Handles*hazard.SlotsPerHandle)
		if s.Retired > s.Handles*perHandle {
			return fmt.Errorf("pending garbage %d exceeds precise-reclamation bound %d (%d handles)",
				s.Retired, s.Handles*perHandle, s.Handles)
		}
		if s.RetireHWM > perHandle {
			return fmt.Errorf("retire-list high-water %d exceeds per-handle bound %d (%d handles)",
				s.RetireHWM, perHandle, s.Handles)
		}
	}

	// Restart accounting: every restart is charged to exactly one op kind.
	// opSnap joined the partition with MVCC snapshots (point-read descents;
	// snapshot scans have no restart path at all).
	kinds := s.RestartsLookup + s.RestartsInsert + s.RestartsRemove + s.RestartsNav + s.RestartsRange + s.RestartsBatch + s.RestartsSnap
	if kinds != s.Restarts {
		return fmt.Errorf("per-kind restarts sum to %d but total is %d", kinds, s.Restarts)
	}

	// Snapshot accounting. Release conservation: a snapshot releases at most
	// once (Close is idempotent via a swap), so released never exceeds pinned
	// and the active gauge is exactly the difference at quiescence. Version
	// mass conservation: every pre-image record the store ever admitted was
	// counted by exactly one push and leaves through exactly one prune, so
	// the resident count is the difference of the two monotone totals. (The
	// tempting "CoW copies ≤ freezes" does NOT hold in general — Remove,
	// merges, and range updates publish pre-images without freezing — so the
	// suite asserts the conservation identities instead.)
	if s.SnapshotsReleased > s.SnapshotsPinned {
		return fmt.Errorf("snapshots released %d > pinned %d", s.SnapshotsReleased, s.SnapshotsPinned)
	}
	if s.SnapshotsActive != s.SnapshotsPinned-s.SnapshotsReleased {
		return fmt.Errorf("active snapshots %d ≠ pinned %d − released %d",
			s.SnapshotsActive, s.SnapshotsPinned, s.SnapshotsReleased)
	}
	if s.SnapshotCowPruned > s.SnapshotCow {
		return fmt.Errorf("pruned records %d > pushed records %d", s.SnapshotCowPruned, s.SnapshotCow)
	}
	if s.SnapshotRecords != s.SnapshotCow-s.SnapshotCowPruned {
		return fmt.Errorf("resident records %d ≠ pushed %d − pruned %d: version mass not conserved",
			s.SnapshotRecords, s.SnapshotCow, s.SnapshotCowPruned)
	}
	if s.SnapshotsPinned < exp.minSnapshots {
		return fmt.Errorf("snapshots pinned %d < expected minimum %d", s.SnapshotsPinned, exp.minSnapshots)
	}
	if exp.snapshotsClosed {
		if s.SnapshotsActive != 0 {
			return fmt.Errorf("%d snapshots still pinned at quiescence", s.SnapshotsActive)
		}
		if s.SnapshotRecords != 0 {
			return fmt.Errorf("version store holds %d records with no snapshot pinned", s.SnapshotRecords)
		}
	}

	// Batch accounting: commit units partition batches. Every op of a recorded
	// batch lands in exactly one commit unit (a grouped chunk commit or a
	// singleton-routed key run), so the two histograms carry the same mass, a
	// batch commits in at least one unit, and no unit outgrows the largest
	// batch.
	bs := m.batchSize.Snapshot()
	gs := m.batchGroupSize.Snapshot()
	if gs.Sum != bs.Sum {
		return fmt.Errorf("commit-unit mass %d ≠ batch-size mass %d: batch ops lost or double-committed",
			gs.Sum, bs.Sum)
	}
	if gs.Count < bs.Count {
		return fmt.Errorf("%d commit units for %d batches: some batch committed in zero units",
			gs.Count, bs.Count)
	}
	maxBucket := func(h telemetry.HistSnapshot) int {
		for i := telemetry.NumBuckets - 1; i >= 0; i-- {
			if h.Buckets[i] != 0 {
				return i
			}
		}
		return -1
	}
	if mg, mb := maxBucket(gs), maxBucket(bs); mg > mb {
		return fmt.Errorf("largest commit unit falls in bucket %d but the largest batch only in bucket %d",
			mg, mb)
	}
	if exp.batchOps > 0 && bs.Sum != exp.batchOps {
		return fmt.Errorf("batch-size histogram mass %d ≠ %d per-op results returned",
			bs.Sum, exp.batchOps)
	}

	if exp.singletonOnly && (bs.Count != 0 || gs.Count != 0 || s.BatchDescentsSaved != 0 || s.RestartsBatch != 0) {
		return fmt.Errorf("singleton-only traffic moved the batch instruments: %d batches, %d commit units, %d descents saved, %d batch restarts",
			bs.Count, gs.Count, s.BatchDescentsSaved, s.RestartsBatch)
	}

	occ := m.Occupancy()
	if exp.freezesCoverIndex && s.Freezes < int64(occ.IndexElems) {
		return fmt.Errorf("freezes %d < %d index entries, each added by a freezing tower insert", s.Freezes, occ.IndexElems)
	}

	// Descent depth can never exceed the number of index layers: each
	// observation counts exchangeDown calls, one per index layer at most.
	maxDepth := int64(m.cfg.LayerCount - 1)
	depth := m.descentDepth.Snapshot()
	for i := telemetry.BucketOf(maxDepth) + 1; i < telemetry.NumBuckets; i++ {
		if depth.Buckets[i] != 0 {
			return fmt.Errorf("descent-depth bucket %d nonempty but depth is bounded by %d index layers",
				i, maxDepth)
		}
	}
	if depth.Sum > depth.Count*maxDepth {
		return fmt.Errorf("descent-depth sum %d exceeds %d observations × %d layers",
			depth.Sum, depth.Count, maxDepth)
	}

	// Chunk fill: no chunk holds more elements than its block has cells,
	// and no block has more cells than the chunk's logical capacity.
	if occ.DataElems > occ.DataCells || occ.DataCells > occ.DataChunks*2*m.cfg.TargetDataVectorSize {
		return fmt.Errorf("%d data elements in %d cells of %d chunks (T_D %d)",
			occ.DataElems, occ.DataCells, occ.DataChunks, m.cfg.TargetDataVectorSize)
	}
	if occ.IndexElems > occ.IndexCells || occ.IndexCells > occ.IndexChunks*2*m.cfg.TargetIndexVectorSize {
		return fmt.Errorf("%d index elements in %d cells of %d chunks (T_I %d)",
			occ.IndexElems, occ.IndexCells, occ.IndexChunks, m.cfg.TargetIndexVectorSize)
	}

	// Chunk balance: interior data chunks must average inside the configured
	// envelope once the structure is big enough for means to be meaningful.
	if exp.occHi > 0 && occ.DataChunks >= exp.minDataChunks {
		if occ.DataMean < exp.occLo || occ.DataMean > exp.occHi {
			return fmt.Errorf("mean data occupancy %.2f outside envelope [%.2f, %.2f] (%d chunks, %d elems)",
				occ.DataMean, exp.occLo, exp.occHi, occ.DataChunks, occ.DataElems)
		}
	}
	return nil
}

// TestMetricInvariantsAfterChaosStress is the positive half of the invariant
// suite: a chaos-perturbed concurrent mixed workload (all six op kinds, so
// every restart counter is exercised), then the full quiescent verification
// plus a well-formedness pass over both exposition formats.
func TestMetricInvariantsAfterChaosStress(t *testing.T) {
	cfgs := map[string]Config{
		"default":     testConfigs()["default"],
		"tiny-chunks": testConfigs()["tiny-chunks"],
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			prev := telemetry.Enabled()
			telemetry.SetEnabled(true)
			defer telemetry.SetEnabled(prev)

			const goroutines = 6
			opsPerG := 3000
			if testing.Short() {
				opsPerG = 800
			}
			m := newTestMap(t, cfg)
			var batchOps, snapsTaken atomic.Int64

			seed := uint64(0x7e1e + len(name))
			chaos.Enable(stressChaosConfig(seed))
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					base := int64(g) * 10_000
					rng := rand.New(rand.NewSource(int64(g) + 7))
					for i := 0; i < opsPerG; i++ {
						k := base + int64(rng.Intn(512))
						if i%250 == 249 {
							// Pin, scan, point-read, close: exercises the CoW
							// push/prune counters and the opSnap restart lane.
							s := m.Snapshot()
							s.Range(k, k+128, func(int64, *int64) bool { return true })
							s.Contains(k)
							s.Close()
							snapsTaken.Add(1)
							continue
						}
						switch rng.Intn(9) {
						case 0, 1, 2:
							v := int64(i)
							m.Insert(k, &v)
						case 3:
							m.Remove(k)
						case 4:
							m.Floor(k)
						case 5:
							m.Ceiling(k)
						case 6:
							m.RangeQuery(k, k+64, func(int64, *int64) bool { return true })
						case 7:
							// Mixed batch over a clustered key window: upserts,
							// insert-onlys, and deletes, duplicates included.
							n := 1 + rng.Intn(8)
							batch := make([]BatchOp[int64], n)
							for b := range batch {
								bk := k + int64(rng.Intn(16))
								switch rng.Intn(4) {
								case 0:
									batch[b] = BatchOp[int64]{Key: bk, Del: true}
								case 1:
									batch[b] = BatchOp[int64]{Key: bk, Val: v64(int64(i + b)), InsertOnly: true}
								default:
									batch[b] = BatchOp[int64]{Key: bk, Val: v64(int64(i + b))}
								}
							}
							batchOps.Add(int64(len(m.ApplyBatch(batch))))
						default:
							m.Lookup(k)
						}
					}
				}(g)
			}
			wg.Wait()
			rep := chaos.Disable()
			t.Logf("%v", rep)
			if rep.Fails() == 0 || rep.Perturbations() == 0 {
				t.Fatalf("chaos injected nothing: %v", rep)
			}

			exp := invariantExpect{
				freezesCoverIndex: true,
				occLo:             float64(cfg.TargetDataVectorSize) / 2,
				occHi:             2 * float64(cfg.TargetDataVectorSize),
				minDataChunks:     4,
				batchOps:          batchOps.Load(),
				snapshotsClosed:   true,
				minSnapshots:      snapsTaken.Load(),
			}
			if err := verifyMetricInvariants(m, exp); err != nil {
				t.Fatalf("metric invariants violated after stress: %v\nstats: %+v", err, m.Stats())
			}
			occ := m.Occupancy()
			t.Logf("occupancy: data %.2f over %d chunks, index %.2f over %d chunks",
				occ.DataMean, occ.DataChunks, occ.IndexMean, occ.IndexChunks)
			mustCheck(t, m)

			// Exposition well-formedness over live data: the Prometheus text
			// must carry the headline series, and the expvar JSON must parse.
			var buf bytes.Buffer
			if err := m.WriteMetrics(&buf); err != nil {
				t.Fatalf("WriteMetrics: %v", err)
			}
			text := buf.String()
			for _, want := range []string{
				"sv_restarts_total", "sv_descent_depth_bucket", "sv_hazard_retired_total",
				"sv_data_chunk_occupancy_sum", "sv_seqlock_read_spins_total",
			} {
				if !strings.Contains(text, want) {
					t.Errorf("Prometheus exposition missing %q", want)
				}
			}
			var decoded map[string]any
			if err := json.Unmarshal([]byte(m.Metrics().String()), &decoded); err != nil {
				t.Fatalf("expvar JSON does not parse: %v", err)
			}
		})
	}
}

// TestInvariantSuiteDetectsSuppressedReclaim proves the suite has teeth: with
// reclamation deliberately suppressed through the hazard domain's test hook,
// retired nodes accumulate past the precise-reclamation bound and
// verifyMetricInvariants must fail. Lifting the suppression and flushing must
// then restore a passing state, showing the failure was the injected bug and
// not a latent one.
func TestInvariantSuiteDetectsSuppressedReclaim(t *testing.T) {
	prev := telemetry.Enabled()
	telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prev)

	cfg := testConfigs()["tiny-chunks"]
	m := newTestMap(t, cfg)
	m.mem.domain.SetReclaimSuppressed(true)

	// Heavy single-threaded churn: with T_D = 2 every few inserts split and
	// every removal wave merges, so retirements pile up fast.
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 4000; i++ {
		k := int64(rng.Intn(512))
		if rng.Intn(2) == 0 {
			m.Insert(k, v64(int64(i)))
		} else {
			m.Remove(k)
		}
	}

	s := m.Stats()
	if s.Reclaimed != 0 {
		t.Fatalf("suppression hook leaked: %d nodes reclaimed", s.Reclaimed)
	}
	if s.RetiredTotal == 0 {
		t.Fatalf("workload retired nothing; suppression cannot be observed")
	}
	err := verifyMetricInvariants(m, invariantExpect{})
	if err == nil {
		t.Fatalf("invariant suite passed despite suppressed reclamation (retired=%d pending=%d)",
			s.RetiredTotal, s.Retired)
	}
	t.Logf("suite correctly rejected suppressed reclamation: %v", err)

	// Lift the injected fault. The retire-list high-water mark is sticky by
	// design and still records the pile-up, so it is reset along with the
	// fault that caused it; everything else must recover on its own.
	m.mem.domain.SetReclaimSuppressed(false)
	m.FlushRetired()
	m.mem.domain.ResetRetireHWM()
	if err := verifyMetricInvariants(m, invariantExpect{freezesCoverIndex: true, singletonOnly: true}); err != nil {
		t.Fatalf("invariants still failing after suppression lifted and retirees flushed: %v", err)
	}
	if s = m.Stats(); s.Retired != 0 {
		t.Fatalf("flush after unsuppression left %d nodes pending", s.Retired)
	}
	mustCheck(t, m)
}

// TestInvariantSuiteDetectsSuppressedSnapshotRelease is the snapshot teeth
// test: a chaos-churned run that pins snapshots and deliberately never closes
// one must fail the quiescent snapshot checks (an active pin, a non-empty
// version store, and retired chunks the epoch filter refuses to recycle).
// Closing the pin and flushing must restore a passing state.
func TestInvariantSuiteDetectsSuppressedSnapshotRelease(t *testing.T) {
	prev := telemetry.Enabled()
	telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prev)

	cfg := testConfigs()["tiny-chunks"]
	m := newTestMap(t, cfg)
	for k := int64(0); k < 256; k++ {
		m.Insert(k, v64(k))
	}

	chaos.Enable(stressChaosConfig(0x5a7e9))
	leakedPin := m.Snapshot() // the suppressed release
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 3))
			for i := 0; i < 1500; i++ {
				k := int64(rng.Intn(512))
				switch rng.Intn(4) {
				case 0:
					m.Remove(k)
				case 1:
					m.Upsert(k, v64(int64(i)))
				case 2:
					s := m.Snapshot() // well-behaved pins, properly closed
					s.Contains(k)
					s.Close()
				default:
					m.Insert(k, v64(int64(i)))
				}
			}
		}(g)
	}
	wg.Wait()
	rep := chaos.Disable()
	if rep.Fails() == 0 {
		t.Fatalf("chaos injected nothing: %v", rep)
	}

	m.FlushRetired()
	st := m.Stats()
	if st.SnapshotRecords == 0 {
		t.Fatal("churn under the leaked pin published no pre-images; suppression cannot be observed")
	}
	if st.Retired == 0 {
		t.Fatal("no retired chunks held by the leaked pin; suppression cannot be observed")
	}
	err := verifyMetricInvariants(m, invariantExpect{snapshotsClosed: true})
	if err == nil {
		t.Fatalf("invariant suite passed despite an unreleased snapshot (active=%d records=%d)",
			st.SnapshotsActive, st.SnapshotRecords)
	}
	t.Logf("suite correctly rejected suppressed snapshot release: %v", err)

	// Lift the fault: close the pin, flush, and everything must recover. The
	// retire-list high-water mark is sticky and still records the pinned-era
	// pile-up, so it is reset along with the fault that caused it.
	leakedPin.Close()
	m.FlushRetired()
	m.mem.domain.ResetRetireHWM()
	exp := invariantExpect{snapshotsClosed: true, freezesCoverIndex: true, singletonOnly: true}
	if err := verifyMetricInvariants(m, exp); err != nil {
		t.Fatalf("invariants still failing after the pin was released: %v", err)
	}
	if st = m.Stats(); st.Retired != 0 {
		t.Fatalf("flush after release left %d nodes pending", st.Retired)
	}
	mustCheck(t, m)
}

// TestHazardChurnNoLeak drives insert/remove churn through many explicit
// handles, drains the map, and proves precise reclamation end to end: pending
// garbage stays under Michael's bound during churn, drains to exactly zero at
// quiescence, and the live structure shrinks back to its sentinels.
func TestHazardChurnNoLeak(t *testing.T) {
	cfg := DefaultConfig()
	m := newTestMap(t, cfg)

	const workers = 8
	keySpace := int64(4096)
	opsPerW := 6000
	if testing.Short() {
		keySpace, opsPerW = 1024, 1500
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := m.NewHandle()
			defer h.Close()
			rng := rand.New(rand.NewSource(int64(w) * 31))
			for i := 0; i < opsPerW; i++ {
				k := int64(rng.Intn(int(keySpace)))
				if rng.Intn(3) == 0 {
					h.Remove(k)
				} else {
					h.Insert(k, v64(k))
				}
			}
		}(w)
	}
	wg.Wait()

	// Mid-life checks: garbage bounded, structure sized O(n / targetSize).
	s := m.Stats()
	bound := s.Handles * int64(hazard.ScanThreshold+s.Handles*hazard.SlotsPerHandle)
	if s.Retired > bound {
		t.Fatalf("pending garbage %d exceeds bound %d after churn (%d handles)", s.Retired, bound, s.Handles)
	}
	interior := 0
	for _, c := range m.NodeCount() {
		interior += c - 2 // exclude the head and tail sentinels per layer
	}
	maxNodes := 4 + 4*int(keySpace)/cfg.TargetDataVectorSize
	if interior > maxNodes {
		t.Fatalf("%d interior nodes for ≤%d keys (limit %d): structure not O(n/targetSize)",
			interior, keySpace, maxNodes)
	}

	// Drain every key, then sweep readers across the empty map so lazy
	// maintenance unlinks the empty orphans the drain left behind.
	for k := int64(0); k < keySpace; k++ {
		m.Remove(k)
	}
	for k := int64(0); k < keySpace; k += keySpace / 16 {
		m.Contains(k)
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d after full drain", m.Len())
	}
	m.FlushRetired()

	s = m.Stats()
	if s.Retired != 0 {
		t.Fatalf("%d nodes still pending after quiescent flush (retired %d, reclaimed %d)",
			s.Retired, s.RetiredTotal, s.Reclaimed)
	}
	if s.RetiredTotal != s.Reclaimed {
		t.Fatalf("retired %d ≠ reclaimed %d at quiescence", s.RetiredTotal, s.Reclaimed)
	}
	interior = 0
	for _, c := range m.NodeCount() {
		interior += c - 2
	}
	if interior > 2*cfg.LayerCount {
		t.Fatalf("%d interior nodes survive an empty map (layers %d): leak", interior, cfg.LayerCount)
	}
	mustCheck(t, m)
}

// dependentPairs are the counter pairs where the first counts what the
// second already counted, so that first ≤ second at every instant.
var dependentPairs = [][2]string{
	{"sv_snapshots_released_total", "sv_snapshots_pinned_total"},
	{"sv_snapshot_cow_pruned_total", "sv_snapshot_cow_total"},
	{"sv_hazard_reclaimed_total", "sv_hazard_retired_total"},
}

// TestMetricsLoadDependentCountersFirst pins the scrape order: a view reads
// its series in registration order, so the dependent counter of each pair
// must come first for a scrape under churn to keep its bound.
func TestMetricsLoadDependentCountersFirst(t *testing.T) {
	out := newTestMap(t, testConfigs()["tiny-chunks"]).Metrics().String()
	for _, p := range dependentPairs {
		dep, base := strings.Index(out, `"`+p[0]+`"`), strings.Index(out, `"`+p[1]+`"`)
		if dep < 0 || base < 0 || dep > base {
			t.Errorf("%s is scraped at %d, %s at %d: the dependent counter must come first", p[0], dep, p[1], base)
		}
	}
}

// scrapeBoundsErr checks the dependent pairs on one JSON scrape.
func scrapeBoundsErr(out string) error {
	var vals map[string]any
	if err := json.Unmarshal([]byte(out), &vals); err != nil {
		return err
	}
	for _, p := range dependentPairs {
		dep, _ := vals[p[0]].(float64)
		base, _ := vals[p[1]].(float64)
		if dep > base {
			return fmt.Errorf("scrape tore: %s %v > %s %v", p[0], dep, p[1], base)
		}
	}
	return nil
}

// TestStatsSnapshotTearFree snapshots Stats continuously while chaos-stressed
// mutators run, asserting on every snapshot the two ordering identities the
// collector promises (per-kind restarts never exceed the total; reclaimed
// never exceeds retired) plus monotonicity of the cumulative counters between
// consecutive snapshots. Under -race this also proves the collector performs
// no unsynchronized reads.
func TestStatsSnapshotTearFree(t *testing.T) {
	prev := telemetry.Enabled()
	telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prev)

	cfg := testConfigs()["tiny-chunks"]
	m := newTestMap(t, cfg)
	const goroutines = 4
	opsPerG := 4000
	if testing.Short() {
		opsPerG = 1000
	}

	chaos.Enable(stressChaosConfig(0x5a45))
	var wg sync.WaitGroup
	done := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := int64(g) * 10_000
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < opsPerG; i++ {
				k := base + int64(rng.Intn(128))
				switch rng.Intn(5) {
				case 0, 1:
					m.Insert(k, v64(int64(i)))
				case 2:
					m.Remove(k)
				case 3:
					m.ApplyBatch([]BatchOp[int64]{
						{Key: k, Val: v64(int64(i))},
						{Key: k + 1, Del: true},
						{Key: k + 2, Val: v64(int64(i)), InsertOnly: true},
					})
				default:
					m.Lookup(k)
				}
			}
		}(g)
	}

	var snapshots atomic.Int64
	var mutating atomic.Bool
	mutating.Store(true)
	// Pins come and go under the writes, so pre-image records are pushed and
	// pruned and pins released while the scrapes below read them.
	pinsDone := make(chan struct{})
	go func() {
		defer close(pinsDone)
		for mutating.Load() {
			m.Snapshot().Close()
			time.Sleep(20 * time.Microsecond)
		}
	}()
	var snapErr error
	go func() {
		defer close(done)
		var last StatsSnapshot
		// One extra pass after the mutators stop so the final quiescent state
		// is also checked.
		for final := false; ; final = !mutating.Load() {
			s := m.Stats()
			snapshots.Add(1)
			kinds := s.RestartsLookup + s.RestartsInsert + s.RestartsRemove + s.RestartsNav + s.RestartsRange + s.RestartsBatch
			switch {
			case kinds > s.Restarts:
				snapErr = fmt.Errorf("snapshot tore: per-kind restarts %d > total %d", kinds, s.Restarts)
			case s.Reclaimed > s.RetiredTotal:
				snapErr = fmt.Errorf("snapshot tore: reclaimed %d > retired %d", s.Reclaimed, s.RetiredTotal)
			case s.Restarts < last.Restarts, s.Splits < last.Splits, s.Merges < last.Merges,
				s.Orphans < last.Orphans, s.RetiredTotal < last.RetiredTotal,
				s.Reclaimed < last.Reclaimed, s.Freezes < last.Freezes:
				snapErr = fmt.Errorf("cumulative counter went backwards: %+v then %+v", last, s)
			}
			if snapErr == nil {
				snapErr = scrapeBoundsErr(m.Metrics().String())
			}
			if snapErr != nil || final {
				return
			}
			last = s
			// Throttle: an unyielding spin loop starves the chaos-injected
			// Gosched yields in the mutators, and tens of snapshots per
			// millisecond prove nothing extra.
			time.Sleep(50 * time.Microsecond)
		}
	}()
	wg.Wait()
	mutating.Store(false)
	<-done
	<-pinsDone
	rep := chaos.Disable()
	if rep.Fails() == 0 {
		t.Fatalf("chaos injected nothing: %v", rep)
	}
	if snapErr != nil {
		t.Fatalf("%v (after %d snapshots)", snapErr, snapshots.Load())
	}
	if snapshots.Load() < 10 {
		t.Fatalf("snapshotter only ran %d times; test proved nothing", snapshots.Load())
	}
	t.Logf("%d tear-free snapshots under chaos", snapshots.Load())
	mustCheck(t, m)
}
