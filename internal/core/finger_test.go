package core

import (
	"math/rand"
	"sync"
	"testing"

	"skipvector/internal/chaos"
	"skipvector/internal/lincheck"
)

// fingerTestMap builds a tiny-chunk map prefilled with keys 0, step, 2*step,
// ... below limit, so data nodes hold only a handful of keys and every
// structural event (split, merge, orphan) is easy to provoke.
func fingerTestMap(t *testing.T, step, limit int64) *Map[int64] {
	t.Helper()
	cfg := testConfigs()["tiny-chunks"]
	m := newTestMap(t, cfg)
	for k := int64(0); k < limit; k += step {
		m.Insert(k, v64(k))
	}
	return m
}

// fingerOn runs one lookup through ctx and returns the data node the finger
// now remembers, with its exact bounds read under the remembered version.
func fingerOn(t *testing.T, m *Map[int64], ctx *opCtx[int64], k int64) (n *node[int64], minK, maxK int64) {
	t.Helper()
	if found := m.lookupCtx(ctx, k, nil); !found {
		t.Fatalf("Lookup(%d) lost the key", k)
	}
	n = ctx.fing.node
	if n == nil {
		t.Fatalf("lookup(%d) did not record a finger", k)
	}
	minK, maxK, ok := n.chunk.Bounds()
	if !ok {
		t.Fatalf("finger node for %d is empty", k)
	}
	if !n.lock.Validate(ctx.fing.ver) {
		t.Fatalf("recorded finger version already stale")
	}
	return n, minK, maxK
}

// seek probes the finger with a fresh backoff window and releases any
// hazard pointer a hit leaves published, so tests can chain probes
// deterministically.
func seek(m *Map[int64], ctx *opCtx[int64], k int64) bool {
	ctx.fing.backoff = 0
	_, _, hit := m.fingerSeek(ctx, k, modeRead)
	ctx.dropAll()
	return hit
}

func TestFingerHitAfterLookup(t *testing.T) {
	m := fingerTestMap(t, 2, 400)
	ctx := m.ctxs.get()
	defer m.ctxs.put(ctx)

	before := m.Stats()
	_, _, _ = fingerOn(t, m, ctx, 100)
	if !seek(m, ctx, 100) {
		t.Fatal("repeat probe of the same key missed")
	}
	if got := m.Stats(); got.FingerHits <= before.FingerHits {
		t.Fatalf("FingerHits did not advance: %d -> %d", before.FingerHits, got.FingerHits)
	}
	// A repeated lookup through the same context must also hit end to end.
	hits := m.Stats().FingerHits
	if found := m.lookupCtx(ctx, 100, nil); !found {
		t.Fatal("repeat lookup lost the key")
	}
	if m.Stats().FingerHits <= hits {
		t.Fatal("repeat lookup did not use the finger")
	}
}

func TestFingerSpanOwnership(t *testing.T) {
	m := fingerTestMap(t, 2, 800)
	ctx := m.ctxs.get()
	defer m.ctxs.put(ctx)

	n, minK, maxK := fingerOn(t, m, ctx, 400)
	succ := n.next.Load()
	if succ == nil {
		t.Fatal("finger node unexpectedly last")
	}
	succMin, ok := succ.minKey()
	if !ok {
		t.Fatal("successor has no minimum")
	}

	// Both stored extremes hit for point lookups.
	if !seek(m, ctx, minK) || !seek(m, ctx, maxK) {
		t.Fatal("in-chunk keys missed")
	}
	// The gap before the successor's minimum belongs to this node: with
	// step-2 keys, maxK+1 is absent but owned (the ascending-ingest case).
	if succMin != maxK+2 {
		t.Fatalf("layout surprise: maxK=%d succMin=%d", maxK, succMin)
	}
	if !seek(m, ctx, maxK+1) {
		t.Fatal("gap key before successor missed")
	}
	if found := m.lookupCtx(ctx, maxK+1, nil); found {
		t.Fatal("gap key reported present")
	}
	// The successor's minimum, and the key past it, belong to the successor:
	// the walk reaches them in one hop.
	if !seek(m, ctx, succMin) || !seek(m, ctx, succMin+1) {
		t.Fatal("key on the successor missed")
	}
	// Keys below the node's minimum miss (quick reject once bounds cached).
	if seek(m, ctx, minK-1) {
		t.Fatal("key below node minimum hit")
	}
}

// TestFingerWalkReach pins the walk's hop budget on a bulk-loaded map, whose
// chunks all hold exactly T_D keys, so the reach estimate from the finger
// node's own span is exact for its neighbours.
func TestFingerWalkReach(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TargetDataVectorSize = 4
	cfg.TargetIndexVectorSize = 2
	cfg.LayerCount = 5
	var keys []int64
	for k := int64(0); k < 800; k += 2 {
		keys = append(keys, k)
	}
	m, err := BulkLoad[int64](cfg, keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := m.ctxs.get()
	defer m.ctxs.put(ctx)

	n, _, _ := fingerOn(t, m, ctx, 400)
	// seekTo is seek returning the node a hit lands on.
	seekTo := func(k int64) *node[int64] {
		ctx.fing.backoff = 0
		curr, _, hit := m.fingerSeek(ctx, k, modeWrite)
		ctx.dropAll()
		if !hit {
			return nil
		}
		return curr
	}
	prev := n
	for hop := 1; hop <= fingerHops+1; hop++ {
		right := prev.next.Load()
		lo, hi, ok := right.chunk.Bounds()
		if !ok {
			t.Fatalf("node %d hops right is empty", hop)
		}
		if hop > fingerHops {
			if seekTo(lo) != nil {
				t.Fatalf("key %d hops right hit past the budget", hop)
			}
			if ctx.fing.backoff == 0 {
				t.Fatal("a probe past the budget did not widen the skip window")
			}
			break
		}
		// The gap key below lo belongs to the node before.
		for _, c := range []struct {
			k    int64
			want *node[int64]
		}{{lo - 1, prev}, {lo, right}, {hi, right}} {
			if got := seekTo(c.k); got != c.want {
				t.Fatalf("key %d, %d hops right: landed on %p, want %p", c.k, hop, got, c.want)
			}
		}
		prev = right
	}
	if ctx.fing.node != n {
		t.Fatal("a probe moved the finger")
	}
}

// TestFingerRemoveIndexedMinimum removes, through a Handle whose finger sits
// on a data node, that node's indexed minimum: the write kernel finds the
// node through the finger but must defer the key to the top-down pass, which
// alone can unlink its index tower. A removal that skipped the pass would
// leave an index entry for an absent key, which CheckInvariants reports.
// Changing path is not a failed attempt, so no restart may be charged.
func TestFingerRemoveIndexedMinimum(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TargetDataVectorSize = 4
	cfg.TargetIndexVectorSize = 2
	cfg.LayerCount = 5
	var keys []int64
	for k := int64(0); k < 400; k += 2 {
		keys = append(keys, k)
	}
	m, err := BulkLoad[int64](cfg, keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := m.NewHandle()
	defer h.Close()

	// Every data node after the head starts with an indexed minimum; take
	// each one's minimum and maximum before any removal changes the layout.
	var minima, maxima []int64
	for n := m.heads[0].next.Load(); n.next.Load() != nil; n = n.next.Load() {
		lo, hi, ok := n.chunk.Bounds()
		if ok && lo < hi && !n.lock.IsOrphan() {
			minima, maxima = append(minima, lo), append(maxima, hi)
		}
	}
	if len(minima) < 40 {
		t.Fatalf("only %d data nodes with two keys or more", len(minima))
	}
	restarts := m.Stats().Restarts
	for i, lo := range minima {
		if _, ok := h.Lookup(maxima[i]); !ok {
			t.Fatalf("Lookup(%d) lost the key", maxima[i])
		}
		if got, _ := h.ctx.fing.node.minKey(); got != lo {
			t.Fatalf("finger sits on a node with minimum %d, want %d", got, lo)
		}
		hits := m.Stats().FingerHits
		if !h.Remove(lo) {
			t.Fatalf("Remove(%d) of an indexed minimum reported absent", lo)
		}
		if m.Stats().FingerHits == hits {
			t.Fatalf("Remove(%d) did not reach its node through the finger", lo)
		}
		if m.Contains(lo) {
			t.Fatalf("key %d still present after Remove", lo)
		}
		mustCheck(t, m)
	}
	if got := m.Stats().Restarts - restarts; got != 0 {
		t.Fatalf("removing %d indexed minima charged %d restarts", len(minima), got)
	}
	t.Logf("removed %d indexed minima through the finger, 0 restarts", len(minima))
}

func TestFingerInvalidatedByWrite(t *testing.T) {
	m := fingerTestMap(t, 10, 1000)
	ctx := m.ctxs.get()
	defer m.ctxs.put(ctx)

	n, _, maxK := fingerOn(t, m, ctx, 500)
	ver := ctx.fing.ver
	// A write into the remembered node (map-level: separate context) bumps
	// its word, so the stale version must fail validation.
	if !m.Insert(maxK+1, v64(maxK+1)) {
		t.Fatal("Insert into finger node failed")
	}
	if n.lock.Validate(ver) {
		t.Fatal("write did not bump the node's word")
	}
	if seek(m, ctx, 500) {
		t.Fatal("probe hit through a stale version")
	}
	if ctx.fing.node != nil {
		t.Fatal("failed validation did not drop the finger")
	}
	// The fallback descent re-records and the finger recovers.
	if found := m.lookupCtx(ctx, 500, nil); !found {
		t.Fatal("lookup after invalidation lost the key")
	}
	if !seek(m, ctx, 500) {
		t.Fatal("finger did not recover after re-record")
	}
}

func TestFingerInvalidatedBySplit(t *testing.T) {
	m := fingerTestMap(t, 10, 1000)
	ctx := m.ctxs.get()
	defer m.ctxs.put(ctx)

	_, minK, _ := fingerOn(t, m, ctx, 500)
	splitsBefore := m.Stats().Splits
	// Stuff the remembered node until it splits (tiny chunks overflow after
	// a couple of insertions into the same span).
	for d := int64(1); d <= 8; d++ {
		m.Insert(minK+d, v64(minK+d))
	}
	if m.Stats().Splits <= splitsBefore {
		t.Fatalf("no split occurred (before=%d after=%d)", splitsBefore, m.Stats().Splits)
	}
	if seek(m, ctx, 500) {
		t.Fatal("probe hit across a split through a stale version")
	}
	for d := int64(0); d <= 8; d++ {
		if found := m.lookupCtx(ctx, minK+d, nil); !found {
			t.Fatalf("key %d lost across the split", minK+d)
		}
	}
	mustCheck(t, m)
}

func TestFingerInvalidatedByFreeze(t *testing.T) {
	m := fingerTestMap(t, 2, 400)
	ctx := m.ctxs.get()
	defer m.ctxs.put(ctx)

	n, _, _ := fingerOn(t, m, ctx, 100)
	fver, ok := n.lock.TryFreeze(ctx.fing.ver)
	if !ok {
		t.Fatal("TryFreeze on a quiescent node failed")
	}
	if seek(m, ctx, 100) {
		n.lock.Thaw()
		t.Fatal("probe hit on a frozen node through a stale version")
	}
	if ctx.fing.node != nil {
		n.lock.Thaw()
		t.Fatal("failed validation did not drop the finger")
	}
	// A frozen word must also be refused at record time — the thaw would
	// invalidate it immediately.
	m.recordFinger(ctx, n, fver)
	if ctx.fing.node != nil {
		n.lock.Thaw()
		t.Fatal("recordFinger accepted a frozen version")
	}
	n.lock.Thaw()
	if found := m.lookupCtx(ctx, 100, nil); !found {
		t.Fatal("lookup after thaw lost the key")
	}
	if !seek(m, ctx, 100) {
		t.Fatal("finger did not recover after thaw")
	}
}

func TestFingerRecordRefusesLockedWord(t *testing.T) {
	m := fingerTestMap(t, 2, 400)
	ctx := m.ctxs.get()
	defer m.ctxs.put(ctx)

	n, _, _ := fingerOn(t, m, ctx, 100)
	ctx.fing.node = nil // clear so a refused record is observable
	n.lock.Acquire()
	locked := n.lock.Current()
	m.recordFinger(ctx, n, locked)
	n.lock.Release()
	if ctx.fing.node != nil {
		t.Fatal("recordFinger accepted a locked version")
	}
}

func TestFingerFollowsOrphans(t *testing.T) {
	m, _ := buildOrphanChain(t)
	ctx := m.ctxs.get()
	defer m.ctxs.put(ctx)

	// Find a surviving orphan and a key it still holds.
	var orphanKey int64
	found := false
	for n := m.heads[0]; n != nil; n = n.next.Load() {
		if n.lock.IsOrphan() {
			if k, ok := n.minKey(); ok {
				orphanKey, found = k, true
				break
			}
		}
	}
	if !found {
		t.Fatal("orphan chain has no non-empty orphan")
	}
	// Orphan nodes are recorded — capacity-split orphans are long-lived and
	// are exactly the hot node of an ascending ingest.
	if ok := m.lookupCtx(ctx, orphanKey, nil); !ok {
		t.Fatalf("Lookup(%d) lost an orphan-held key", orphanKey)
	}
	f := &ctx.fing
	if f.node == nil || !f.node.lock.IsOrphan() || !f.ver.Orphan() {
		t.Fatal("lookup into an orphan did not record the orphan finger")
	}
	if !seek(m, ctx, orphanKey) {
		t.Fatal("probe on a recorded orphan missed")
	}
}

func TestFingerSurvivesDrainAndMerge(t *testing.T) {
	m := fingerTestMap(t, 2, 400)
	ctx := m.ctxs.get()
	defer m.ctxs.put(ctx)

	_, _, _ = fingerOn(t, m, ctx, 200)
	// Drain the whole map through map-level contexts: the remembered node is
	// emptied, merged away, and retired while our stale finger still points
	// at it. Monotonic lock words across node lifetimes guarantee the next
	// probe fails validation even if the node was recycled.
	for k := int64(0); k < 400; k += 2 {
		if !m.Remove(k) {
			t.Fatalf("Remove(%d) failed", k)
		}
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d after drain", m.Len())
	}
	if seek(m, ctx, 200) {
		t.Fatal("probe hit a retired node")
	}
	if found := m.lookupCtx(ctx, 200, nil); found {
		t.Fatal("lookup found a drained key")
	}
	mustCheck(t, m)
}

func TestFingerProbeBackoff(t *testing.T) {
	m := fingerTestMap(t, 2, 800)
	ctx := m.ctxs.get()
	defer m.ctxs.put(ctx)

	_, _, _ = fingerOn(t, m, ctx, 100)
	far := int64(700) // far outside the remembered node's span
	f := &ctx.fing
	// The prefill ran through the same pooled context; start from a clean
	// backoff state.
	f.penalty, f.backoff = 0, 0

	// Each wasted full probe doubles the skip window.
	wantPenalty := uint8(0)
	for round := 0; round < 3; round++ {
		if _, _, hit := m.fingerSeek(ctx, far, modeRead); hit {
			t.Fatalf("round %d: far key hit", round)
		}
		wantPenalty++
		if f.penalty != wantPenalty || f.backoff != (1<<wantPenalty)-1 {
			t.Fatalf("round %d: penalty=%d backoff=%d, want penalty=%d backoff=%d",
				round, f.penalty, f.backoff, wantPenalty, (1<<wantPenalty)-1)
		}
		// The window is spent declining without touching the node.
		for f.backoff > 0 {
			prev := f.backoff
			if _, _, hit := m.fingerSeek(ctx, 100, modeRead); hit {
				t.Fatal("probe during backoff window")
			}
			if f.backoff != prev-1 {
				t.Fatalf("backoff did not decrement: %d -> %d", prev, f.backoff)
			}
		}
	}
	// The cap bounds the window.
	for round := 0; round < 10; round++ {
		ctx.fing.backoff = 0
		m.fingerSeek(ctx, far, modeRead)
	}
	if f.penalty != maxFingerPenalty {
		t.Fatalf("penalty=%d, want cap %d", f.penalty, maxFingerPenalty)
	}
	// One hit restores full eagerness.
	if !seek(m, ctx, 100) {
		t.Fatal("in-span probe missed after backoff")
	}
	if f.penalty != 0 || f.backoff != 0 {
		t.Fatalf("hit did not reset backoff: penalty=%d backoff=%d", f.penalty, f.backoff)
	}
}

func TestFingerHitRateOnAscendingHandle(t *testing.T) {
	m := newTestMap(t, testConfigs()["default"])
	h := m.NewHandle()
	defer h.Close()
	const n = 4000
	for k := int64(0); k < n; k++ {
		h.Insert(k, v64(k))
	}
	for k := int64(0); k < n; k++ {
		if _, found := h.Lookup(k); !found {
			t.Fatalf("Lookup(%d) missed", k)
		}
	}
	st := m.Stats()
	total := st.FingerHits + st.FingerMisses
	if total == 0 {
		t.Fatal("no finger activity recorded")
	}
	if rate := float64(st.FingerHits) / float64(total); rate < 0.5 {
		t.Fatalf("ascending hit rate %.2f (hits=%d misses=%d); locality lost",
			rate, st.FingerHits, st.FingerMisses)
	}
	mustCheck(t, m)
}

// TestFingerChaosStress drives handle-pinned, locality-heavy workloads with
// the chaos injector forcing finger validation failures (chaos.CoreFinger),
// alongside the usual seqlock/CAS perturbations. Each goroutine owns a
// disjoint key stripe and checks every result against a private reference,
// so a finger hit that lands on the wrong node — or a forced miss whose
// fallback descent misbehaves — is caught at the operation that saw it.
func TestFingerChaosStress(t *testing.T) {
	cfg := testConfigs()["tiny-chunks"]
	const goroutines = 6
	sweeps := 12
	if testing.Short() {
		sweeps = 4
	}
	m := newTestMap(t, cfg)
	seed := uint64(0xf19e)
	chaos.Enable(stressChaosConfig(seed))
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := m.NewHandle()
			defer h.Close()
			base := int64(g) * 10_000 // disjoint stripe per goroutine
			const span = 300
			ref := make(map[int64]int64, span)
			rng := rand.New(rand.NewSource(int64(g) + 77))
			for s := 0; s < sweeps; s++ {
				// Ascending sweeps keep the finger hot; the op mix still
				// exercises insert, remove, lookup, and navigation paths.
				for i := int64(0); i < span; i++ {
					k := base + i
					switch rng.Intn(5) {
					case 0, 1:
						v := int64(s)
						got := h.Insert(k, &v)
						_, had := ref[k]
						if got == had {
							t.Errorf("Insert(%d) = %t, reference had=%t (chaos seed %#x)", k, got, had, seed)
							return
						}
						if got {
							ref[k] = v
						}
					case 2:
						got := h.Remove(k)
						if _, had := ref[k]; got != had {
							t.Errorf("Remove(%d) = %t, reference had=%t (chaos seed %#x)", k, got, had, seed)
							return
						}
						delete(ref, k)
					case 3:
						v, got := h.Lookup(k)
						want, had := ref[k]
						if got != had || (got && *v != want) {
							t.Errorf("Lookup(%d) mismatch (chaos seed %#x)", k, seed)
							return
						}
					default:
						// Ceiling within the stripe: the result must be the
						// reference's smallest key >= k (stripes are disjoint
						// and ceilings stay inside the sweep span).
						ck, _, ok := h.Ceiling(k)
						wantK, want := int64(0), false
						for rk := range ref {
							if rk >= k && (!want || rk < wantK) {
								wantK, want = rk, true
							}
						}
						if want != (ok && ck < base+10_000) {
							t.Errorf("Ceiling(%d) presence mismatch (chaos seed %#x)", k, seed)
							return
						}
						if want && ck != wantK {
							t.Errorf("Ceiling(%d) = %d, want %d (chaos seed %#x)", k, ck, wantK, seed)
							return
						}
					}
				}
			}
			// Final differential sweep over the stripe.
			for i := int64(0); i < span; i++ {
				k := base + i
				v, got := h.Lookup(k)
				want, had := ref[k]
				if got != had || (got && *v != want) {
					t.Errorf("final Lookup(%d) mismatch (chaos seed %#x)", k, seed)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	rep := chaos.Disable()
	t.Logf("%v", rep)
	if t.Failed() {
		return
	}
	if rep.Sites[chaos.CoreFinger].Fails == 0 {
		t.Fatalf("chaos never forced a finger validation failure: %v", rep)
	}
	if m.Stats().FingerHits == 0 {
		t.Fatal("no finger hits under the locality workload")
	}
	mustCheck(t, m)
}

// TestFingerLinearizabilityWithHandles re-runs the chaos linearizability
// rounds with every process operating through a pinned handle, so finger
// hits and chaos-forced finger misses are interleaved into the recorded
// histories. The finger must not change any operation's outcome: every
// history must still match the sequential map specification.
func TestFingerLinearizabilityWithHandles(t *testing.T) {
	cfg := testConfigs()["tiny-chunks"]
	rounds := 40
	if testing.Short() {
		rounds = 12
	}
	const (
		procs    = 3
		opsEach  = 4
		keySpace = 3
	)
	seed := uint64(0xf1a9)
	chaos.Enable(stressChaosConfig(seed))
	defer chaos.Disable()
	for round := 0; round < rounds; round++ {
		m := newTestMap(t, cfg)
		rec := lincheck.NewRecorder()
		var wg sync.WaitGroup
		for p := 0; p < procs; p++ {
			wg.Add(1)
			go func(p int, rseed int64) {
				defer wg.Done()
				h := m.NewHandle()
				defer h.Close()
				rng := rand.New(rand.NewSource(rseed))
				for i := 0; i < opsEach; i++ {
					k := int64(rng.Intn(keySpace))
					switch rng.Intn(3) {
					case 0:
						v := int64(p*1000 + i)
						inv := rec.Begin()
						ok := h.Insert(k, &v)
						rec.End(lincheck.Event{Proc: p, Kind: lincheck.KindInsert, Key: k, Val: v, RetOK: ok}, inv)
					case 1:
						inv := rec.Begin()
						ok := h.Remove(k)
						rec.End(lincheck.Event{Proc: p, Kind: lincheck.KindRemove, Key: k, RetOK: ok}, inv)
					default:
						inv := rec.Begin()
						pv, ok := h.Lookup(k)
						var rv int64
						if ok {
							rv = *pv
						}
						rec.End(lincheck.Event{Proc: p, Kind: lincheck.KindLookup, Key: k, RetOK: ok, RetVal: rv}, inv)
					}
				}
			}(p, int64(round*173+p))
		}
		wg.Wait()
		if ok, msg := lincheck.Check(rec.History()); !ok {
			t.Fatalf("round %d (chaos seed %#x): %s\n%s", round, seed, msg, m.Dump())
		}
		mustCheck(t, m)
	}
}
