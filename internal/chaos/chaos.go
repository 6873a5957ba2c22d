// Package chaos is a deterministic fault-injection layer for the skip
// vector's concurrency-critical paths. The correctness argument of the
// structure (Section IV of the paper) hinges on rare interleavings —
// seqlock validation failures mid-traversal, freeze/orphan transitions
// during splits and merges, hazard-pointer scans racing retirement — that
// ordinary test schedules almost never exercise. This package lets tests
// force those interleavings on demand.
//
// Production code calls two hooks at its injection sites:
//
//   - Step(site): may yield the processor or sleep briefly, widening the
//     window in which the calling goroutine is exposed mid-transition.
//   - Fail(site) bool: like Step, and additionally reports whether the
//     caller should simulate a failure (a spurious validation miss, a
//     failed freeze/upgrade, an early hazard scan). Forced failures are
//     only wired into sites where the caller's failure path is a retry, so
//     injection can never corrupt the structure — it only drives execution
//     down the restart/cleanup paths that real races would.
//
// When disabled (the default), both hooks reduce to a single atomic load
// and a predicted branch, so the layer costs nothing measurable on the hot
// paths. Tests enable it with Enable(Config) and must pair that with
// Disable(), which returns a Report of everything that was injected.
//
// Determinism: every decision is a pure function of (Config.Seed, the
// global step counter, the site). A single-goroutine run therefore
// replays its exact injection schedule from the seed alone; concurrent
// runs replay the same decision *sequence* (decision n is identical across
// runs), with the goroutine→step assignment following the actual
// interleaving. Reproducing a failure is: re-run with the same seed and
// tuning, which re-applies the same perturbation schedule.
package chaos

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// SeedFromEnv returns the seed a stress campaign should run with: the
// SV_SEED environment variable when set (decimal, or any base strconv's
// auto-detection accepts, e.g. 0x-prefixed hex), otherwise def. Harnesses
// that derive their chaos/lincheck schedules through this helper — and log
// the effective seed on failure — make every campaign failure replayable
// with SV_SEED=<logged value>. A malformed override is ignored in favor of
// def rather than silently zeroing the schedule.
func SeedFromEnv(def uint64) uint64 {
	if s := os.Getenv("SV_SEED"); s != "" {
		if v, err := strconv.ParseUint(s, 0, 64); err == nil {
			return v
		}
	}
	return def
}

// Site identifies an injection point in the production code.
type Site uint8

// Injection sites. The Seqlock* sites live in internal/seqlock, the
// Hazard* sites in internal/hazard, and the Core* sites at the structural
// transitions in internal/core.
const (
	// SeqlockRead is hit on every ReadVersion; a forced failure makes the
	// snapshot attempt report a held lock, restarting the operation.
	SeqlockRead Site = iota
	// SeqlockValidate is hit on every Validate; a forced failure reports a
	// changed lock word, restarting the operation.
	SeqlockValidate
	// SeqlockUpgrade is hit on TryUpgrade (forced failure → CAS loss) and,
	// perturbation-only, on UpgradeFrozen.
	SeqlockUpgrade
	// SeqlockFreeze is hit on TryFreeze; a forced failure loses the CAS.
	SeqlockFreeze
	// SeqlockAcquire perturbs blocking Acquire before it takes the lock.
	SeqlockAcquire
	// HazardRetire is hit on Retire; a forced failure triggers an early
	// scan, racing reclamation against in-flight traversals.
	HazardRetire
	// HazardScan perturbs the window between a scan's hazard snapshot and
	// its reclamation sweep.
	HazardScan
	// CoreFreeze perturbs a tower insert right after it froze a node,
	// widening the frozen window other operations must navigate around. An
	// insert that draws no tower freezes nothing and never reaches it.
	CoreFreeze
	// CoreSplit perturbs splits: between per-layer publications of a
	// multi-layer insert and before a capacity split links its orphan.
	CoreSplit
	// CoreMerge perturbs mergeOrphan between lock acquisition and the
	// absorb/unlink writes.
	CoreMerge
	// CoreOrphan perturbs Remove's hand-over-hand descent right after a
	// child is marked an orphan and before its parent is released.
	CoreOrphan
	// CoreFinger is hit when an operation tries to resume from its search
	// finger, between publishing the hazard pointer and revalidating the
	// remembered seqlock version; a forced failure simulates the node having
	// changed, driving the finger-miss fallback to the full descent.
	CoreFinger
	// CoreBatch is hit in the group commit, the data layer's write kernel,
	// which every ApplyBatch group and every singleton Insert, Upsert and
	// Remove that changes only the data layer goes through (a singleton is a
	// group of one): before a group's descent (a forced failure restarts the
	// group after its predecessor groups already committed), after the
	// group's write lock is taken but before any slot is applied (a forced
	// failure aborts and restarts the group — the window where a torn batch
	// would be observable if groups were not individually atomic), and
	// perturbation-only between the multi-slot applications inside one held
	// lock.
	CoreBatch
	// CoreSnapshot is hit in the snapshot subsystem: on every node visit of
	// a snapshot scan (a forced failure simulates a torn optimistic read of
	// the node, driving the local re-read loop — never a full restart), and
	// perturbation-only inside the copy-on-write publication window between
	// the epoch advance and the version-store insert.
	CoreSnapshot
	// WALTornWrite is consulted by the WAL's crash-simulating filesystem when
	// it discards unsynced bytes: a forced failure tears the last unsynced
	// write to a byte prefix instead of dropping or keeping it whole, so
	// recovery must truncate a mid-frame tail. Failure here drives the
	// recovery/truncation path, never corruption of a synced prefix.
	WALTornWrite
	// WALCrashPoint perturbs the WAL's crash-critical transitions: before and
	// after an fsync, between a checkpoint's segment writes, and on either
	// side of the manifest rename that commits a compaction. Perturbation-only
	// in production code; the crash campaign schedules actual kills at these
	// same boundaries through the injected filesystem.
	WALCrashPoint
	// ShardRebalance is hit at every step boundary of a shard migration
	// (plan, seal publication and writer drain, sealed copy, final table
	// publication): a forced failure makes the migrator abort and roll back
	// at exactly that step — unsealing if it had sealed, dropping the
	// half-built destination shards — so injection drives the abort/retry
	// paths a mid-migration crash or planner cancellation would. Aborts
	// never lose data: the source shards stay authoritative until the final
	// publication succeeds.
	ShardRebalance

	// NumSites is the number of injection sites (array-sizing constant).
	NumSites
)

// String names the site for reports and failure messages.
func (s Site) String() string {
	switch s {
	case SeqlockRead:
		return "seqlock.read"
	case SeqlockValidate:
		return "seqlock.validate"
	case SeqlockUpgrade:
		return "seqlock.upgrade"
	case SeqlockFreeze:
		return "seqlock.freeze"
	case SeqlockAcquire:
		return "seqlock.acquire"
	case HazardRetire:
		return "hazard.retire"
	case HazardScan:
		return "hazard.scan"
	case CoreFreeze:
		return "core.freeze"
	case CoreSplit:
		return "core.split"
	case CoreMerge:
		return "core.merge"
	case CoreOrphan:
		return "core.orphan"
	case CoreFinger:
		return "core.finger"
	case CoreBatch:
		return "core.batch"
	case CoreSnapshot:
		return "core.snapshot"
	case WALTornWrite:
		return "wal.tornwrite"
	case WALCrashPoint:
		return "wal.crashpoint"
	case ShardRebalance:
		return "shard.rebalance"
	default:
		return fmt.Sprintf("Site(%d)", int(s))
	}
}

// SiteMask selects which sites an injector acts on.
type SiteMask uint32

// AllSites enables every injection site.
func AllSites() SiteMask { return SiteMask(1)<<NumSites - 1 }

// MaskOf builds a mask from individual sites.
func MaskOf(sites ...Site) SiteMask {
	var m SiteMask
	for _, s := range sites {
		m |= SiteMask(1) << s
	}
	return m
}

// Action is what the injector decided to do at one hook hit.
type Action uint8

// Actions, in decision-priority order.
const (
	ActionNone  Action = iota
	ActionFail         // simulate a failure (Fail sites only)
	ActionDelay        // sleep Config.Delay
	ActionYield        // runtime.Gosched
)

func (a Action) String() string {
	switch a {
	case ActionNone:
		return "none"
	case ActionFail:
		return "fail"
	case ActionDelay:
		return "delay"
	case ActionYield:
		return "yield"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// Config tunes an injection run. The *OneIn fields are probability
// denominators: each hook hit draws an independent 1-in-N chance per
// action; zero disables that action entirely.
type Config struct {
	// Seed makes the decision schedule reproducible. Zero is replaced with
	// a fixed constant so an empty Config is still deterministic.
	Seed uint64
	// FailOneIn forces a failure on ~1/N of Fail-site hits.
	FailOneIn uint64
	// DelayOneIn sleeps Delay on ~1/N of hits.
	DelayOneIn uint64
	// YieldOneIn yields the processor on ~1/N of hits.
	YieldOneIn uint64
	// Delay is the ActionDelay sleep length (default 20µs).
	Delay time.Duration
	// Sites restricts injection to the masked sites (default: all).
	Sites SiteMask
	// Record captures every non-none decision in the Report's Trace.
	Record bool
}

// SiteStats counts what happened at one site during a run.
type SiteStats struct {
	Calls  uint64 // hook hits (after site masking)
	Fails  uint64
	Delays uint64
	Yields uint64
}

// Decision is one recorded injection: at global step Step, site Site took
// action Action.
type Decision struct {
	Step   uint64
	Site   Site
	Action Action
}

// Report summarizes an injection run; returned by Disable.
type Report struct {
	Seed  uint64
	Steps uint64 // total hook hits across all sites
	Sites [NumSites]SiteStats
	Trace []Decision // non-none decisions, when Config.Record was set
}

// Fails returns the total number of forced failures across all sites.
func (r Report) Fails() uint64 {
	var n uint64
	for _, s := range r.Sites {
		n += s.Fails
	}
	return n
}

// Perturbations returns the total number of yields and delays.
func (r Report) Perturbations() uint64 {
	var n uint64
	for _, s := range r.Sites {
		n += s.Yields + s.Delays
	}
	return n
}

// String renders a per-site summary for test logs.
func (r Report) String() string {
	out := fmt.Sprintf("chaos seed=%#x steps=%d", r.Seed, r.Steps)
	for i, s := range r.Sites {
		if s.Calls == 0 {
			continue
		}
		out += fmt.Sprintf(" %v{calls=%d fails=%d delays=%d yields=%d}",
			Site(i), s.Calls, s.Fails, s.Delays, s.Yields)
	}
	return out
}

// injector is the state of one enabled run.
type injector struct {
	cfg   Config
	steps atomic.Uint64
	stats [NumSites]struct {
		calls, fails, delays, yields atomic.Uint64
	}
	mu    sync.Mutex
	trace []Decision
}

var (
	// enabled gates the hooks; it is the only state touched when disabled.
	enabled atomic.Bool
	active  atomic.Pointer[injector]
	adminMu sync.Mutex // serializes Enable/Disable
)

// Enabled reports whether an injector is active.
func Enabled() bool { return enabled.Load() }

// Enable installs an injector. It panics if one is already active: chaos
// is process-global, so tests must not overlap enabled regions.
func Enable(cfg Config) {
	adminMu.Lock()
	defer adminMu.Unlock()
	if enabled.Load() {
		panic("chaos: Enable while already enabled")
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0xc4a05c4a05c4a05
	}
	if cfg.Sites == 0 {
		cfg.Sites = AllSites()
	}
	if cfg.Delay <= 0 {
		cfg.Delay = 20 * time.Microsecond
	}
	active.Store(&injector{cfg: cfg})
	enabled.Store(true)
}

// Disable removes the active injector and returns its report. It panics
// when no injector is active.
func Disable() Report {
	adminMu.Lock()
	defer adminMu.Unlock()
	in := active.Load()
	if in == nil {
		panic("chaos: Disable while not enabled")
	}
	enabled.Store(false)
	active.Store(nil)
	// Hooks that passed the enabled check before the store may still be
	// finishing inside in.do; they only touch in's own fields, which stay
	// valid, so the report below is at worst a few steps short.
	return in.report()
}

// Step gives the injector a chance to perturb scheduling at site. It never
// forces a failure. No-op (one atomic load) when chaos is disabled.
func Step(site Site) {
	if !enabled.Load() {
		return
	}
	if in := active.Load(); in != nil {
		in.do(site, false)
	}
}

// Fail perturbs like Step and reports whether the caller should simulate a
// failure at site. Always false when chaos is disabled.
func Fail(site Site) bool {
	if !enabled.Load() {
		return false
	}
	if in := active.Load(); in != nil {
		return in.do(site, true)
	}
	return false
}

// do draws the deterministic decision for one hook hit and applies its
// side effect. It returns true when the caller should simulate a failure.
func (in *injector) do(site Site, allowFail bool) bool {
	if in.cfg.Sites&(SiteMask(1)<<site) == 0 {
		return false
	}
	n := in.steps.Add(1)
	st := &in.stats[site]
	st.calls.Add(1)

	// Decision = pure function of (seed, step, site). Independent bit
	// ranges of one mixed word drive the per-action draws.
	h := mix64(in.cfg.Seed ^ n*0x9e3779b97f4a7c15 ^ uint64(site)<<56)
	act := ActionNone
	switch {
	case allowFail && in.cfg.FailOneIn > 0 && h%in.cfg.FailOneIn == 0:
		act = ActionFail
		st.fails.Add(1)
	case in.cfg.DelayOneIn > 0 && (h>>21)%in.cfg.DelayOneIn == 0:
		act = ActionDelay
		st.delays.Add(1)
	case in.cfg.YieldOneIn > 0 && (h>>42)%in.cfg.YieldOneIn == 0:
		act = ActionYield
		st.yields.Add(1)
	}
	if in.cfg.Record && act != ActionNone {
		in.mu.Lock()
		in.trace = append(in.trace, Decision{Step: n, Site: site, Action: act})
		in.mu.Unlock()
	}
	switch act {
	case ActionDelay:
		time.Sleep(in.cfg.Delay)
	case ActionYield:
		runtime.Gosched()
	}
	return act == ActionFail
}

func (in *injector) report() Report {
	r := Report{Seed: in.cfg.Seed, Steps: in.steps.Load()}
	for i := range in.stats {
		r.Sites[i] = SiteStats{
			Calls:  in.stats[i].calls.Load(),
			Fails:  in.stats[i].fails.Load(),
			Delays: in.stats[i].delays.Load(),
			Yields: in.stats[i].yields.Load(),
		}
	}
	in.mu.Lock()
	r.Trace = append([]Decision(nil), in.trace...)
	in.mu.Unlock()
	return r
}

// mix64 is the SplitMix64 finalizer: a cheap, well-distributed bijection.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
