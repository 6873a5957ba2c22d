// Package telemetry is the skip vector's low-overhead metrics layer: sharded
// counters, gauges, high-water trackers, and power-of-two-bucket histograms,
// collected into named registries that render as Prometheus text exposition
// or expvar-compatible JSON.
//
// The package follows the same cost discipline as internal/chaos: recording
// is gated on a single package-global atomic flag, so when telemetry is
// disabled (the default) every hook on a hot path reduces to one atomic load
// and a predicted branch. Reads (Load, Snapshot, registry exposition) always
// work, returning whatever was recorded while the flag was up. This split
// matters because the instrumented sites include per-operation paths — the
// seqlock spin loops, the insert freeze, the index descent — where even one
// uncontended atomic RMW per operation would be measurable.
//
// Writes are sharded: a Counter or Histogram spreads its increments across
// cache-line-padded stripes, chosen per caller, so a counter bumped on every
// operation by every goroutine never becomes the contention point the data
// structure itself is built to avoid. Callers with a natural stripe (the
// per-operation context) pass it via the *At variants; callers without one
// (the seqlock, whose only identity is the lock's address) pass any cheap
// locality token to the hinted variants.
//
// None of the aggregates are cross-field-consistent snapshots: a sum read
// while writers run is a value that the true total passed through, which is
// exactly what monotonic metrics need and all they promise.
package telemetry

import (
	"math/bits"
	"sync/atomic"
)

// enabled gates all recording. Reads are never gated.
var enabled atomic.Bool

// Enabled reports whether recording is on.
func Enabled() bool { return enabled.Load() }

// SetEnabled turns recording on or off. Metrics keep their accumulated
// values across transitions; callers that want a clean run snapshot before
// enabling and diff afterwards.
func SetEnabled(on bool) { enabled.Store(on) }

// Enable turns recording on. Shorthand for SetEnabled(true).
func Enable() { enabled.Store(true) }

// Disable turns recording off. Shorthand for SetEnabled(false).
func Disable() { enabled.Store(false) }

// numStripes is the sharding width of counters and histograms. 16 padded
// stripes keep concurrent writers off each other's cache lines up to the
// thread counts the paper evaluates.
const numStripes = 16

// padCell is one cache-line-padded atomic cell.
type padCell struct {
	v atomic.Int64
	_ [7]int64
}

// Counter is a monotonically increasing, sharded counter.
type Counter struct {
	stripes [numStripes]padCell
}

// Inc adds 1 using the caller-supplied stripe hint.
func (c *Counter) Inc(hint int) { c.Add(hint, 1) }

// Add adds n on the hinted stripe. hint is any cheap locality token — a
// per-goroutine stripe id, low bits of a pointer — reduced modulo the stripe
// count; correctness never depends on it, only write-side contention.
func (c *Counter) Add(hint int, n int64) {
	if !enabled.Load() {
		return
	}
	c.stripes[uint(hint)%numStripes].v.Add(n)
}

// Load returns the current total across all stripes.
func (c *Counter) Load() int64 {
	var sum int64
	for i := range c.stripes {
		sum += c.stripes[i].v.Load()
	}
	return sum
}

// Max is a high-water-mark tracker: Observe keeps the largest value seen.
type Max struct {
	v atomic.Int64
}

// Observe raises the mark to v if v exceeds it.
func (m *Max) Observe(v int64) {
	if !enabled.Load() {
		return
	}
	for {
		cur := m.v.Load()
		if v <= cur || m.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the high-water mark.
func (m *Max) Load() int64 { return m.v.Load() }

// Reset clears the mark. High-water marks are deliberately sticky — a
// transient spike should survive until someone reads it — so Reset exists for
// the rare caller that has explained the spike and wants to watch for the
// next one (e.g. the invariant suite after clearing an injected fault).
func (m *Max) Reset() { m.v.Store(0) }

// NumBuckets is the fixed bucket count of every Histogram. Bucket 0 counts
// zero-valued observations; bucket i (1 ≤ i < NumBuckets-1) counts values in
// [2^(i-1), 2^i); the last bucket is the overflow (≥ 2^(NumBuckets-2)).
// Eighteen buckets span 0..65535 exactly, which covers every instrumented
// quantity (spin counts, descent depths, shift distances, chunk sizes) with
// room to spare.
const NumBuckets = 18

// Histogram is a sharded power-of-two-bucket histogram with an exact count
// and sum (so means are exact even though bucket boundaries are coarse).
type Histogram struct {
	stripes [numStripes]histStripe
}

type histStripe struct {
	buckets [NumBuckets]atomic.Int64
	sum     atomic.Int64
	_       [4]int64
}

// BucketOf maps a value to its bucket index. Negative values clamp to 0:
// every instrumented quantity is a size or a count, so a negative can only
// come from a racy snapshot and belongs with the zeros. Exported so callers
// that assemble a HistSnapshot by hand (scrape-time structural walks) bucket
// identically to live histograms.
func BucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b > NumBuckets-1 {
		return NumBuckets - 1
	}
	return b
}

// Observe records one value on the hinted stripe.
func (h *Histogram) Observe(hint int, v int64) {
	if !enabled.Load() {
		return
	}
	st := &h.stripes[uint(hint)%numStripes]
	st.buckets[BucketOf(v)].Add(1)
	if v > 0 {
		st.sum.Add(v)
	}
}

// HistSnapshot is a point-in-time aggregate of a Histogram.
type HistSnapshot struct {
	Count   int64
	Sum     int64
	Buckets [NumBuckets]int64
}

// Mean returns the average observed value (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// UpperBound returns the inclusive upper bound of bucket i, with the last
// bucket reported as -1 (+Inf).
func UpperBound(i int) int64 {
	switch {
	case i == 0:
		return 0
	case i >= NumBuckets-1:
		return -1
	default:
		return int64(1)<<i - 1
	}
}

// Snapshot sums the stripes. Concurrent writers may land between stripe
// reads; each field is individually a value the true aggregate passed
// through.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.stripes {
		st := &h.stripes[i]
		for b := range st.buckets {
			s.Buckets[b] += st.buckets[b].Load()
		}
		s.Sum += st.sum.Load()
	}
	for _, c := range s.Buckets {
		s.Count += c
	}
	return s
}
