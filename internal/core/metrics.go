package core

import (
	"io"
	"unsafe"

	"skipvector/internal/telemetry"
)

// initMetrics builds the map's metric registry. Most entries are func-backed
// collectors over counters the map already maintains (always-on atomics,
// striped counters, hazard-domain totals), evaluated only at exposition time;
// the registry therefore adds no cost to any operation. The two instruments
// that would sit on per-operation paths — the descent-depth histogram and the
// freeze counter — are telemetry-native and gated on the global enable flag.
func (m *Map[V]) initMetrics() {
	r := telemetry.NewLabeledRegistry(m.cfg.MetricLabels...)
	m.reg = r

	m.descentDepth = r.Histogram("sv_descent_depth",
		"Index layers crossed by full descents of reads and data-layer writes (finger hits skip the descent and are not observed).")
	m.freezes = r.Counter("sv_freezes_total",
		"Successful node freezes by tower inserts, one per layer up to the key's height, data layer included (recorded only while telemetry is enabled).")
	m.batchSize = r.Histogram("sv_batch_size",
		"Op counts of non-empty ApplyBatch calls (recorded only while telemetry is enabled).")
	m.batchGroupSize = r.Histogram("sv_batch_group_size",
		"Op counts of ApplyBatch commit units — grouped chunk commits and singleton-routed key runs (recorded only while telemetry is enabled).")
	m.snapChainLen = r.Histogram("sv_snapshot_chain_len",
		"Resident version-store records observed at each copy-on-write push (recorded only while telemetry is enabled).")

	r.CounterFunc("sv_restarts_total",
		"Operation restarts after failed validation, across all op kinds.", func() int64 {
			var sum int64
			for op := range m.restartsByOp {
				sum += m.restartsByOp[op].Load()
			}
			return sum
		})
	for op, name := range map[opKind]string{
		opLookup: "sv_restarts_lookup_total",
		opInsert: "sv_restarts_insert_total",
		opRemove: "sv_restarts_remove_total",
		opNav:    "sv_restarts_nav_total",
		opRange:  "sv_restarts_range_total",
		opBatch:  "sv_restarts_batch_total",
		opSnap:   "sv_restarts_snapshot_total",
	} {
		r.CounterFunc(name, "Restarts charged to this operation kind.", m.restartsByOp[op].Load)
	}
	r.CounterFunc("sv_splits_total", "Chunk splits (capacity or keyed).", m.stats.Splits.Load)
	r.CounterFunc("sv_merges_total", "Orphan merges, including empty-orphan unlinks.", m.stats.Merges.Load)
	r.CounterFunc("sv_orphans_total", "Orphan nodes created by splits and index-tower removals.", m.stats.Orphans.Load)
	r.CounterFunc("sv_node_allocs_total", "Fresh node allocations.", m.mem.allocs.Load)
	r.CounterFunc("sv_node_reuses_total", "Nodes reused from the freelist.", m.mem.reuses.Load)
	r.CounterFunc("sv_node_retires_total", "Nodes retired for reclamation.", m.mem.retires.Load)
	r.CounterFunc("sv_finger_hits_total", "Operations that resumed from the search finger.", m.fingerHits.load)
	r.CounterFunc("sv_finger_misses_total", "Finger attempts that fell back to the full descent.", m.fingerMisses.load)
	r.CounterFunc("sv_batch_descents_saved_total",
		"ApplyBatch groups positioned by the search finger, skipping the descent.",
		m.batchDescSaved.load)
	r.GaugeFunc("sv_len", "Current key count.", func() float64 { return float64(m.length.load()) })

	// A scrape reads the series in registration order, so of each pair of
	// counters where one counts what the other already counted (a release
	// of a pin, a prune of a pushed record, a reclaim of a retired node),
	// the dependent one registers first: a scrape under churn then keeps the
	// bounds StatsSnapshot keeps (released ≤ pinned, pruned ≤ cow,
	// reclaimed ≤ retired).
	r.CounterFunc("sv_snapshots_released_total", "Snapshots released via Close.", m.snaps.releasedTotal.Load)
	r.CounterFunc("sv_snapshots_pinned_total", "Snapshots acquired.", m.snaps.pinnedTotal.Load)
	r.CounterFunc("sv_snapshots_leaked_total",
		"Snapshots reclaimed by a finalizer without ever being closed.", m.snaps.leaked.Load)
	r.CounterFunc("sv_snapshot_cow_pruned_total",
		"Pre-image records pruned once no pinned snapshot could see them.", m.vstore.pruned.Load)
	r.CounterFunc("sv_snapshot_cow_total",
		"Pre-image records pushed into the version store by copy-on-write writes.", m.vstore.pushed.Load)
	r.GaugeFunc("sv_snapshots_active", "Snapshots currently pinned.",
		func() float64 { return float64(m.snaps.count.Load()) })
	r.GaugeFunc("sv_snapshot_records", "Pre-image records resident in the version store.",
		func() float64 { return float64(m.vstore.resident()) })
	r.GaugeFunc("sv_snapshot_epoch", "Current global write epoch.",
		func() float64 { return float64(m.epoch.Load()) })

	if d := m.mem.domain; d != nil {
		r.CounterFunc("sv_hazard_reclaimed_total", "Nodes a scan proved unreachable and recycled.", d.RecycledCount)
		r.CounterFunc("sv_hazard_retired_total", "Retire calls into the hazard domain.", d.RetiredTotal)
		r.CounterFunc("sv_hazard_scans_total", "Reclamation scans performed.", d.Scans)
		r.GaugeFunc("sv_hazard_pending", "Nodes retired but not yet recycled (bounded garbage).",
			func() float64 { return float64(d.RetiredCount()) })
		r.GaugeFunc("sv_hazard_retire_hwm", "Longest retired list any handle reached (telemetry-gated).",
			func() float64 { return float64(d.RetireHWM()) })
		r.GaugeFunc("sv_hazard_handles", "Hazard handles registered with the domain.",
			func() float64 { return float64(d.Handles()) })
	}

	// Occupancy is collected by walking the structure at scrape time rather
	// than instrumenting the hot paths: chunk sizes change on every insert
	// and remove, but a scrape only needs the current distribution. The walk
	// reads sizes speculatively, so concurrent mutators make it approximate;
	// it is exact at quiescence, which is when the invariant suite reads it.
	r.HistogramFunc("sv_data_chunk_occupancy",
		"Element counts of data-layer chunks (walked at scrape time).",
		func() telemetry.HistSnapshot { return m.occupancyHist(true) })
	r.HistogramFunc("sv_index_chunk_occupancy",
		"Element counts of index-layer chunks (walked at scrape time).",
		func() telemetry.HistSnapshot { return m.occupancyHist(false) })
	r.GaugeFunc("sv_data_occupancy_mean", "Mean data-chunk element count.",
		func() float64 { return m.Occupancy().DataMean })
}

// Metrics returns the map's metrics combined with the process-global registry
// (seqlock and vectormap instruments) as a single exposable view. The view
// satisfies expvar.Var, so expvar.Publish("skipvector", m.Metrics()) puts the
// whole catalog on /debug/vars.
func (m *Map[V]) Metrics() *telemetry.View {
	return telemetry.NewView(m.reg, telemetry.Global)
}

// Registry exposes the map's own metric registry so callers can compose it
// with others (the WAL's, say) into one view.
func (m *Map[V]) Registry() *telemetry.Registry { return m.reg }

// WriteMetrics renders the full metric catalog in Prometheus text exposition
// format.
func (m *Map[V]) WriteMetrics(w io.Writer) error {
	return m.Metrics().WritePrometheus(w)
}

// OccupancySnapshot aggregates chunk fill across the structure. Interior
// (non-sentinel) nodes only: head and tail hold sentinel entries, not user
// data, and would skew the means the paper's locality argument rests on.
type OccupancySnapshot struct {
	DataChunks  int
	DataElems   int
	DataMean    float64
	IndexChunks int
	IndexElems  int
	IndexMean   float64
	// DataCells and IndexCells sum the capacities of the chunks' blocks,
	// the cells allocated, so that DataElems/DataCells is the data
	// blocks' fill.
	DataCells  int
	IndexCells int
	// DataChunksByKeyBytes and IndexChunksByKeyBytes count each layer
	// class's chunks by the width of their key cells: [1], [2], [4] and [8]
	// count blocks of 1-, 2-, 4- and 8-byte cells, a block of w < 8 bytes
	// holding keys that lie in one window of 2^8w values starting at a
	// multiple of 2^(8w-1) (in at most 64 cells at w = 1), so any keys less
	// than 2^(8w-1) apart; [0] counts empty chunks.
	DataChunksByKeyBytes, IndexChunksByKeyBytes [9]int
	// NodeBytes, DataBytes and IndexBytes are the walked bytes: the nodes
	// counted at their struct size, and each layer class's blocks at the
	// allocator size class they were allocated in. They are exact, unlike a
	// heap delta, and cover what the layers hold, not a boxed map's value
	// boxes or the snapshot version store.
	NodeBytes  int
	DataBytes  int
	IndexBytes int
}

// Occupancy walks every layer and reports chunk-fill aggregates. Sizes are
// read speculatively, so the snapshot is approximate while mutators run and
// exact at quiescence.
func (m *Map[V]) Occupancy() OccupancySnapshot {
	var s OccupancySnapshot
	for l := 0; l < m.cfg.LayerCount; l++ {
		m.walkLayer(l, func(n *node[V]) {
			if n.isIndex() {
				s.IndexChunksByKeyBytes[n.chunk.KeyBytes()]++
				s.IndexChunks++
				s.IndexElems += n.size()
				s.IndexCells += n.chunk.BlockCap()
				s.IndexBytes += n.chunk.BlockBytes()
			} else {
				s.DataChunksByKeyBytes[n.chunk.KeyBytes()]++
				s.DataChunks++
				s.DataElems += n.size()
				s.DataCells += n.chunk.BlockCap()
				s.DataBytes += n.chunk.BlockBytes()
			}
		})
	}
	s.NodeBytes = (s.DataChunks + s.IndexChunks) * int(unsafe.Sizeof(node[V]{}))
	if s.DataChunks > 0 {
		s.DataMean = float64(s.DataElems) / float64(s.DataChunks)
	}
	if s.IndexChunks > 0 {
		s.IndexMean = float64(s.IndexElems) / float64(s.IndexChunks)
	}
	return s
}

// occupancyHist walks one layer class into a histogram snapshot for the
// scrape-time collectors. The snapshot is assembled locally, not through a
// live Histogram: a scrape that asked for the distribution should get it
// regardless of whether hot-path recording is enabled.
func (m *Map[V]) occupancyHist(data bool) telemetry.HistSnapshot {
	var snap telemetry.HistSnapshot
	for l := 0; l < m.cfg.LayerCount; l++ {
		if (l == 0) != data {
			continue
		}
		m.walkLayer(l, func(n *node[V]) {
			v := int64(n.size())
			snap.Buckets[telemetry.BucketOf(v)]++
			snap.Count++
			if v > 0 {
				snap.Sum += v
			}
		})
	}
	return snap
}

// walkLayer calls fn for every interior node of layer l, left to right. The
// head is m.heads[l]; the tail is the unique node whose next pointer is nil.
// Both are excluded.
func (m *Map[V]) walkLayer(l int, fn func(n *node[V])) {
	for n := m.heads[l].next.Load(); n != nil && n.next.Load() != nil; n = n.next.Load() {
		fn(n)
	}
}

// FlushRetired forces a reclamation scan on every pooled context's hazard
// handle. At quiescence — no operations in flight, all Handles and Cursors
// closed, so every context is back in the pool and no hazard slot is
// published — it drains pending garbage to exactly zero. The leak test uses
// it to separate "awaiting a scan" (fine, bounded) from "leaked" (a bug).
func (m *Map[V]) FlushRetired() {
	if m.mem.domain == nil {
		return
	}
	m.ctxs.mu.Lock()
	free := append([]*opCtx[V](nil), m.ctxs.free...)
	m.ctxs.mu.Unlock()
	for _, c := range free {
		if c.h != nil {
			c.h.Flush()
		}
	}
}
