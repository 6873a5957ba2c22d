package shard

import (
	"io"

	"skipvector/internal/telemetry"
)

// initMetrics builds the router's own registry. Everything is func-backed
// over always-on atomics, so the hot path pays nothing for exposition.
func (s *Sharded[V]) initMetrics() {
	r := telemetry.NewRegistry()
	s.reg = r
	r.GaugeFunc("sv_shard_count", "Shards in the current boundary table.",
		func() float64 { return float64(len(s.tab.Load().maps)) })
	r.CounterFunc("sv_shard_router_swaps_total",
		"Boundary-table publications (1 at construction; +1 per rebalance).", s.swaps.Load)
	r.CounterFunc("sv_shard_batch_fanout_total",
		"ApplyBatch calls partitioned across more than one shard.", s.fanouts.Load)
	r.CounterFunc("sv_shard_batch_fanout_parts_total",
		"Per-shard commit units issued by fanned-out batches.", s.fanoutParts.Load)
	r.CounterFunc("sv_shard_batch_single_total",
		"ApplyBatch calls resolved entirely inside one shard.", s.singleBatch.Load)
	r.CounterFunc("sv_shard_rebalance_splits_total",
		"Completed shard-split migrations.", s.rebSplits.Load)
	r.CounterFunc("sv_shard_rebalance_merges_total",
		"Completed shard-merge migrations.", s.rebMerges.Load)
	r.CounterFunc("sv_shard_rebalance_aborts_total",
		"Migrations aborted mid-flight and rolled back.", s.rebAborts.Load)
	r.CounterFunc("sv_shard_rebalance_keys_copied_total",
		"Pairs copied from frozen sources by completed migrations.", s.rebCopied.Load)
	r.CounterFunc("sv_shard_rebalance_seal_ns_total",
		"Total nanoseconds the per-range write redirect was in force.", s.rebSealNanos.Load)
	r.CounterFunc("sv_shard_rebalance_seal_waits_total",
		"Writes that parked on a sealed (migrating) key range.", s.sealWaits.Load)
}

// Metrics rolls the router registry, every shard's labeled registry, and the
// process-global registry into one exposable view. Shard registries carry
// shard="i" const labels, so the N copies of each sv_* family appear as N
// distinct series under a single HELP/TYPE header.
func (s *Sharded[V]) Metrics() *telemetry.View {
	maps := s.tab.Load().maps
	regs := make([]*telemetry.Registry, 0, len(maps)+2)
	regs = append(regs, s.reg)
	for _, m := range maps {
		regs = append(regs, m.Registry())
	}
	regs = append(regs, telemetry.Global)
	return telemetry.NewView(regs...)
}

// Registry exposes the router's own registry for external composition.
func (s *Sharded[V]) Registry() *telemetry.Registry { return s.reg }

// WriteMetrics renders the combined catalog in Prometheus text exposition
// format.
func (s *Sharded[V]) WriteMetrics(w io.Writer) error {
	return s.Metrics().WritePrometheus(w)
}
