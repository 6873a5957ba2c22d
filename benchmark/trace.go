package main

import (
	"bufio"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"skipvector"
	"skipvector/benchmark/layers"
)

// The traced pass. It answers "which layer spent the time" with the
// benchmark's own spans around the calls into each layer: the workload's op
// list runs once through the facade with telemetry on, then the same list is
// replayed against each lower layer's own interface. Spans of the same op_id
// and thread in two layers are the same request, so a layer's self time is
// its spans' time minus its child's. End-to-end metrics never come from this
// pass: it runs with telemetry on and pays for the span records.

// Lower-layer targets. The adapters' Session methods return their own
// concrete types; these wrappers give them the runner's interface type.
type coreTarget struct{ *layers.CoreMap }

func (c coreTarget) Session() session             { return c.CoreMap.Session() }
func (c coreTarget) Counters() map[string]float64 { return counters(c.Metrics()) }

type shardTarget struct{ *layers.ShardMap }

func (s shardTarget) Session() session             { return s.ShardMap.Session() }
func (s shardTarget) Counters() map[string]float64 { return counters(s.Metrics()) }

// spanGroup is one thread's spans in one layer of one workload.
type spanGroup struct {
	workload, layer, parent string
	thread                  int
	spans                   []span
}

// tracer keeps every span in memory until the benchmark ends.
type tracer struct{ groups []spanGroup }

func (tr *tracer) add(workload, layer, parent string, r *rep) {
	for _, rn := range r.runners {
		tr.groups = append(tr.groups, spanGroup{workload, layer, parent, rn.t, rn.spans})
	}
}

func (tr *tracer) count() int {
	n := 0
	for _, g := range tr.groups {
		n += len(g.spans)
	}
	return n
}

// writeCSV writes one line per span. A span is identified by (workload,
// thread, layer, op_id); its parent is the span with the same workload,
// thread and op_id in the parent layer.
func (tr *tracer) writeCSV(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString("op_id,parent,workload,thread,layer,op,start_ns,end_ns\n")
	var line []byte
	for _, g := range tr.groups {
		for _, s := range g.spans {
			line = strconv.AppendInt(line[:0], int64(s.id), 10)
			line = append(line, ',')
			line = append(line, g.parent...)
			line = append(line, ',')
			line = append(line, g.workload...)
			line = append(line, ',')
			line = strconv.AppendInt(line, int64(g.thread), 10)
			line = append(line, ',')
			line = append(line, g.layer...)
			line = append(line, ',')
			line = append(line, opNames[s.kind]...)
			line = append(line, ',')
			line = strconv.AppendInt(line, s.start, 10)
			line = append(line, ',')
			line = strconv.AppendInt(line, s.end, 10)
			line = append(line, '\n')
			w.Write(line)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// typicalNs estimates what one call costs in a layer from its sampled spans:
// the median duration of each op kind, weighted by how many calls of that kind
// the op lists hold. Medians, because the passes that are subtracted from one
// another run minutes apart on a host whose speed wanders, and a mean would
// carry every stall of its own pass into the difference. Admin calls are left
// out; they are reported on their own.
func typicalNs(groups [][]span, weights *[numOpKinds]float64) float64 {
	var byKind [numOpKinds][]int64
	for _, spans := range groups {
		for _, s := range spans {
			byKind[s.kind] = append(byKind[s.kind], s.end-s.start)
		}
	}
	total, calls := 0.0, 0.0
	for k, d := range byKind {
		calls += weights[k]
		if len(d) > 0 {
			sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
			total += weights[k] * float64(d[len(d)/2])
		}
	}
	return total / calls
}

// callWeights counts the calls of each kind in the repetition's op lists.
func callWeights(r *rep) *[numOpKinds]float64 {
	var w [numOpKinds]float64
	for _, rn := range r.runners {
		for _, o := range rn.ops {
			if o.kind.class() != classAdmin {
				w[o.kind]++
			}
		}
	}
	return &w
}

func spansOf(r *rep) [][]span {
	out := make([][]span, len(r.runners))
	for i, rn := range r.runners {
		out[i] = rn.spans
	}
	return out
}

// spanSeconds sums the duration of the spans of the given kinds.
func spanSeconds(r *rep, kinds ...opKind) float64 {
	var ns int64
	for _, rn := range r.runners {
		for _, s := range rn.spans {
			for _, k := range kinds {
				if s.kind == k {
					ns += s.end - s.start
				}
			}
		}
	}
	return float64(ns) / 1e9
}

func throughput(r *rep) float64 { return float64(r.calls) / r.wallS }

// tracedPass runs one workload's traced pass and returns its per-layer
// metrics. Attempted and failed ops are counted over every replay: each one
// is checked by the same oracle as the facade pass.
func tracedPass(w *workload, seed uint64, seconds int, tmp string, tr *tracer) (*workloadResult, error) {
	n, budget := opsPerRep(w, seconds), repBudget(seconds)
	wr := newWorkloadResult(w, n, 1)
	pass := func(open func(string) (target, error), trace bool) (*rep, error) {
		r, err := runRep(w, open, seed, 0, n, budget, trace, tmp)
		if err == nil {
			wr.absorb(r)
		}
		return r, err
	}

	// Reference: one repetition as the end-to-end pass runs it. Then the one
	// repetition with telemetry on, which supplies the counts; spans are
	// recorded with telemetry off again, so that the times they attribute are
	// those of the configuration the end-to-end pass measures.
	ref, err := pass(w.open, false)
	if err != nil {
		return nil, err
	}
	lists := wr.OplistFNV // every later pass runs the same lists
	skipvector.SetTelemetry(true)
	counted, err := pass(w.open, false)
	skipvector.SetTelemetry(false)
	if err != nil {
		return nil, err
	}
	facade, err := pass(w.open, true)
	if err != nil {
		return nil, err
	}
	tr.add(w.name, "skipvector", "", facade)

	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.Name] = 0 // a layer the workload does not touch reports 0
	}
	m["telemetry.on_throughput_ratio"] = throughput(counted) / throughput(ref)
	m["benchmark.trace_overhead_ratio"] = throughput(facade) / throughput(ref)
	weights := callWeights(facade)
	facadeNs := typicalNs(spansOf(facade), weights)

	// Replays, top down.
	_, durable := facade.after["sv_wal_records_appended_total"]
	_, sharded := facade.after["sv_shard_count"]
	coreParent, shardNs := "skipvector", 0.0
	if sharded {
		coreParent = "shard"
		r, err := pass(func(string) (target, error) {
			s, err := layers.OpenShard(keySpace, initialShards)
			return shardTarget{s}, err
		}, true)
		if err != nil {
			return nil, err
		}
		tr.add(w.name, "shard", "skipvector", r)
		shardNs = typicalNs(spansOf(r), weights)
	}
	var commits *layers.CommitLog
	if durable {
		commits = layers.NewCommitLog(threads)
	}
	core, err := pass(func(string) (target, error) {
		c, err := layers.OpenCore(commits)
		return coreTarget{c}, err
	}, true)
	if err != nil {
		return nil, err
	}
	tr.add(w.name, "core", coreParent, core)
	coreNs := typicalNs(spansOf(core), weights)
	m["core.ns_per_op"] = coreNs
	m["skipvector.self_ns_per_op"] = facadeNs - coreNs
	if sharded {
		m["shard.self_ns_per_op"] = shardNs - coreNs
		m["skipvector.self_ns_per_op"] = facadeNs - shardNs
	}
	if durable {
		walNs, err := walReplay(w, facade, weights, commits, tmp, tr, m)
		if err != nil {
			return nil, err
		}
		m["skipvector.durable_self_ns_per_op"] = facadeNs - coreNs - walNs
		m["skipvector.self_ns_per_op"] = m["skipvector.durable_self_ns_per_op"]
	}

	if err := kernels(facade.runners[0], sharded, m); err != nil {
		return nil, err
	}
	counterMetrics(counted, weights[opBatchSeq]+weights[opBatchRand], m)
	m["wal.checkpoint_s"] = spanSeconds(facade, opCompact)
	m["shard.migrate_s"] = spanSeconds(facade, opSplit, opMerge)
	wr.PerLayer, wr.OplistFNV = m, lists
	return wr, checkNames(m, perLayer)
}

// walReplay feeds the commit stream captured during the core replay to a
// fresh log, records its spans under the facade's op_ids, and fills the wal
// timing metrics. It returns the estimated total time the calls spent in the
// log, on the same scale as typicalNs.
func walReplay(w *workload, facade *rep, weights *[numOpKinds]float64, commits *layers.CommitLog, tmp string, tr *tracer, m map[string]float64) (float64, error) {
	// The seq-th write call of a thread is the seq-th mutating op of its list.
	ids := make([][]int32, threads)
	for t, rn := range facade.runners {
		for i, o := range rn.ops {
			if o.kind.mutates() {
				ids[t] = append(ids[t], int32(i))
			}
		}
	}
	timed := func(t, seq int) bool {
		id, rn := int(ids[t][seq]), facade.runners[t]
		return rn.timed(id, rn.ops[id].kind.class())
	}
	dir, err := os.MkdirTemp(tmp, "walreplay")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	res, err := layers.ReplayWAL(dir, commits, timed, func() time.Duration { return time.Duration(now()) })
	if err != nil {
		return 0, err
	}
	var totalNs, appendNs, commitNs, records, timedCalls float64
	var groups [][]span
	for t, calls := range res.Calls {
		g := spanGroup{workload: w.name, layer: "wal", parent: "skipvector", thread: t}
		for _, c := range calls {
			id := ids[t][c.Seq]
			kind := facade.runners[t].ops[id].kind
			weight := 1.0
			if kind.class() == classWrite {
				weight = float64(w.sampleEvery)
			}
			g.spans = append(g.spans, span{id: id, kind: kind, start: int64(c.Start), end: int64(c.End)})
			totalNs += weight * float64(c.End-c.Start)
			appendNs += weight * float64(c.Appended-c.Start)
			commitNs += weight * float64(c.End-c.Appended)
			records += weight * float64(c.Records)
			timedCalls += weight
		}
		tr.groups = append(tr.groups, g)
		groups = append(groups, g.spans)
	}
	m["wal.append_ns_per_record"] = appendNs / max(records, 1)
	m["wal.commit_ns_per_call"] = commitNs / max(timedCalls, 1)
	m["wal.busy_s"] = totalNs / 1e9
	m["wal.recover_ns_per_record"] = float64(res.Recover.Nanoseconds()) / float64(max(res.RecoverRecords, 1))
	return typicalNs(groups, weights), nil
}

// kernels times the leaf layers alone on thread 0's key stream.
func kernels(rn *runner, sharded bool, m map[string]float64) error {
	const maxBatches = 4096 // enough for a stable mean; bounds the kernel's run time
	var reads, writes, all []int64
	var batches [][]int64
	for i, o := range rn.ops {
		k := int64(o.key)
		switch o.kind.class() {
		case classRead:
			reads = append(reads, k)
		case classWrite:
			writes = append(writes, k)
		case classBatch:
			if len(batches) < maxBatches {
				batches = append(batches, batchKeys(o, i, rn.t, nil))
			}
		}
		if o.kind.class() != classAdmin {
			all = append(all, k)
		}
	}
	ck := layers.VectormapKernel(keySpace, reads, writes, batches)
	m["vectormap.search_ns_per_call"] = ck.SearchNsPerCall
	m["vectormap.insert_remove_ns_per_call"] = ck.InsertRemoveNsPerCall
	m["vectormap.apply_ops_ns_per_key"] = ck.ApplyOpsNsPerKey
	m["seqlock.read_validate_ns"], m["seqlock.acquire_release_ns"] = layers.SeqlockKernel(keySpace, reads, writes)
	m["hazard.protect_clear_ns"], m["hazard.retire_scan_ns_per_node"] = layers.HazardKernel(reads, 1<<16)
	if sharded {
		ns, err := layers.RouteKernel(keySpace, initialShards, all)
		if err != nil {
			return err
		}
		m["shard.route_ns_per_call"] = ns
	}
	return nil
}

// counterMetrics fills the metrics that are deltas of the program's own
// counters over the facade's traced repetition. On the sharded map a
// migration replaces a shard's map and with it that shard's counters, so the
// per-shard sums can shrink; such a delta is reported as 0.
func counterMetrics(r *rep, batches float64, m map[string]float64) {
	delta := func(series string) float64 { return max(r.after[series]-r.before[series], 0) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	calls := float64(r.calls)
	m["core.descent_depth_mean"] = ratio(delta("sv_descent_depth_sum"), delta("sv_descent_depth_count"))
	m["cpuhint.prefetch_issued_per_op"] = delta("sv_prefetch_issued_total") / calls
	m["core.finger_hit_ratio"] = ratio(delta("sv_finger_hits_total"), delta("sv_finger_hits_total")+delta("sv_finger_misses_total"))
	m["core.batch_descents_saved_per_batch"] = ratio(delta("sv_batch_descents_saved_total"), batches)
	m["core.splits"] = delta("sv_splits_total")
	m["core.merges"] = delta("sv_merges_total")
	m["core.orphans"] = delta("sv_orphans_total")
	m["vectormap.insert_shift_mean"] = ratio(delta("sv_vectormap_insert_shift_sum"), delta("sv_vectormap_insert_shift_count"))
	m["core.restarts_per_kop"] = 1000 * delta("sv_restarts_total") / calls
	m["seqlock.read_aborts"] = delta("sv_seqlock_read_aborts_total")
	m["seqlock.acquire_spins"] = delta("sv_seqlock_acquire_spins_total")
	m["seqlock.upgrade_cas_failures"] = delta("sv_seqlock_upgrade_cas_failures_total")
	m["hazard.retired"] = delta("sv_hazard_retired_total")
	m["hazard.reclaimed"] = delta("sv_hazard_reclaimed_total")
	m["hazard.scans"] = delta("sv_hazard_scans_total")
	m["hazard.retire_hwm"] = r.after["sv_hazard_retire_hwm"]
	m["core.node_reuse_ratio"] = ratio(delta("sv_node_reuses_total"), delta("sv_node_reuses_total")+delta("sv_node_allocs_total"))
	m["core.snapshot_cow"] = delta("sv_snapshot_cow_total")
	m["wal.checkpoint_chunks"] = delta("sv_wal_checkpoint_chunks_total")
	m["wal.records_appended"] = delta("sv_wal_records_appended_total")
	m["wal.bytes_appended"] = delta("sv_wal_bytes_appended_total")
	m["wal.fsyncs"] = delta("sv_wal_fsyncs_total")
	m["wal.records_per_fsync"] = ratio(m["wal.records_appended"], m["wal.fsyncs"])
	m["wal.segments_created"] = delta("sv_wal_segments_created_total")
	m["wal.records_replayed"] = r.recovered["sv_wal_records_replayed_total"]
	m["shard.batch_fanout_parts_per_batch"] = ratio(delta("sv_shard_batch_fanout_parts_total"), delta("sv_shard_batch_fanout_total"))
	m["shard.batch_single"] = delta("sv_shard_batch_single_total")
	m["shard.keys_copied"] = delta("sv_shard_rebalance_keys_copied_total")
	m["shard.reconciled"] = delta("sv_shard_rebalance_reconciled_total")
	m["shard.seal_ns"] = delta("sv_shard_rebalance_seal_ns_total")
	m["shard.seal_waits"] = delta("sv_shard_rebalance_seal_waits_total")
	m["shard.router_swaps"] = delta("sv_shard_router_swaps_total")
	// Routed ops per shard since the last boundary move: the hottest shard's
	// share of them.
	hot, total := 0.0, 0.0
	for name, v := range r.after {
		if len(name) > 9 && name[:9] == "shard_ops" {
			hot, total = max(hot, v), total+v
		}
	}
	m["shard.hot_shard_share"] = ratio(hot, total)
}
