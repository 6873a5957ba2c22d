package shard

import (
	"sync"

	"skipvector/internal/core"
)

// ApplyBatch partitions ops at shard boundaries and applies each part with
// the owning shard's chunk-grouped ApplyBatch, returning outcomes
// positionally aligned with the request slice.
//
// One partitioner serves every batch: it routes each op once and sorts the
// request indices by shard with a stable counting sort, so request order
// survives inside each part and per-key last-write-wins is exactly the core
// map's. When the ops already arrive in shard order (sorted input, the
// common case) each part is a subslice of ops and its results land straight
// in place; otherwise the parts are cut from one permuted copy and their
// results scattered back through the recorded request indices.
//
// A batch confined to one shard is applied directly. Several parts run in
// parallel, one goroutine per part with the first part applied inline, and
// ApplyBatch returns only after every part has committed (the all-shards
// commit barrier). Atomicity is per shard: each part linearizes as the
// owning shard's ApplyBatch does (per-chunk groups), but a concurrent reader
// can observe a state where some shards have committed their parts and
// others have not. Callers needing a cross-shard atomic batch must align it
// to one shard.
//
// The whole batch runs inside one writer-gate reference (writeEnter): a
// concurrent migration drains it like any point write, and a batch touching
// a sealed range parks until the successor table lands, then re-routes
// against it.
func (s *Sharded[V]) ApplyBatch(ops []core.BatchOp[V]) []core.BatchResult {
	return s.applyBatch(nil, ops)
}

// partition is a batch routed against one table.
type partition[V any] struct {
	req   []core.BatchOp[V] // the request, in caller order
	ops   []core.BatchOp[V] // the ops in shard order: req itself when it already is
	order []int             // request index of each entry of ops; nil when ops is req
	start []int             // shard i's part is ops[start[i]:start[i+1]]
	first int               // lowest shard touched
	parts int               // shards touched
}

// route partitions p.req against t, routing each op once, and reports false
// when a part lies in t's sealed range. A batch confined to one shard is
// its own part and costs no partition state.
func (p *partition[V]) route(t *table[V]) bool {
	p.ops, p.order = p.req, nil
	p.first, p.parts = t.indexOf(p.req[0].Key), 1
	var shardOf []int // each op's shard, kept once a second shard shows up
	for j := 1; j < len(p.req); j++ {
		i := t.indexOf(p.req[j].Key)
		if shardOf == nil {
			if i == p.first {
				continue
			}
			shardOf = make([]int, j, len(p.req))
			for x := range shardOf {
				shardOf[x] = p.first
			}
		}
		shardOf = append(shardOf, i)
	}
	if shardOf == nil {
		return !t.sealed(p.first)
	}

	// Stable counting sort of the request indices by shard.
	p.start = make([]int, len(t.maps)+1)
	inOrder := true
	for j, i := range shardOf {
		p.start[i+1]++
		inOrder = inOrder && (j == 0 || shardOf[j-1] <= i)
	}
	p.parts = 0
	for i := range t.maps {
		if p.start[i+1] > 0 {
			if t.sealed(i) {
				return false
			}
			if p.parts == 0 {
				p.first = i
			}
			p.parts++
		}
		p.start[i+1] += p.start[i]
	}
	if inOrder {
		return true
	}
	p.ops = make([]core.BatchOp[V], len(p.req))
	p.order = make([]int, len(p.req))
	for j, i := range shardOf {
		p.ops[p.start[i]], p.order[p.start[i]] = p.req[j], j
		p.start[i]++
	}
	// Each cursor now sits at the next part's start: shift them back.
	copy(p.start[1:], p.start)
	p.start[0] = 0
	return true
}

// applyBatch is ApplyBatch for both entry points; h, when non-nil, is the
// session the calling goroutine's part applies on.
func (s *Sharded[V]) applyBatch(h *Handle[V], ops []core.BatchOp[V]) []core.BatchResult {
	if len(ops) == 0 {
		return nil
	}
	p := partition[V]{req: ops}
	t, _, gen, stripe := s.writeEnter(h, ops[0].Key, &p)
	defer s.gate.exit(gen, stripe)
	if p.parts == 1 {
		s.singleBatch.Add(1)
		return s.applyPart(h, t, p.first, ops)
	}
	s.fanouts.Add(1)
	s.fanoutParts.Add(int64(p.parts))
	results := make([]core.BatchResult, len(ops))
	byShard, order := p.ops, p.order
	var wg sync.WaitGroup
	for i := p.first + 1; i < len(t.maps); i++ {
		if lo, hi := p.start[i], p.start[i+1]; lo < hi {
			wg.Add(1)
			go func() {
				defer wg.Done()
				scatter(results, order, lo, s.applyPart(nil, t, i, byShard[lo:hi]))
			}()
		}
	}
	// The first part runs inline: the calling goroutine is a worker too, so a
	// two-shard batch spawns one goroutine, not two.
	lo, hi := p.start[p.first], p.start[p.first+1]
	scatter(results, order, lo, s.applyPart(h, t, p.first, byShard[lo:hi]))
	wg.Wait()
	return results
}

// applyPart applies one part to shard i of t, on h's session when h is
// non-nil, and counts its ops in the shard's load.
func (s *Sharded[V]) applyPart(h *Handle[V], t *table[V], i int, ops []core.BatchOp[V]) []core.BatchResult {
	t.load[i].add(ops[0].Key, int64(len(ops)))
	if h != nil {
		return h.at(i).ApplyBatch(ops)
	}
	return t.maps[i].ApplyBatch(ops)
}

// scatter writes the results of the part that starts at entry lo of a
// partition back to their request positions.
func scatter(results []core.BatchResult, order []int, lo int, part []core.BatchResult) {
	if order == nil {
		copy(results[lo:], part)
		return
	}
	for j, r := range part {
		results[order[lo+j]] = r
	}
}
