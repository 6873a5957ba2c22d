package core

import "skipvector/internal/vectormap"

// Commit hooks: the map's seam for write-ahead logging. The hook observes
// every *effective* mutation — inserts that inserted, overwrites, removes
// that removed; failed insert-only puts and absent deletes never fire it —
// with the op already resolved to its final effect (put value or delete), so
// a log built from hook calls replays as a plain upsert/delete stream.
//
// Ordering contract. The hook is invoked while the owning data node's write
// lock is still held, immediately before the release that publishes the
// mutation. Two operations that conflict (touch the same key) serialize on
// that node's lock, so their hook invocations are ordered exactly as their
// linearization points; non-conflicting operations may interleave freely in
// the hook's sink, which is harmless because they commute. A group commit
// fires the hook once per group, under the single lock whose release
// linearizes the whole group; a serializable RangeUpdate fires it
// once with every updated pair, under the full 2PL window.
//
// The hook must be fast and allocation-shy (it runs under a seqlock write
// lock), must not call back into the map, and must not retain the ops slice
// or the values its Val fields point at (both are scratch copies, reused by
// the next operation on the same context).

// CommitKind classifies a commit-hook invocation.
type CommitKind uint8

const (
	// CommitSingleton is one self-contained point write.
	CommitSingleton CommitKind = iota
	// CommitBatchGroup is one ApplyBatch group commit (atomic as a unit).
	CommitBatchGroup
	// CommitRange is one serializable RangeUpdate's full update set.
	CommitRange
)

// CommitOp is one effective mutation reported to the commit hook.
type CommitOp[V any] struct {
	Key int64
	Val *V   // a copy of the value for puts; nil for deletes
	Del bool // Key was removed
}

// CommitHook observes effective writes at their linearization points. unit
// is nonzero when the write belongs to a batch commit unit (ApplyBatchLogged)
// — including batch ops routed through the singleton paths — and zero for
// independent writes.
type CommitHook[V any] func(unit uint64, kind CommitKind, ops []CommitOp[V])

// SetCommitHook installs h as the map's commit hook. It must be installed
// before the map is shared with writers (it is read without synchronization
// on every write path); installing it on a live map is a race.
func (m *Map[V]) SetCommitHook(h CommitHook[V]) { m.commitHook = h }

// ApplyBatchLogged is ApplyBatch with commit-unit framing: every hook call
// made on behalf of this batch — group commits and singleton-routed tall-key
// or min-defer ops alike — carries unit, letting the log frame the batch as
// one atomic unit across crashes.
func (m *Map[V]) ApplyBatchLogged(unit uint64, ops []BatchOp[V]) []BatchResult {
	ctx := m.ctxs.get()
	defer m.ctxs.put(ctx)
	ctx.walUnit = unit
	res := m.applyBatchCtx(ctx, ops)
	ctx.walUnit = 0
	return res
}

// logOps reports one commit's effective ops — puts that inserted or
// overwrote, deletes that removed — in slot order (same-key runs keep request
// order, so replay preserves last-write-wins). The caller holds the lock (for
// a range, every lock) whose release publishes them.
func (m *Map[V]) logOps(ctx *opCtx[V], kind CommitKind, slots []vectormap.CellOp, outs []vectormap.SlotOutcome) {
	if m.commitHook == nil {
		return
	}
	cs := ctx.batch.commits[:0]
	vals := ctx.commitVals(len(slots))
	for i := range slots {
		switch outs[i] {
		case vectormap.SlotInserted, vectormap.SlotUpdated:
			m.load(slots[i].Val, &vals[len(cs)])
			cs = append(cs, CommitOp[V]{Key: slots[i].Key, Val: &vals[len(cs)]})
		case vectormap.SlotRemoved:
			cs = append(cs, CommitOp[V]{Key: slots[i].Key, Del: true})
		}
	}
	if len(cs) > 0 {
		m.commitHook(ctx.walUnit, kind, cs)
	}
	clear(cs) // don't pin the values past the call
	clear(vals)
	ctx.batch.commits = cs
}
