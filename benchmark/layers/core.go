// Package layers holds the benchmark's adapters to the layers below the
// public API, one file per layer. The traced pass replays a workload's op
// list through them so that the time of a public call can be split between
// the facade and what it calls. Nothing on the end-to-end pass imports this
// package. A refactor that changes a layer's interface must edit exactly that
// layer's file here, which makes the change visible as a change to the
// benchmark.
package layers

import (
	"fmt"

	"skipvector/internal/core"
)

// CoreMap drives core.Map[uint64] the way the facades do. With a CommitLog it
// drives it as DurableMap does — pooled contexts, ApplyBatchLogged, a commit
// hook — and captures the hook's stream; without, as Map does through
// NewHandle sessions.
type CoreMap struct {
	m        *core.Map[uint64]
	log      *CommitLog
	sessions int
}

func OpenCore(log *CommitLog) (*CoreMap, error) {
	m, err := core.NewMap[uint64](core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return &CoreMap{m: m, log: log}, nil
}

// PrefillDone marks the end of the single-threaded prefill: from here on the
// commit stream is the workload's and is captured.
func (c *CoreMap) PrefillDone() {
	c.sessions = 0
	if c.log != nil {
		for t := range c.log.threads {
			c.log.threads[t] = commitBuf{} // drop the prefill's calls
		}
		c.m.SetCommitHook(c.log.hook)
	}
}

func (c *CoreMap) Ascend(fn func(k int64, v uint64) bool) {
	c.m.Ascend(func(k int64, v *uint64) bool { return fn(k, *v) })
}
func (c *CoreMap) Len() int               { return c.m.Len() }
func (c *CoreMap) CheckInvariants() error { return c.m.CheckInvariants() }
func (c *CoreMap) Close() error           { return nil }
func (c *CoreMap) Metrics() fmt.Stringer  { return c.m.Metrics() }

// Session returns the next client thread's session; sessions opened after
// PrefillDone are numbered 0, 1, … in order, matching the thread whose
// stripe (key mod threads) they write.
func (c *CoreMap) Session() *CoreSession {
	s := &CoreSession{m: c.m, log: c.log, t: c.sessions}
	c.sessions++
	if c.log == nil {
		s.h = c.m.NewHandle()
	}
	return s
}

type CoreSession struct {
	m   *core.Map[uint64]
	h   *core.Handle[uint64] // nil when driven as DurableMap drives it
	log *CommitLog
	t   int
	ops []core.BatchOp[uint64]
}

func (s *CoreSession) Close() {
	if s.h != nil {
		s.h.Close()
	}
}

func deref(k int64, p *uint64, ok bool) (int64, uint64, bool) {
	if !ok || p == nil {
		return 0, 0, false
	}
	return k, *p, true
}

func (s *CoreSession) Lookup(k int64) (uint64, bool) {
	var p *uint64
	var ok bool
	if s.h != nil {
		p, ok = s.h.Lookup(k)
	} else {
		p, ok = s.m.Lookup(k)
	}
	_, v, ok := deref(k, p, ok)
	return v, ok
}

func (s *CoreSession) Floor(k int64) (int64, uint64, bool) {
	if s.h != nil {
		return deref(s.h.Floor(k))
	}
	return deref(s.m.Floor(k))
}

func (s *CoreSession) Ceiling(k int64) (int64, uint64, bool) {
	if s.h != nil {
		return deref(s.h.Ceiling(k))
	}
	return deref(s.m.Ceiling(k))
}

// The map stores *V, so every put needs its own allocation, exactly as the
// facade's by-value methods make one.

func (s *CoreSession) Insert(k int64, v uint64) (bool, error) {
	if s.h != nil {
		return s.h.Insert(k, &v), nil
	}
	s.log.beginCall(s.t, false)
	return s.m.Insert(k, &v), nil
}

func (s *CoreSession) Upsert(k int64, v uint64) (bool, error) {
	if s.h != nil {
		return s.h.Upsert(k, &v), nil
	}
	s.log.beginCall(s.t, false)
	return s.m.Upsert(k, &v), nil
}

func (s *CoreSession) Remove(k int64) (bool, error) {
	if s.h != nil {
		return s.h.Remove(k), nil
	}
	s.log.beginCall(s.t, false)
	return s.m.Remove(k), nil
}

func (s *CoreSession) UpsertBatch(keys []int64, vals []uint64, inserted []bool) error {
	s.ops = s.ops[:0]
	for i, k := range keys {
		v := vals[i]
		s.ops = append(s.ops, core.BatchOp[uint64]{Key: k, Val: &v})
	}
	var res []core.BatchResult
	if s.h != nil {
		res = s.h.ApplyBatch(s.ops)
	} else {
		s.log.beginCall(s.t, true)
		res = s.m.ApplyBatchLogged(1, s.ops) // any nonzero unit marks batch parts
	}
	for i := range res {
		inserted[i] = res[i].Outcome == core.BatchInserted
	}
	return nil
}

func (s *CoreSession) RangeQuery(lo, hi int64, fn func(k int64, v uint64) bool) {
	s.m.RangeQuery(lo, hi, func(k int64, v *uint64) bool { return fn(k, *v) })
}

// CursorWalk is the facade's Cursor: a pinned session stepping by Ceiling.
func (s *CoreSession) CursorWalk(start int64, steps int, fn func(k int64, v uint64) bool) {
	h := s.m.NewHandle()
	defer h.Close()
	for i := 0; i < steps; i++ {
		k, v, ok := deref(h.Ceiling(start))
		if !ok || !fn(k, v) {
			return
		}
		start = k + 1
	}
}

// CommitLog is the commit stream of one replay, captured through
// core.Map.SetCommitHook and later fed to the log by ReplayWAL. Each thread
// appends only to its own buffers: a session marks the start of each of its
// write calls, and the hook — which runs on the calling goroutine — finds the
// thread from the key's stripe.
type CommitLog struct {
	threads []commitBuf
}

// commitBuf is one thread's captured stream: calls, each a run of parts (one
// hook invocation each), each a run of keys. A removed key is stored as ^key.
type commitBuf struct {
	calls []commitCall
	parts []int32 // end offset of each part in keys
	keys  []int64
	_     [8]uint64 // keep neighbouring threads' headers off one cache line
}

type commitCall struct {
	batch    bool
	partsEnd int32 // end offset of the call's parts; they start where the previous call's end
}

func NewCommitLog(threads int) *CommitLog { return &CommitLog{threads: make([]commitBuf, threads)} }

func (l *CommitLog) beginCall(t int, batch bool) {
	b := &l.threads[t]
	b.calls = append(b.calls, commitCall{batch: batch, partsEnd: int32(len(b.parts))})
}

func (l *CommitLog) hook(_ uint64, _ core.CommitKind, ops []core.CommitOp[uint64]) {
	b := &l.threads[int(ops[0].Key)%len(l.threads)]
	for i := range ops {
		k := ops[i].Key
		if ops[i].Del {
			k = ^k
		}
		b.keys = append(b.keys, k)
	}
	b.parts = append(b.parts, int32(len(b.keys)))
	b.calls[len(b.calls)-1].partsEnd = int32(len(b.parts))
}

// Calls returns how many write calls thread t made.
func (l *CommitLog) Calls(t int) int { return len(l.threads[t].calls) }
