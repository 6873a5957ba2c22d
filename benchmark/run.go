package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// overrunFactor bounds a repetition on a host much slower than the one that
// sized the op lists: a thread stops once it has run this many times its
// share of -seconds, and the ops it skipped are not counted as attempted.
const overrunFactor = 4

var epoch = time.Now()

// now is nanoseconds since process start on the monotonic clock; never 0.
func now() int64 { return int64(time.Since(epoch)) + 1 }

// span is one timed call: the benchmark's record of the boundary between it
// and the layer it drives.
type span struct {
	id         int32 // op_id, the op's index in its thread's list
	kind       opKind
	start, end int64
}

// runner executes one thread's op list against one session and judges every
// result. The same runner drives the facade and, in the traced pass, each
// lower layer's adapter.
type runner struct {
	t   int
	ops []op
	s   session
	tg  target
	chk checker

	lat         [numClasses][]int64
	spans       []span // recorded only when trace is set
	trace       bool
	sampleEvery int // timing stride of point ops; see workload.sampleEvery
	deadline    int64

	calls, failed int
	mutated       int // keys in acknowledged effective mutations
	started, done int64
	truncated     bool  // stopped at the deadline with ops left
	err           error // first error a call returned

	keys []int64
	vals []uint64
	ins  []bool
}

func newRunner(t int, ops []op, own *stripe, sampleEvery int, trace bool) *runner {
	r := &runner{t: t, ops: ops, chk: checker{own: own}, sampleEvery: sampleEvery, trace: trace,
		keys: make([]int64, 0, batchLen), vals: make([]uint64, batchLen), ins: make([]bool, batchLen)}
	var n [numClasses]int
	for i, o := range ops {
		if c := o.kind.class(); r.timed(i, c) {
			n[c]++
		}
	}
	total := 0
	for c := range n {
		r.lat[c] = make([]int64, 0, n[c])
		total += n[c]
	}
	if trace {
		r.spans = make([]span, 0, total)
	}
	return r
}

// timed reports whether op i, of class c, is one whose latency is recorded.
func (r *runner) timed(i int, c opClass) bool { return c > classWrite || i%r.sampleEvery == 0 }

func (r *runner) begin(i int, k opKind) int64 {
	if !r.timed(i, k.class()) {
		return 0
	}
	return now()
}

func (r *runner) end(i int, k opKind, t0 int64) {
	if t0 == 0 {
		return
	}
	t1 := now()
	c := k.class()
	r.lat[c] = append(r.lat[c], t1-t0)
	if r.trace {
		r.spans = append(r.spans, span{id: int32(i), kind: k, start: t0, end: t1})
	}
	if t1 > r.deadline {
		r.done = t1
	}
}

func (r *runner) judge(ok bool, err error) {
	r.calls++
	if err != nil && r.err == nil {
		r.err = err
	}
	if !ok || err != nil {
		r.failed++
	}
}

func (r *runner) run() {
	r.started = now()
	for i, o := range r.ops {
		r.exec(i, o)
		if r.done != 0 {
			r.truncated = i+1 < len(r.ops) // overran; see overrunFactor
			return
		}
	}
	r.done = now()
}

func (r *runner) exec(i int, o op) {
	k := int64(o.key)
	switch o.kind {
	case opLookup:
		t0 := r.begin(i, o.kind)
		v, found := r.s.Lookup(k)
		r.end(i, o.kind, t0)
		r.judge(r.chk.lookup(k, v, found), nil)
	case opFloor:
		t0 := r.begin(i, o.kind)
		rk, v, found := r.s.Floor(k)
		r.end(i, o.kind, t0)
		r.judge(r.chk.floor(k, rk, v, found), nil)
	case opCeiling:
		t0 := r.begin(i, o.kind)
		rk, v, found := r.s.Ceiling(k)
		r.end(i, o.kind, t0)
		r.judge(r.chk.ceiling(k, rk, v, found), nil)
	case opInsert:
		t0 := r.begin(i, o.kind)
		inserted, err := r.s.Insert(k, valueOf(k))
		r.end(i, o.kind, t0)
		r.judge(r.chk.insert(k, inserted), err)
		if inserted {
			r.mutated++
		}
	case opUpsert:
		t0 := r.begin(i, o.kind)
		inserted, err := r.s.Upsert(k, valueOf(k))
		r.end(i, o.kind, t0)
		r.judge(r.chk.insert(k, inserted), err)
		r.mutated++
	case opRemove:
		t0 := r.begin(i, o.kind)
		removed, err := r.s.Remove(k)
		r.end(i, o.kind, t0)
		r.judge(r.chk.remove(k, removed), err)
		if removed {
			r.mutated++
		}
	case opRange:
		sc := r.chk.beginScan(k, k+scanSpan-1)
		t0 := r.begin(i, o.kind)
		r.s.RangeQuery(sc.lo, sc.hi, sc.visit)
		r.end(i, o.kind, t0)
		r.judge(sc.end(sc.hi), nil)
	case opCursor:
		sc := r.chk.beginScan(k, keySpace-1)
		steps := 0
		t0 := r.begin(i, o.kind)
		r.s.CursorWalk(k, cursorSteps, func(k int64, v uint64) bool { steps++; return sc.visit(k, v) })
		r.end(i, o.kind, t0)
		through := sc.last
		if steps < cursorSteps {
			through = sc.hi // the cursor ran off the end of the map
		}
		r.judge(sc.end(through), nil)
	case opBatchSeq, opBatchRand:
		r.keys = batchKeys(o, i, r.t, r.keys)
		for j, bk := range r.keys {
			r.vals[j] = valueOf(bk)
		}
		t0 := r.begin(i, o.kind)
		err := r.s.UpsertBatch(r.keys, r.vals, r.ins)
		r.end(i, o.kind, t0)
		r.judge(r.chk.batch(r.keys, r.ins), err)
		r.mutated += len(r.keys)
	case opCompact:
		if c, ok := r.tg.(compacter); ok {
			t0 := r.begin(i, o.kind)
			err := c.Compact()
			r.end(i, o.kind, t0)
			r.judge(true, err)
		}
	case opSplit, opMerge:
		if rs, ok := r.tg.(resharder); ok {
			t0 := r.begin(i, o.kind)
			var err error
			if o.kind == opSplit {
				err = rs.SplitHot(r.chk.own.median)
			} else {
				err = rs.MergeHot()
			}
			r.end(i, o.kind, t0)
			r.judge(true, err)
		}
	}
}

// drive runs each runner's op list on its own goroutine from a common start
// and returns when all are done. budget is one repetition's share of -seconds.
func drive(runners []*runner, budget time.Duration) {
	var wg sync.WaitGroup
	start := make(chan struct{})
	for _, r := range runners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			r.deadline = now() + int64(budget)*overrunFactor
			r.run()
		}()
	}
	close(start)
	wg.Wait()
}

// rep is what one repetition measured.
type rep struct {
	setupS, wallS float64
	calls, failed int
	sweepFailed   int
	lat           [numClasses][]int64 // both threads, sorted
	mallocs       uint64
	heapBytes     int64
	keys          int
	prefill       int
	recoverS      float64
	mutated       int // keys in acknowledged effective mutations
	truncated     bool
	before, after map[string]float64 // target counters around the timed phase
	recovered     map[string]float64 // counters of the map recovery rebuilt
	runners       []*runner          // kept by traced repetitions only
	fnv           uint64
	firstErr      error
}

// reopener is a target whose contents can be recovered from disk after Close.
type reopener interface {
	Reopen() (target, error)
}

func (d *durableMap) Reopen() (target, error) { return openDurable(d.dir) }

// prefill inserts the seed's initial key set through the public API in a
// seeded random order, from one thread, so that the map's shape before the
// timed phase is a function of the seed alone.
func prefill(tg target, seed uint64) (int, error) {
	keys := make([]int32, 0, keySpace/2+keySpace/64)
	for k := int64(0); k < keySpace; k++ {
		if prefilled(seed, k) {
			keys = append(keys, int32(k))
		}
	}
	r := rng{state: seed ^ 0x70726566696c6c}
	for i := len(keys) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		keys[i], keys[j] = keys[j], keys[i]
	}
	s := tg.Session()
	defer s.Close()
	for _, k := range keys {
		if _, err := s.Upsert(int64(k), valueOf(int64(k))); err != nil {
			return 0, err
		}
	}
	return len(keys), nil
}

// runRep builds the inputs and a fresh map, runs the timed phase from
// `threads` closed-loop goroutines, and checks the result. open is the map
// constructor (the workload's, or a lower layer's in the traced pass).
func runRep(w *workload, open func(dir string) (target, error), seed uint64, repIdx, n int,
	budget time.Duration, trace bool, tmp string) (*rep, error) {
	res := &rep{fnv: fnvOffset}

	// Set-up, part one: inputs, model and sample buffers.
	t0 := time.Now()
	stripes := make([]*stripe, threads)
	runners := make([]*runner, threads)
	for t := range runners {
		ops := genOps(w, seed, repIdx, t, n)
		res.fnv = fnvOps(res.fnv, ops)
		stripes[t] = newStripe(seed, t)
		runners[t] = newRunner(t, ops, stripes[t], w.sampleEvery, trace)
	}
	setup := time.Since(t0)

	// Heap baseline, outside set-up time: everything above is the benchmark's.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heap0 := int64(ms.HeapAlloc)

	// Set-up, part two: build and prefill.
	t0 = time.Now()
	dir, err := os.MkdirTemp(tmp, "rep")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	tg, err := open(dir)
	if err != nil {
		return nil, err
	}
	if res.prefill, err = prefill(tg, seed); err != nil {
		return nil, err
	}
	if p, ok := tg.(interface{ PrefillDone() }); ok {
		p.PrefillDone() // a lower-layer adapter that needs to know; see layers.CoreMap
	}
	for _, r := range runners {
		r.tg, r.s = tg, tg.Session()
	}
	// Every repetition starts its timed phase just after a collection, so
	// that how many collections fall inside it depends on the work alone.
	runtime.GC()
	res.setupS = (setup + time.Since(t0)).Seconds()

	// Timed phase.
	res.before = tg.Counters()
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	drive(runners, budget)
	runtime.ReadMemStats(&ms)
	res.mallocs = ms.Mallocs - mallocs0
	res.after = tg.Counters()

	// Memory the map holds once the traffic has stopped and the sessions are
	// closed; measured before anything else is allocated.
	for _, r := range runners {
		r.s.Close()
		r.s, r.tg = nil, nil // the runner outlives the map only as samples and spans
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	res.heapBytes = int64(ms.HeapAlloc) - heap0
	res.keys = tg.Len()

	first, last := runners[0].started, runners[0].done
	for _, r := range runners {
		first, last = min(first, r.started), max(last, r.done)
		res.calls += r.calls
		res.failed += r.failed
		res.mutated += r.mutated
		res.truncated = res.truncated || r.truncated
		if res.firstErr == nil {
			res.firstErr = r.err
		}
		for c := range r.lat {
			res.lat[c] = append(res.lat[c], r.lat[c]...)
		}
	}
	res.wallS = float64(last-first) / 1e9
	for c := range res.lat {
		sort.Slice(res.lat[c], func(i, j int) bool { return res.lat[c][i] < res.lat[c][j] })
	}
	if trace {
		res.runners = runners // the traced pass reads their spans and op lists
	}

	// Quiescent check against the merged model; then, for a durable map,
	// the same check on what recovery rebuilds from the files.
	mism, err := sweep(tg, stripes)
	if err != nil && res.firstErr == nil {
		res.firstErr = err
	}
	res.sweepFailed = mism
	if err := tg.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	if ro, ok := tg.(reopener); ok {
		t0 := time.Now()
		rec, err := ro.Reopen()
		if err != nil {
			return nil, fmt.Errorf("reopen: %w", err)
		}
		res.recoverS = time.Since(t0).Seconds()
		mism, err := sweep(rec, stripes)
		if err != nil && res.firstErr == nil {
			res.firstErr = err
		}
		res.sweepFailed += mism
		res.recovered = rec.Counters()
		if err := rec.Close(); err != nil {
			return nil, fmt.Errorf("close recovered map: %w", err)
		}
	}
	return res, nil
}
