package skipvector_test

// The map contract. Every ordered map in this module — Map, DurableMap,
// ShardedMap and the svset facade — is driven by this one seeded suite
// against a sorted-slice model, through a thin adapter per map type. The
// capability flags in caps are the only differences the suite allows between
// map types: a flag may skip a check, never weaken one. Three legs run per
// map type:
//
//   - sweep: one randomized history per data-chunk target T_D from 1 to 10
//     (after SNIPPETS.md's chunk-size sweep), checking point ops, ApplyBatch,
//     RangeQuery, RangeUpdate, Ascend, Cursor, Handle, Snapshot and Close
//     against the model op by op, and the whole content every few ops;
//   - lincheck: small concurrent histories of point ops (and snapshot
//     acquisitions where the map has them), checked by internal/lincheck;
//   - churn: every surface at once from several goroutines, checked by an
//     accounting oracle and the structural invariants.
//
// Failures name the seed; rerun with SV_SEED=<seed>.

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	sv "skipvector"
	"skipvector/internal/chaos"
	"skipvector/internal/lincheck"
	"skipvector/internal/wal"
	"skipvector/svset"
)

// caps are a map type's capability flags.
type caps struct {
	handle    bool // NewHandle sessions
	snapshot  bool // Snapshot views
	durable   bool // reopened mid-history over wal.NewMemFS and compared
	rebalance bool // SplitShard/MergeShards run between ops
	// keysOnly marks a set: it stores no values (every value reads 0), its
	// batches report counts rather than per-op outcomes, and it has no
	// RangeUpdate, Cursor or CheckInvariants.
	keysOnly bool
}

// pointOps is what a map and a session over it share.
type pointOps interface {
	Insert(k, v int64) bool
	Upsert(k, v int64) bool
	Remove(k int64) bool
	Lookup(k int64) (int64, bool)
	Contains(k int64) bool
	Floor(k int64) (int64, int64, bool)
	Ceiling(k int64) (int64, int64, bool)
	ApplyBatch(ops []sv.BatchOp[int64]) []sv.BatchResult
}

// orderedMap is the contract, over int64 values.
type orderedMap interface {
	pointOps
	Min() (int64, int64, bool)
	Max() (int64, int64, bool)
	Len() int
	Keys() []int64
	RangeQuery(lo, hi int64, fn func(k, v int64) bool)
	RangeUpdate(lo, hi int64, fn func(k, v int64) int64) int
	Ascend(fn func(k, v int64) bool)
	Cursor(start int64) cursor
	CheckInvariants() error
}

type session interface {
	pointOps
	Close()
}

type cursor interface {
	Next() (int64, int64, bool)
	SeekTo(start int64)
	Close()
}

type snapshot interface {
	Get(k int64) (int64, bool)
	Contains(k int64) bool
	Len() int
	Range(lo, hi int64, fn func(k, v int64) bool)
	Ascend(fn func(k, v int64) bool)
	Cursor(start int64) interface{ Next() (int64, int64, bool) }
	Close()
}

// The capabilities, as the suite reaches them.
type (
	handler     interface{ NewHandle() session }
	snapshotter interface{ Snapshot() snapshot }
	reopener    interface {
		reopen(compact bool)
		close()
	}
	rebalancer interface {
		ShardCount() int
		ShardBounds() []int64
		SplitShard(i int, key int64) (sv.Migration, error)
		MergeShards(i int) (sv.Migration, error)
	}
	setBatcher interface {
		InsertBatch(ks []int64) int
		RemoveBatch(ks []int64) int
	}
)

type target struct {
	name string
	caps caps
	// open builds an empty map with data-chunk target td whose keys are
	// expected in [0, keys).
	open func(t *testing.T, td int, keys int64) orderedMap
}

func tinyChunks(td int) []sv.Option {
	return []sv.Option{sv.WithTargetDataVectorSize(td), sv.WithTargetIndexVectorSize(2), sv.WithLayerCount(4)}
}

var conformanceTargets = []target{
	{
		name: "Map",
		caps: caps{handle: true, snapshot: true},
		open: func(_ *testing.T, td int, _ int64) orderedMap {
			return plainMap{sv.New[int64](tinyChunks(td)...)}
		},
	},
	{
		name: "DurableMap",
		caps: caps{snapshot: true, durable: true},
		open: func(t *testing.T, td int, _ int64) orderedMap {
			d := &durableMap{t: t, opts: []sv.DurableOption{
				sv.WithWALFS(wal.NewMemFS(uint64(td))), sv.WithMapOptions(tinyChunks(td)...),
			}}
			d.open()
			return d
		},
	},
	{
		name: "ShardedMap",
		caps: caps{handle: true, rebalance: true},
		open: func(_ *testing.T, td int, keys int64) orderedMap {
			return shardedMap{sv.NewSharded[int64](sv.EvenShardBounds(0, keys, 4), tinyChunks(td)...)}
		},
	},
	{
		name: "svset",
		caps: caps{snapshot: true, keysOnly: true},
		open: func(_ *testing.T, td int, _ int64) orderedMap {
			return setMap{svset.New(tinyChunks(td)...)}
		},
	},
}

// Adapters. Each embeds its map and overrides only what differs in type.

type plainMap struct{ *sv.Map[int64] }

func (m plainMap) Cursor(start int64) cursor { return m.Map.Cursor(start) }
func (m plainMap) NewHandle() session        { return m.Map.NewHandle() }
func (m plainMap) Snapshot() snapshot        { return mapSnapshot{m.Map.Snapshot()} }

type shardedMap struct{ *sv.ShardedMap[int64] }

func (m shardedMap) Cursor(start int64) cursor { return m.ShardedMap.Cursor(start) }
func (m shardedMap) NewHandle() session        { return m.ShardedMap.NewHandle() }

type mapSnapshot struct{ *sv.Snapshot[int64] }

func (s mapSnapshot) Cursor(start int64) interface{ Next() (int64, int64, bool) } {
	return s.Snapshot.Cursor(start)
}

// durableMap reports a write error as a test failure; the MemFS it runs on
// never fails a write.
type durableMap struct {
	*sv.DurableMap[int64]
	t    *testing.T
	opts []sv.DurableOption
}

func (d *durableMap) open() {
	m, err := sv.OpenDurable[int64]("/db", sv.Int64Codec(), d.opts...)
	if err != nil {
		d.t.Fatalf("OpenDurable: %v", err)
	}
	d.DurableMap = m
}

func (d *durableMap) must(ok bool, err error) bool {
	if err != nil {
		d.t.Errorf("durable write: %v", err)
	}
	return ok
}

func (d *durableMap) Insert(k, v int64) bool { return d.must(d.DurableMap.Insert(k, v)) }
func (d *durableMap) Upsert(k, v int64) bool { return d.must(d.DurableMap.Upsert(k, v)) }
func (d *durableMap) Remove(k int64) bool    { return d.must(d.DurableMap.Remove(k)) }

func (d *durableMap) ApplyBatch(ops []sv.BatchOp[int64]) []sv.BatchResult {
	res, err := d.DurableMap.ApplyBatch(ops)
	d.must(true, err)
	return res
}

func (d *durableMap) RangeUpdate(lo, hi int64, fn func(k, v int64) int64) int {
	n, err := d.DurableMap.RangeUpdate(lo, hi, fn)
	d.must(true, err)
	return n
}

func (d *durableMap) Cursor(start int64) cursor { return d.DurableMap.Cursor(start) }
func (d *durableMap) Snapshot() snapshot        { return mapSnapshot{d.DurableMap.Snapshot()} }

func (d *durableMap) reopen(compact bool) {
	if compact {
		if err := d.Compact(); err != nil {
			d.t.Fatalf("Compact: %v", err)
		}
	}
	d.close()
	d.open()
}

func (d *durableMap) close() {
	if err := d.DurableMap.Close(); err != nil {
		d.t.Fatalf("Close: %v", err)
	}
}

type setMap struct{ *svset.Set }

func (s setMap) Insert(k, _ int64) bool { return s.Set.Insert(k) }

// Upsert of a unit value inserts an absent key and changes nothing else.
func (s setMap) Upsert(k, _ int64) bool       { return s.Set.Insert(k) }
func (s setMap) Lookup(k int64) (int64, bool) { return 0, s.Set.Contains(k) }
func (s setMap) Keys() []int64                { return s.Elements() }

func (s setMap) Floor(k int64) (int64, int64, bool) {
	fk, ok := s.Set.Floor(k)
	return fk, 0, ok
}

func (s setMap) Ceiling(k int64) (int64, int64, bool) {
	ck, ok := s.Set.Ceiling(k)
	return ck, 0, ok
}

func (s setMap) Min() (int64, int64, bool) {
	k, ok := s.Set.Min()
	return k, 0, ok
}

func (s setMap) Max() (int64, int64, bool) {
	k, ok := s.Set.Max()
	return k, 0, ok
}

func (s setMap) RangeQuery(lo, hi int64, fn func(k, v int64) bool) {
	s.Set.Range(lo, hi, func(k int64) bool { return fn(k, 0) })
}

func (s setMap) Ascend(fn func(k, v int64) bool) {
	s.Set.Ascend(func(k int64) bool { return fn(k, 0) })
}

func (s setMap) Snapshot() snapshot { return setSnapshot{s.Set.Snapshot()} }

func (setMap) ApplyBatch([]sv.BatchOp[int64]) []sv.BatchResult { panic("svset: keysOnly") }
func (setMap) RangeUpdate(int64, int64, func(k, v int64) int64) int {
	panic("svset: keysOnly")
}
func (setMap) Cursor(int64) cursor    { panic("svset: keysOnly") }
func (setMap) CheckInvariants() error { panic("svset: keysOnly") }

type setSnapshot struct{ *svset.Snapshot }

func (s setSnapshot) Get(k int64) (int64, bool) { return 0, s.Snapshot.Contains(k) }

func (s setSnapshot) Range(lo, hi int64, fn func(k, v int64) bool) {
	s.Snapshot.Range(lo, hi, func(k int64) bool { return fn(k, 0) })
}

func (s setSnapshot) Ascend(fn func(k, v int64) bool) {
	s.Snapshot.Ascend(func(k int64) bool { return fn(k, 0) })
}

func (setSnapshot) Cursor(int64) interface{ Next() (int64, int64, bool) } { panic("svset: keysOnly") }

// model is the reference: the mappings in ascending key order.
type kv struct{ k, v int64 }

type model struct{ kvs []kv }

func (m *model) find(k int64) (int, bool) {
	return slices.BinarySearchFunc(m.kvs, k, func(e kv, k int64) int { return cmp.Compare(e.k, k) })
}

func (m *model) get(k int64) (int64, bool) {
	if i, ok := m.find(k); ok {
		return m.kvs[i].v, true
	}
	return 0, false
}

// put stores k→v unless insertOnly finds k present; it reports whether k
// was absent.
func (m *model) put(k, v int64, insertOnly bool) bool {
	i, ok := m.find(k)
	switch {
	case ok && !insertOnly:
		m.kvs[i].v = v
	case !ok:
		m.kvs = slices.Insert(m.kvs, i, kv{k, v})
	}
	return !ok
}

func (m *model) del(k int64) bool {
	i, ok := m.find(k)
	if ok {
		m.kvs = slices.Delete(m.kvs, i, i+1)
	}
	return ok
}

// floor and ceiling return the neighbour at or below (above) k.
func (m *model) floor(k int64) (kv, bool) {
	i, ok := m.find(k)
	if ok {
		return m.kvs[i], true
	}
	if i == 0 {
		return kv{}, false
	}
	return m.kvs[i-1], true
}

func (m *model) ceiling(k int64) (kv, bool) {
	i, _ := m.find(k)
	if i == len(m.kvs) {
		return kv{}, false
	}
	return m.kvs[i], true
}

// window returns the mappings with lo ≤ key ≤ hi.
func (m *model) window(lo, hi int64) []kv {
	if lo > hi {
		return nil
	}
	i, _ := m.find(lo)
	j := i
	for j < len(m.kvs) && m.kvs[j].k <= hi {
		j++
	}
	return m.kvs[i:j]
}

func (m *model) keys() []int64 {
	ks := make([]int64, len(m.kvs))
	for i, e := range m.kvs {
		ks[i] = e.k
	}
	return ks
}

// history is one sequential run of the sweep leg.
type history struct {
	t    *testing.T
	tg   target
	td   int
	seed uint64
	rng  *rand.Rand
	m    orderedMap
	ref  model
	h    session // the pinned session, when the map has handles
	pins []pin
	step int
	next int64 // the next value written
}

type pin struct {
	s   snapshot
	ref []kv
}

const (
	histKeys  = 192 // key space of a sweep history
	histSteps = 360 // ops per sweep history
)

func (r *history) fatalf(format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf("%s T_D=%d step %d: %s (rerun with SV_SEED=%d)",
		r.tg.name, r.td, r.step, fmt.Sprintf(format, args...), r.seed)
}

func (r *history) val() int64 {
	if r.tg.caps.keysOnly {
		return 0
	}
	r.next++
	return r.next
}

// key draws a key of the history, now and then one of the extreme legal
// keys.
func (r *history) key() int64 {
	switch r.rng.Intn(64) {
	case 0:
		return sv.MinKey + 1
	case 1:
		return sv.MaxKey - 1
	}
	return r.rng.Int63n(histKeys)
}

// probe draws a query key, a little beyond the key space on either side.
func (r *history) probe() int64 { return r.rng.Int63n(histKeys+16) - 8 }

// via picks the map or its pinned session for a point op.
func (r *history) via() (pointOps, string) {
	if r.h != nil && r.rng.Intn(2) == 0 {
		return r.h, "Handle"
	}
	return r.m, "map"
}

func (r *history) pointOp() {
	p, on := r.via()
	k := r.key()
	switch r.rng.Intn(7) {
	case 0:
		v := r.val()
		if got, want := p.Insert(k, v), r.ref.put(k, v, true); got != want {
			r.fatalf("%s Insert(%d) = %t, want %t", on, k, got, want)
		}
	case 1:
		v := r.val()
		if got, want := p.Upsert(k, v), r.ref.put(k, v, false); got != want {
			r.fatalf("%s Upsert(%d) = %t, want %t", on, k, got, want)
		}
	case 2:
		if got, want := p.Remove(k), r.ref.del(k); got != want {
			r.fatalf("%s Remove(%d) = %t, want %t", on, k, got, want)
		}
	case 3:
		v, ok := p.Lookup(k)
		if wv, wok := r.ref.get(k); ok != wok || v != wv {
			r.fatalf("%s Lookup(%d) = %d,%t, want %d,%t", on, k, v, ok, wv, wok)
		}
	case 4:
		if _, want := r.ref.get(k); p.Contains(k) != want {
			r.fatalf("%s Contains(%d) = %t", on, k, !want)
		}
	case 5:
		k = r.probe()
		fk, fv, ok := p.Floor(k)
		if w, wok := r.ref.floor(k); ok != wok || (ok && (fk != w.k || fv != w.v)) {
			r.fatalf("%s Floor(%d) = %d,%d,%t, want %v,%t", on, k, fk, fv, ok, w, wok)
		}
	default:
		k = r.probe()
		ck, cv, ok := p.Ceiling(k)
		if w, wok := r.ref.ceiling(k); ok != wok || (ok && (ck != w.k || cv != w.v)) {
			r.fatalf("%s Ceiling(%d) = %d,%d,%t, want %v,%t", on, k, ck, cv, ok, w, wok)
		}
	}
}

// batch applies a clustered batch with duplicate keys, deletes and
// insert-only puts, in sorted, reversed or drawn order.
func (r *history) batch() {
	n := 1 + r.rng.Intn(16)
	base := r.rng.Int63n(histKeys)
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = (base + r.rng.Int63n(24)) % histKeys
	}
	switch r.rng.Intn(3) {
	case 0:
		slices.Sort(keys)
	case 1:
		slices.Sort(keys)
		slices.Reverse(keys)
	}
	if r.tg.caps.keysOnly {
		b := r.m.(setBatcher)
		want := 0
		if r.rng.Intn(2) == 0 {
			for _, k := range keys {
				if r.ref.put(k, 0, true) {
					want++
				}
			}
			if got := b.InsertBatch(keys); got != want {
				r.fatalf("InsertBatch(%v) = %d, want %d", keys, got, want)
			}
			return
		}
		for _, k := range keys {
			if r.ref.del(k) {
				want++
			}
		}
		if got := b.RemoveBatch(keys); got != want {
			r.fatalf("RemoveBatch(%v) = %d, want %d", keys, got, want)
		}
		return
	}
	ops := make([]sv.BatchOp[int64], n)
	want := make([]sv.BatchOutcome, n)
	for i, k := range keys {
		op := sv.BatchOp[int64]{Key: k}
		switch r.rng.Intn(6) {
		case 0, 1:
			op.Delete = true
			want[i] = sv.BatchAbsent
			if r.ref.del(k) {
				want[i] = sv.BatchRemoved
			}
		case 2:
			op.InsertOnly = true
			op.Val = r.val()
			want[i] = sv.BatchExists
			if r.ref.put(k, op.Val, true) {
				want[i] = sv.BatchInserted
			}
		default:
			op.Val = r.val()
			want[i] = sv.BatchUpdated
			if r.ref.put(k, op.Val, false) {
				want[i] = sv.BatchInserted
			}
		}
		ops[i] = op
	}
	p, on := r.via()
	res := p.ApplyBatch(ops)
	if len(res) != n {
		r.fatalf("%s ApplyBatch returned %d results for %d ops", on, len(res), n)
	}
	for i := range res {
		if res[i].Outcome != want[i] {
			r.fatalf("%s ApplyBatch %+v: op %d outcome %v, want %v", on, ops, i, res[i].Outcome, want[i])
		}
	}
	// The map copied every value: rewriting the request reaches nothing.
	for i := range ops {
		ops[i].Val = -1
	}
}

// scan checks a visit sequence against the model's window, cut at limit.
func (r *history) scan(what string, got, window []kv, limit int) {
	want := window[:min(limit, len(window))]
	if !slices.Equal(got, want) {
		r.fatalf("%s visited %v, want %v", what, got, want)
	}
}

// collect returns a visitor that records pairs and stops after limit.
func collect(dst *[]kv, limit int) func(k, v int64) bool {
	return func(k, v int64) bool {
		*dst = append(*dst, kv{k, v})
		return len(*dst) < limit
	}
}

func (r *history) rangeQuery() {
	lo := r.probe()
	hi := lo + r.rng.Int63n(48) - 4 // sometimes an inverted window
	limit := 1 + r.rng.Intn(64)
	var got []kv
	r.m.RangeQuery(lo, hi, collect(&got, limit))
	r.scan(fmt.Sprintf("RangeQuery(%d,%d) limit %d", lo, hi, limit), got, r.ref.window(lo, hi), limit)
}

func (r *history) rangeUpdate() {
	lo := r.probe()
	hi := lo + r.rng.Int63n(48) - 4
	delta := r.val()
	var seen []kv
	n := r.m.RangeUpdate(lo, hi, func(k, v int64) int64 {
		seen = append(seen, kv{k, v})
		return v + delta
	})
	w := r.ref.window(lo, hi)
	r.scan(fmt.Sprintf("RangeUpdate(%d,%d)", lo, hi), seen, w, len(w))
	if n != len(w) {
		r.fatalf("RangeUpdate(%d,%d) = %d, want %d", lo, hi, n, len(w))
	}
	for i := range w {
		w[i].v += delta
	}
}

func (r *history) ascend() {
	limit := 1 + r.rng.Intn(2*histKeys)
	var got []kv
	r.m.Ascend(collect(&got, limit))
	r.scan(fmt.Sprintf("Ascend limit %d", limit), got, r.ref.kvs, limit)
}

// cursorWalk steps a live cursor with writes, seeks and a close between
// steps: every Next is the model's ceiling of the cursor position, so keys
// written ahead are seen and keys removed ahead are not.
func (r *history) cursorWalk() {
	pos := r.probe()
	c := r.m.Cursor(pos)
	for i, steps := 0, 1+r.rng.Intn(24); i < steps; i++ {
		switch r.rng.Intn(8) {
		case 0, 1:
			r.pointOp()
		case 2:
			pos = r.probe()
			c.SeekTo(pos)
		case 3:
			c.Close()
			c.Close()
			if k, _, ok := c.Next(); ok {
				r.fatalf("closed cursor yielded %d", k)
			}
			pos = r.probe()
			c.SeekTo(pos)
		}
		k, v, ok := c.Next()
		w, wok := r.ref.ceiling(pos)
		if ok != wok || (ok && (k != w.k || v != w.v)) {
			r.fatalf("Cursor.Next at %d = %d,%d,%t, want %v,%t", pos, k, v, ok, w, wok)
		}
		if !ok {
			if k, _, ok := c.Next(); ok {
				r.fatalf("exhausted cursor yielded %d", k)
			}
			break
		}
		pos = k + 1
	}
	c.Close()
}

func (r *history) snapshotOp() {
	if len(r.pins) < 3 && r.rng.Intn(2) == 0 {
		s := r.m.(snapshotter).Snapshot()
		r.pins = append(r.pins, pin{s: s, ref: slices.Clone(r.ref.kvs)})
		return
	}
	if len(r.pins) > 0 {
		i := r.rng.Intn(len(r.pins))
		r.checkPin(r.pins[i])
		r.pins = slices.Delete(r.pins, i, i+1)
	}
}

// checkPin reads a pinned snapshot through every surface, compares it with
// the model at its pin, and closes it.
func (r *history) checkPin(p pin) {
	ref := model{p.ref}
	for i := 0; i < 8; i++ {
		k := r.probe()
		v, ok := p.s.Get(k)
		if wv, wok := ref.get(k); ok != wok || v != wv || p.s.Contains(k) != wok {
			r.fatalf("Snapshot Get(%d) = %d,%t, want %d,%t", k, v, ok, wv, wok)
		}
	}
	if n := p.s.Len(); n != len(p.ref) {
		r.fatalf("Snapshot Len = %d, want %d", n, len(p.ref))
	}
	lo := r.probe()
	hi := lo + r.rng.Int63n(64)
	limit := 1 + r.rng.Intn(64)
	var got []kv
	p.s.Range(lo, hi, collect(&got, limit))
	r.scan(fmt.Sprintf("Snapshot Range(%d,%d)", lo, hi), got, ref.window(lo, hi), limit)
	got = nil
	p.s.Ascend(collect(&got, len(p.ref)+1))
	r.scan("Snapshot Ascend", got, p.ref, len(p.ref))
	if !r.tg.caps.keysOnly {
		start := r.probe()
		c := p.s.Cursor(start)
		got = nil
		for {
			k, v, ok := c.Next()
			if !ok {
				break
			}
			got = append(got, kv{k, v})
		}
		w := ref.window(start, sv.MaxKey)
		r.scan(fmt.Sprintf("Snapshot Cursor(%d)", start), got, w, len(w))
	}
	p.s.Close()
	p.s.Close()
}

// rebalance splits a shard at a key strictly inside it, or merges two.
func (r *history) rebalance() {
	b := r.m.(rebalancer)
	n := b.ShardCount()
	if n > 1 && (n >= 6 || r.rng.Intn(2) == 0) {
		i := r.rng.Intn(n - 1)
		if _, err := b.MergeShards(i); err != nil {
			r.fatalf("MergeShards(%d): %v", i, err)
		}
		return
	}
	i := r.rng.Intn(n)
	bounds := b.ShardBounds()
	lo, hi := int64(-8), int64(histKeys+8)
	if i > 0 {
		lo = bounds[i-1]
	}
	if i < len(bounds) {
		hi = bounds[i]
	}
	if hi-lo < 2 {
		return
	}
	key := lo + 1 + r.rng.Int63n(hi-lo-1)
	if _, err := b.SplitShard(i, key); err != nil {
		r.fatalf("SplitShard(%d, %d): %v", i, key, err)
	}
}

// checkAll compares the whole content with the model.
func (r *history) checkAll() {
	if n := r.m.Len(); n != len(r.ref.kvs) {
		r.fatalf("Len = %d, want %d", n, len(r.ref.kvs))
	}
	if got, want := r.m.Keys(), r.ref.keys(); !slices.Equal(got, want) {
		r.fatalf("Keys = %v, want %v", got, want)
	}
	var got []kv
	r.m.Ascend(collect(&got, len(r.ref.kvs)+1))
	r.scan("Ascend", got, r.ref.kvs, len(r.ref.kvs))
	k, v, ok := r.m.Min()
	if w, wok := r.ref.ceiling(sv.MinKey); ok != wok || (ok && (k != w.k || v != w.v)) {
		r.fatalf("Min = %d,%d,%t, want %v,%t", k, v, ok, w, wok)
	}
	k, v, ok = r.m.Max()
	if w, wok := r.ref.floor(sv.MaxKey); ok != wok || (ok && (k != w.k || v != w.v)) {
		r.fatalf("Max = %d,%d,%t, want %v,%t", k, v, ok, w, wok)
	}
	if !r.tg.caps.keysOnly {
		if err := r.m.CheckInvariants(); err != nil {
			r.fatalf("invariants: %v", err)
		}
	}
}

func runHistory(t *testing.T, tg target, td int, seed uint64) {
	r := &history{t: t, tg: tg, td: td, seed: seed, rng: rand.New(rand.NewSource(int64(seed)))}
	r.m = tg.open(t, td, histKeys)
	if tg.caps.handle {
		r.h = r.m.(handler).NewHandle()
	}
	for r.step = 0; r.step < histSteps; r.step++ {
		switch x := r.rng.Intn(20); {
		case x < 9:
			r.pointOp()
		case x < 12:
			r.batch()
		case x < 14:
			r.rangeQuery()
		case x < 15 && !tg.caps.keysOnly:
			r.rangeUpdate()
		case x < 16:
			r.ascend()
		case x < 18 && !tg.caps.keysOnly:
			r.cursorWalk()
		case x < 19 && tg.caps.snapshot:
			r.snapshotOp()
		default:
			r.pointOp()
		}
		switch {
		case tg.caps.handle && r.step%53 == 52:
			r.h.Close()
			r.h.Close()
			r.h = r.m.(handler).NewHandle()
		case tg.caps.rebalance && r.step%29 == 28:
			r.rebalance()
			r.checkAll()
		case tg.caps.durable && r.step%97 == 96:
			r.m.(reopener).reopen(r.rng.Intn(2) == 0)
			r.checkAll()
		case r.step%32 == 31:
			r.checkAll()
		}
	}
	r.checkAll()
	for _, p := range r.pins {
		r.checkPin(p)
	}
	if r.h != nil {
		r.h.Close()
	}
	if d, ok := r.m.(reopener); ok {
		d.reopen(false)
		r.checkAll()
		d.close()
	}
}

// lincheckHistories records small concurrent histories of point ops — each
// proc through its own session where the map has handles, and snapshot
// acquisitions where it has snapshots — while a rebalancer moves boundaries
// where it can, and checks each for linearizability.
func lincheckHistories(t *testing.T, tg target, seed uint64) {
	const (
		rounds  = 16
		procs   = 3
		opsEach = 5
		keys    = 4
	)
	for round := 0; round < rounds; round++ {
		m := tg.open(t, 2, keys)
		rec := lincheck.NewRecorder()
		var wg sync.WaitGroup
		for p := 0; p < procs; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(seed) + int64(round*procs+p)))
				var via pointOps = m
				if tg.caps.handle && p%2 == 1 {
					h := m.(handler).NewHandle()
					defer h.Close()
					via = h
				}
				for i := 0; i < opsEach; i++ {
					k := rng.Int63n(keys)
					switch op := rng.Intn(7); {
					case op < 2:
						v := int64(p*100 + i)
						if tg.caps.keysOnly {
							v = 0
						}
						inv := rec.Begin()
						ok := via.Insert(k, v)
						rec.End(lincheck.Event{Proc: p, Kind: lincheck.KindInsert, Key: k, Val: v, RetOK: ok}, inv)
					case op < 4:
						inv := rec.Begin()
						ok := via.Remove(k)
						rec.End(lincheck.Event{Proc: p, Kind: lincheck.KindRemove, Key: k, RetOK: ok}, inv)
					case op < 6 || !tg.caps.snapshot:
						inv := rec.Begin()
						v, ok := via.Lookup(k)
						rec.End(lincheck.Event{Proc: p, Kind: lincheck.KindLookup, Key: k, RetOK: ok, RetVal: v}, inv)
					default:
						inv := rec.Begin()
						s := m.(snapshotter).Snapshot()
						ret := rec.Now()
						var pairs []lincheck.KV
						s.Range(0, keys-1, func(k, v int64) bool {
							pairs = append(pairs, lincheck.KV{K: k, V: v})
							return true
						})
						s.Close()
						rec.EndAt(lincheck.Event{Proc: p, Kind: lincheck.KindSnapshot, Key: 0, Hi: keys - 1, Pairs: pairs}, inv, ret)
					}
				}
			}(p)
		}
		if tg.caps.rebalance {
			b := m.(rebalancer)
			if _, err := b.MergeShards(round % 3); err != nil {
				t.Errorf("MergeShards: %v", err)
			}
			if _, err := b.SplitShard(round%3, int64(round%3+1)); err != nil {
				t.Errorf("SplitShard: %v", err)
			}
		}
		wg.Wait()
		if ok, msg := lincheck.Check(rec.History()); !ok {
			t.Fatalf("round %d: %s (rerun with SV_SEED=%d)", round, msg, seed)
		}
		if d, ok := m.(reopener); ok {
			d.close()
		}
	}
}

// churn drives every surface at once and checks an accounting oracle: per
// key, successful inserts minus successful removes is 0 or 1 and matches
// the final content. Every value stays congruent to its key modulo the key
// space (a set's values read 0).
func churn(t *testing.T, tg target, seed uint64) {
	const (
		keys    = 512
		workers = 4
		opsEach = 1500
	)
	m := tg.open(t, 4, keys)
	valid := func(k, v int64) bool {
		if tg.caps.keysOnly {
			return v == 0
		}
		return v%keys == k%keys
	}
	var inserted, removed [keys]atomic.Int64
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(seed) + int64(w)))
			var via pointOps = m
			if tg.caps.handle && w%2 == 1 {
				h := m.(handler).NewHandle()
				defer h.Close()
				via = h
			}
			var cur cursor
			if !tg.caps.keysOnly {
				cur = m.Cursor(0)
				defer cur.Close()
			}
			prev := int64(-1)
			for i := 0; i < opsEach && !t.Failed(); i++ {
				k := rng.Int63n(keys)
				v := k + keys*rng.Int63n(4)
				if tg.caps.keysOnly {
					v = 0
				}
				switch rng.Intn(10) {
				case 0:
					if via.Insert(k, v) {
						inserted[k].Add(1)
					}
				case 1:
					if via.Upsert(k, v) {
						inserted[k].Add(1)
					}
				case 2, 3:
					if via.Remove(k) {
						removed[k].Add(1)
					}
				case 4:
					if v, ok := via.Lookup(k); ok && !valid(k, v) {
						t.Errorf("Lookup(%d) = %d", k, v)
					}
				case 5:
					hi, last := k+int64(rng.Intn(64)), int64(-1)
					m.RangeQuery(k, hi, func(kk, v int64) bool {
						if kk < k || kk > hi || kk <= last || !valid(kk, v) {
							t.Errorf("RangeQuery(%d,%d) visited %d=%d after %d", k, hi, kk, v, last)
							return false
						}
						last = kk
						return true
					})
				case 6:
					if !tg.caps.keysOnly {
						m.RangeUpdate(k, k+16, func(_, v int64) int64 { return v + keys })
					}
				case 7:
					if fk, fv, ok := via.Floor(k); ok && (fk > k || !valid(fk, fv)) {
						t.Errorf("Floor(%d) = %d=%d", k, fk, fv)
					}
					if ck, cv, ok := via.Ceiling(k); ok && (ck < k || !valid(ck, cv)) {
						t.Errorf("Ceiling(%d) = %d=%d", k, ck, cv)
					}
				default:
					if cur == nil {
						continue
					}
					kk, v, ok := cur.Next()
					switch {
					case !ok:
						cur.SeekTo(0)
						prev = -1
					case kk <= prev || !valid(kk, v):
						t.Errorf("Cursor.Next = %d=%d after %d", kk, v, prev)
					default:
						prev = kk
					}
				}
			}
		}(w)
	}
	var side sync.WaitGroup
	if tg.caps.rebalance {
		side.Add(1)
		go func() {
			defer side.Done()
			b := m.(rebalancer)
			for i := 0; i < 64; i++ {
				select {
				case <-done:
					return
				default:
				}
				var err error
				if n := b.ShardCount(); n > 2 {
					_, err = b.MergeShards(i % (n - 1))
				} else {
					_, err = b.SplitShard(0, b.ShardBounds()[0]-1-int64(i%8))
				}
				if err != nil {
					t.Errorf("rebalance: %v", err)
					return
				}
			}
		}()
	}
	if tg.caps.snapshot {
		side.Add(1)
		go func() {
			defer side.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				s := m.(snapshotter).Snapshot()
				n, last := 0, int64(-1)
				s.Ascend(func(k, v int64) bool {
					if k <= last || !valid(k, v) {
						t.Errorf("Snapshot Ascend visited %d=%d after %d", k, v, last)
						return false
					}
					last = k
					n++
					return true
				})
				if l := s.Len(); l != n {
					t.Errorf("Snapshot Len = %d, Ascend visited %d", l, n)
				}
				s.Close()
			}
		}()
	}
	wg.Wait()
	close(done)
	side.Wait()
	if t.Failed() {
		return
	}
	if !tg.caps.keysOnly {
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("invariants: %v (rerun with SV_SEED=%d)", err, seed)
		}
	}
	total := 0
	for k := int64(0); k < keys; k++ {
		diff := inserted[k].Load() - removed[k].Load()
		if present := m.Contains(k); (diff != 0 && diff != 1) || present != (diff == 1) {
			t.Fatalf("key %d: inserted-removed = %d, present %t (rerun with SV_SEED=%d)", k, diff, present, seed)
		}
		total += int(diff)
	}
	if n := m.Len(); n != total {
		t.Fatalf("Len = %d, oracle %d (rerun with SV_SEED=%d)", n, total, seed)
	}
	if d, ok := m.(reopener); ok {
		var before, after []kv
		m.Ascend(collect(&before, keys+1))
		d.reopen(false)
		m.Ascend(collect(&after, keys+1))
		if !slices.Equal(before, after) {
			t.Fatalf("reopened content differs: %d pairs before, %d after", len(before), len(after))
		}
		d.close()
	}
}

func TestConformance(t *testing.T) {
	seed := chaos.SeedFromEnv(0xc0f0)
	for _, tg := range conformanceTargets {
		t.Run(tg.name, func(t *testing.T) {
			t.Run("sweep", func(t *testing.T) {
				for td := 1; td <= 10; td++ {
					runHistory(t, tg, td, seed+uint64(td))
				}
			})
			t.Run("lincheck", func(t *testing.T) { lincheckHistories(t, tg, seed) })
			t.Run("churn", func(t *testing.T) { churn(t, tg, seed) })
		})
	}
}
