// Package lincheck is a small linearizability checker for ordered-map
// histories, in the style of Wing & Gong. The test suite uses it to verify
// the skip vector's central claim (Section IV-C): every concurrent history
// of Lookup/Insert/Remove operations is equivalent to some sequential
// history that respects real-time order.
//
// The checker does an exhaustive search with memoization, so it is meant
// for small histories (tens of operations): record a short concurrent run
// with Recorder, then call Check.
package lincheck

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is the operation type in a history.
type Kind int

// Operation kinds.
const (
	KindLookup Kind = iota + 1
	KindInsert
	KindRemove
	// KindRangeQuery is a serializable range query over [Key,Hi]: the
	// Pairs it observed must equal some linearization point's state
	// restricted to the window, exactly and in ascending key order.
	KindRangeQuery
	// KindRangeUpdate adds Delta to every value in [Key,Hi] as one atomic
	// operation; RetVal is the number of mappings it visited.
	KindRangeUpdate
	// KindBatch applies Items as one atomic multi-key batch, in ascending
	// key order with same-key items in slice order (mirroring ApplyBatch's
	// commit order); every item's recorded Outcome must match what the
	// sequential model produces at the batch's linearization point.
	KindBatch
	// KindSnapshot is a snapshot acquisition whose content was observed by
	// iterating the pinned view over [Key,Hi]. The acquisition linearizes at
	// a single point inside [Invoke,Return] — even though the iteration that
	// produced Pairs may have run long after Return, concurrent with
	// arbitrary later writes — so Pairs must equal the model state's
	// restriction to the window at that point, exactly and in ascending key
	// order. Validation is identical to KindRangeQuery; the difference is
	// operational (the interval covers only Snapshot(), not the reads).
	KindSnapshot
	// KindRebalance is a shard migration over the window [Key,Hi]: the
	// migrator sealed the range, copied it into fresh shards while nothing
	// could write it, and swapped the routing table, all inside
	// [Invoke,Return]. Two things must hold of the abstract map: the
	// migration changes NOTHING (it is a pure representation change — the
	// event applies no state mutation), and the content the migrator copied
	// (Pairs) must equal the model state's restriction to the window at one
	// point, exactly and in ascending key order. Lost updates across the
	// swap do not show up in the event itself — they surface as later point
	// reads returning stale values, which the surrounding history then
	// fails to linearize.
	KindRebalance
)

func (k Kind) String() string {
	switch k {
	case KindLookup:
		return "lookup"
	case KindInsert:
		return "insert"
	case KindRemove:
		return "remove"
	case KindRangeQuery:
		return "rangequery"
	case KindRangeUpdate:
		return "rangeupdate"
	case KindBatch:
		return "batch"
	case KindSnapshot:
		return "snapshot"
	case KindRebalance:
		return "rebalance"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// KV is one observed key/value pair in a range query's snapshot.
type KV struct {
	K, V int64
}

// BatchOutcome is the per-item result a KindBatch event recorded. The values
// mirror the implementation's outcome vocabulary; lincheck keeps its own copy
// so the checker stays free of implementation imports.
type BatchOutcome int

// Batch item outcomes.
const (
	BatchInserted BatchOutcome = iota + 1
	BatchUpdated
	BatchRemoved
	BatchAbsent
	BatchExists
)

func (o BatchOutcome) String() string {
	switch o {
	case BatchInserted:
		return "inserted"
	case BatchUpdated:
		return "updated"
	case BatchRemoved:
		return "removed"
	case BatchAbsent:
		return "absent"
	case BatchExists:
		return "exists"
	default:
		return fmt.Sprintf("BatchOutcome(%d)", int(o))
	}
}

// BatchItem is one op of a KindBatch event: a put (optionally insert-only) or
// a delete of Key, paired with the Outcome the implementation reported.
type BatchItem struct {
	Key, Val   int64
	Del        bool
	InsertOnly bool
	Outcome    BatchOutcome
}

// String renders the item for failure messages.
func (it BatchItem) String() string {
	switch {
	case it.Del:
		return fmt.Sprintf("del(%d)=%v", it.Key, it.Outcome)
	case it.InsertOnly:
		return fmt.Sprintf("ins(%d,%d)=%v", it.Key, it.Val, it.Outcome)
	default:
		return fmt.Sprintf("put(%d,%d)=%v", it.Key, it.Val, it.Outcome)
	}
}

// Event is one completed operation with its real-time interval. Timestamps
// come from the Recorder's global logical clock: Invoke < Return for each
// event, and intervals order events when they do not overlap.
type Event struct {
	Proc   int
	Kind   Kind
	Key    int64       // point-op key; lower bound of a range window
	Hi     int64       // inclusive upper bound of a range window
	Val    int64       // value argument for Insert
	Delta  int64       // increment a RangeUpdate applies to each value in range
	Pairs  []KV        // snapshot a RangeQuery observed, ascending key order
	Items  []BatchItem // ops of a KindBatch event, in request order
	RetOK  bool        // operation's boolean result (found / inserted / removed)
	RetVal int64       // value returned by a Lookup; count visited by a RangeUpdate
	Invoke int64
	Return int64
}

// String renders the event for failure messages.
func (e Event) String() string {
	switch e.Kind {
	case KindInsert:
		return fmt.Sprintf("P%d insert(%d,%d)=%t @[%d,%d]", e.Proc, e.Key, e.Val, e.RetOK, e.Invoke, e.Return)
	case KindRemove:
		return fmt.Sprintf("P%d remove(%d)=%t @[%d,%d]", e.Proc, e.Key, e.RetOK, e.Invoke, e.Return)
	case KindRangeQuery:
		return fmt.Sprintf("P%d rangequery[%d,%d]=%v @[%d,%d]", e.Proc, e.Key, e.Hi, e.Pairs, e.Invoke, e.Return)
	case KindRangeUpdate:
		return fmt.Sprintf("P%d rangeupdate[%d,%d]+=%d visited %d @[%d,%d]", e.Proc, e.Key, e.Hi, e.Delta, e.RetVal, e.Invoke, e.Return)
	case KindBatch:
		return fmt.Sprintf("P%d batch%v @[%d,%d]", e.Proc, e.Items, e.Invoke, e.Return)
	case KindSnapshot:
		return fmt.Sprintf("P%d snapshot[%d,%d]=%v @[%d,%d]", e.Proc, e.Key, e.Hi, e.Pairs, e.Invoke, e.Return)
	case KindRebalance:
		return fmt.Sprintf("P%d rebalance[%d,%d]=%v @[%d,%d]", e.Proc, e.Key, e.Hi, e.Pairs, e.Invoke, e.Return)
	default:
		return fmt.Sprintf("P%d lookup(%d)=(%d,%t) @[%d,%d]", e.Proc, e.Key, e.RetVal, e.RetOK, e.Invoke, e.Return)
	}
}

// Recorder collects events from concurrent goroutines with a shared logical
// clock. All methods are safe for concurrent use.
type Recorder struct {
	clock  atomic.Int64
	mu     sync.Mutex
	events []Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Begin returns an invocation timestamp.
func (r *Recorder) Begin() int64 { return r.clock.Add(1) }

// Now returns a fresh timestamp without recording anything. Use it to close
// an operation's real-time interval before its observations are materialized
// — a snapshot acquisition returns immediately, but the Pairs its event
// carries are produced by iterating the pinned view arbitrarily later.
func (r *Recorder) Now() int64 { return r.clock.Add(1) }

// End records a completed operation whose invocation timestamp was inv.
func (r *Recorder) End(e Event, inv int64) {
	r.EndAt(e, inv, r.clock.Add(1))
}

// EndAt records a completed operation with an explicit interval, for events
// whose observation outlives their linearization interval (KindSnapshot: the
// interval covers only the acquisition, captured with Begin/Now around it,
// while the event is filed after the snapshot has been read).
func (r *Recorder) EndAt(e Event, inv, ret int64) {
	e.Invoke = inv
	e.Return = ret
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// History returns the recorded events.
func (r *Recorder) History() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Check reports whether the history is linearizable with respect to the
// sequential map specification (Section IV-A): Insert fails iff the key is
// present, Remove succeeds iff present, Lookup returns the mapped value.
// The second return is a human-readable explanation when the check fails.
func Check(history []Event) (bool, string) {
	n := len(history)
	if n == 0 {
		return true, ""
	}
	if n > 24 {
		return false, "lincheck: history too large for exhaustive checking (max 24 events)"
	}
	evs := make([]Event, n)
	copy(evs, history)
	sort.Slice(evs, func(i, j int) bool { return evs[i].Invoke < evs[j].Invoke })

	type stateKey struct {
		mask uint32
		sig  string
	}
	visited := map[stateKey]bool{}

	// DFS over linearization prefixes. state is the map contents.
	var dfs func(mask uint32, state map[int64]int64) bool
	dfs = func(mask uint32, state map[int64]int64) bool {
		if mask == (uint32(1)<<n)-1 {
			return true
		}
		key := stateKey{mask: mask, sig: sigOf(state)}
		if visited[key] {
			return false
		}
		visited[key] = true

		// minReturn over remaining events: an event may linearize next only
		// if no remaining event returned strictly before it was invoked.
		minReturn := int64(1) << 62
		for i := 0; i < n; i++ {
			if mask&(1<<i) == 0 && evs[i].Return < minReturn {
				minReturn = evs[i].Return
			}
		}
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				continue
			}
			e := evs[i]
			if e.Invoke > minReturn {
				continue // some remaining op strictly precedes e
			}
			undo, ok := apply(e, state)
			if !ok {
				continue
			}
			if dfs(mask|(1<<i), state) {
				return true
			}
			if undo != nil {
				undo()
			}
		}
		return false
	}

	if dfs(0, map[int64]int64{}) {
		return true, ""
	}
	var b strings.Builder
	b.WriteString("history not linearizable:\n")
	for _, e := range evs {
		fmt.Fprintf(&b, "  %s\n", e)
	}
	return false, b.String()
}

// apply checks e against the sequential spec and, when consistent,
// applies its effect to state. It returns an undo closure (nil when the
// event changed nothing) so the DFS can backtrack multi-key effects.
func apply(e Event, state map[int64]int64) (func(), bool) {
	switch e.Kind {
	case KindLookup:
		v, present := state[e.Key]
		if e.RetOK != present || (present && e.RetVal != v) {
			return nil, false
		}
		return nil, true
	case KindInsert:
		_, present := state[e.Key]
		if e.RetOK == present {
			return nil, false
		}
		if !e.RetOK {
			return nil, true
		}
		k := e.Key
		state[k] = e.Val
		return func() { delete(state, k) }, true
	case KindRemove:
		v, present := state[e.Key]
		if e.RetOK != present {
			return nil, false
		}
		if !e.RetOK {
			return nil, true
		}
		k := e.Key
		delete(state, k)
		return func() { state[k] = v }, true
	case KindRangeQuery, KindSnapshot, KindRebalance:
		// The observed snapshot must be exactly the state's restriction to
		// [Key,Hi]: same keys, same values, ascending order. A KindSnapshot
		// event mutates nothing — the pinned view's content is decided at the
		// acquisition's linearization point and the later reads only reveal it.
		// A KindRebalance event shares the rule: the migration's sealed copy
		// is one instant's view, and the migration itself must be a no-op on
		// the abstract map.
		keys := keysInRange(state, e.Key, e.Hi)
		if len(keys) != len(e.Pairs) {
			return nil, false
		}
		for i, k := range keys {
			if e.Pairs[i].K != k || e.Pairs[i].V != state[k] {
				return nil, false
			}
		}
		return nil, true
	case KindRangeUpdate:
		keys := keysInRange(state, e.Key, e.Hi)
		if e.RetVal != int64(len(keys)) {
			return nil, false
		}
		if e.Delta == 0 || len(keys) == 0 {
			return nil, true
		}
		d := e.Delta
		for _, k := range keys {
			state[k] += d
		}
		return func() {
			for _, k := range keys {
				state[k] -= d
			}
		}, true
	case KindBatch:
		return applyBatch(e, state)
	default:
		return nil, false
	}
}

// prevEntry is one key's pre-batch state, captured for multi-key undo.
type prevEntry struct {
	v       int64
	present bool
}

// applyBatch validates a KindBatch event item by item in ApplyBatch's commit
// order (ascending key, request order within a key), mutating state as it
// goes. First-touch snapshots give an exact multi-key undo, which also
// restores state when a mid-batch item contradicts the model — apply's
// contract is that a failed event leaves state unchanged.
func applyBatch(e Event, state map[int64]int64) (func(), bool) {
	idx := make([]int, len(e.Items))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return e.Items[idx[a]].Key < e.Items[idx[b]].Key })

	saved := map[int64]prevEntry{}
	touch := func(k int64) {
		if _, done := saved[k]; !done {
			v, present := state[k]
			saved[k] = prevEntry{v: v, present: present}
		}
	}
	restore := func() {
		for k, p := range saved {
			if p.present {
				state[k] = p.v
			} else {
				delete(state, k)
			}
		}
	}
	for _, i := range idx {
		it := e.Items[i]
		_, present := state[it.Key]
		var want BatchOutcome
		switch {
		case it.Del:
			if present {
				want = BatchRemoved
			} else {
				want = BatchAbsent
			}
		case it.InsertOnly:
			if present {
				want = BatchExists
			} else {
				want = BatchInserted
			}
		default:
			if present {
				want = BatchUpdated
			} else {
				want = BatchInserted
			}
		}
		if it.Outcome != want {
			restore()
			return nil, false
		}
		switch {
		case it.Del && present:
			touch(it.Key)
			delete(state, it.Key)
		case !it.Del && (!present || !it.InsertOnly):
			touch(it.Key)
			state[it.Key] = it.Val
		}
	}
	if len(saved) == 0 {
		return nil, true
	}
	return restore, true
}

// keysInRange returns the state's keys within [lo,hi], ascending.
func keysInRange(state map[int64]int64, lo, hi int64) []int64 {
	var keys []int64
	for k := range state {
		if lo <= k && k <= hi {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// sigOf serializes the map state for memoization.
func sigOf(state map[int64]int64) string {
	keys := make([]int64, 0, len(state))
	for k := range state {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%d:%d;", k, state[k])
	}
	return b.String()
}
