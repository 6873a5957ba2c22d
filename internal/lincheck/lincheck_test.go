package lincheck

import (
	"sync"
	"testing"
)

// seq builds a strictly sequential history from (kind,key,val,ok,retval).
func seq(events ...Event) []Event {
	ts := int64(0)
	out := make([]Event, len(events))
	for i, e := range events {
		ts++
		e.Invoke = ts
		ts++
		e.Return = ts
		out[i] = e
	}
	return out
}

func TestEmptyHistory(t *testing.T) {
	if ok, _ := Check(nil); !ok {
		t.Fatal("empty history must be linearizable")
	}
}

func TestSequentialLegalHistory(t *testing.T) {
	h := seq(
		Event{Kind: KindInsert, Key: 1, Val: 10, RetOK: true},
		Event{Kind: KindLookup, Key: 1, RetOK: true, RetVal: 10},
		Event{Kind: KindInsert, Key: 1, Val: 20, RetOK: false},
		Event{Kind: KindRemove, Key: 1, RetOK: true},
		Event{Kind: KindLookup, Key: 1, RetOK: false},
		Event{Kind: KindRemove, Key: 1, RetOK: false},
	)
	if ok, msg := Check(h); !ok {
		t.Fatal(msg)
	}
}

func TestSequentialIllegalHistories(t *testing.T) {
	cases := [][]Event{
		// Lookup finds a key never inserted.
		seq(Event{Kind: KindLookup, Key: 1, RetOK: true, RetVal: 5}),
		// Double successful insert.
		seq(
			Event{Kind: KindInsert, Key: 1, Val: 1, RetOK: true},
			Event{Kind: KindInsert, Key: 1, Val: 2, RetOK: true},
		),
		// Remove succeeds on absent key.
		seq(Event{Kind: KindRemove, Key: 9, RetOK: true}),
		// Lookup returns the wrong value.
		seq(
			Event{Kind: KindInsert, Key: 1, Val: 10, RetOK: true},
			Event{Kind: KindLookup, Key: 1, RetOK: true, RetVal: 11},
		),
		// Lookup misses a key that must be present.
		seq(
			Event{Kind: KindInsert, Key: 1, Val: 10, RetOK: true},
			Event{Kind: KindLookup, Key: 1, RetOK: false},
		),
	}
	for i, h := range cases {
		if ok, _ := Check(h); ok {
			t.Errorf("case %d: illegal history accepted", i)
		}
	}
}

func TestOverlappingOpsReorder(t *testing.T) {
	// Lookup overlaps an insert: both outcomes are linearizable.
	for _, found := range []bool{true, false} {
		h := []Event{
			{Kind: KindInsert, Key: 1, Val: 10, RetOK: true, Invoke: 1, Return: 4},
			{Kind: KindLookup, Key: 1, RetOK: found, RetVal: 10, Invoke: 2, Return: 3},
		}
		if ok, msg := Check(h); !ok {
			t.Fatalf("found=%t: %s", found, msg)
		}
	}
}

func TestRealTimeOrderEnforced(t *testing.T) {
	// Lookup strictly after a successful insert must find the key.
	h := []Event{
		{Kind: KindInsert, Key: 1, Val: 10, RetOK: true, Invoke: 1, Return: 2},
		{Kind: KindLookup, Key: 1, RetOK: false, Invoke: 3, Return: 4},
	}
	if ok, _ := Check(h); ok {
		t.Fatal("stale lookup after completed insert accepted")
	}
}

func TestConcurrentInsertsOnlyOneWins(t *testing.T) {
	// Two overlapping inserts of the same key: exactly one may succeed.
	legal := []Event{
		{Proc: 0, Kind: KindInsert, Key: 5, Val: 1, RetOK: true, Invoke: 1, Return: 5},
		{Proc: 1, Kind: KindInsert, Key: 5, Val: 2, RetOK: false, Invoke: 2, Return: 6},
	}
	if ok, msg := Check(legal); !ok {
		t.Fatal(msg)
	}
	illegal := []Event{
		{Proc: 0, Kind: KindInsert, Key: 5, Val: 1, RetOK: true, Invoke: 1, Return: 5},
		{Proc: 1, Kind: KindInsert, Key: 5, Val: 2, RetOK: true, Invoke: 2, Return: 6},
	}
	if ok, _ := Check(illegal); ok {
		t.Fatal("two winning inserts accepted")
	}
}

func TestInsertRemoveInterleaving(t *testing.T) {
	// insert || remove of same key where remove runs entirely within the
	// insert's interval: remove=true requires insert linearized first.
	h := []Event{
		{Kind: KindInsert, Key: 7, Val: 3, RetOK: true, Invoke: 1, Return: 6},
		{Kind: KindRemove, Key: 7, RetOK: true, Invoke: 2, Return: 5},
		{Kind: KindLookup, Key: 7, RetOK: false, Invoke: 7, Return: 8},
	}
	if ok, msg := Check(h); !ok {
		t.Fatal(msg)
	}
}

func TestTooLargeHistoryRejected(t *testing.T) {
	var h []Event
	for i := 0; i < 25; i++ {
		h = append(h, Event{Kind: KindLookup, Key: 1, Invoke: int64(2*i + 1), Return: int64(2*i + 2)})
	}
	if ok, msg := Check(h); ok || msg == "" {
		t.Fatal("oversized history should be rejected with a message")
	}
}

func TestRecorderTimestamps(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				inv := r.Begin()
				r.End(Event{Proc: p, Kind: KindLookup, Key: int64(i)}, inv)
			}
		}(p)
	}
	wg.Wait()
	h := r.History()
	if len(h) != 20 {
		t.Fatalf("recorded %d events", len(h))
	}
	for _, e := range h {
		if e.Invoke >= e.Return {
			t.Fatalf("event %v has inverted interval", e)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindLookup.String() != "lookup" || KindInsert.String() != "insert" || KindRemove.String() != "remove" {
		t.Fatal("Kind strings wrong")
	}
}

func TestRangeQuerySequential(t *testing.T) {
	h := seq(
		Event{Kind: KindInsert, Key: 1, Val: 10, RetOK: true},
		Event{Kind: KindInsert, Key: 3, Val: 30, RetOK: true},
		Event{Kind: KindInsert, Key: 9, Val: 90, RetOK: true},
		// Window [1,5] sees exactly {1:10, 3:30}, in order.
		Event{Kind: KindRangeQuery, Key: 1, Hi: 5, Pairs: []KV{{1, 10}, {3, 30}}},
		// Empty window.
		Event{Kind: KindRangeQuery, Key: 4, Hi: 8},
		Event{Kind: KindRemove, Key: 3, RetOK: true},
		Event{Kind: KindRangeQuery, Key: 1, Hi: 5, Pairs: []KV{{1, 10}}},
	)
	if ok, msg := Check(h); !ok {
		t.Fatal(msg)
	}
}

func TestRangeQueryIllegalSnapshots(t *testing.T) {
	cases := [][]Event{
		// Sees a key never inserted.
		seq(Event{Kind: KindRangeQuery, Key: 0, Hi: 9, Pairs: []KV{{1, 10}}}),
		// Misses a key that must be present.
		seq(
			Event{Kind: KindInsert, Key: 2, Val: 20, RetOK: true},
			Event{Kind: KindRangeQuery, Key: 0, Hi: 9},
		),
		// Sees a stale value.
		seq(
			Event{Kind: KindInsert, Key: 2, Val: 20, RetOK: true},
			Event{Kind: KindRangeUpdate, Key: 0, Hi: 9, Delta: 1, RetVal: 1},
			Event{Kind: KindRangeQuery, Key: 0, Hi: 9, Pairs: []KV{{2, 20}}},
		),
		// A torn snapshot: observes one of two keys that were both present
		// at every point after their (completed) inserts.
		seq(
			Event{Kind: KindInsert, Key: 1, Val: 1, RetOK: true},
			Event{Kind: KindInsert, Key: 2, Val: 2, RetOK: true},
			Event{Kind: KindRangeQuery, Key: 0, Hi: 9, Pairs: []KV{{2, 2}}},
		),
	}
	for i, h := range cases {
		if ok, _ := Check(h); ok {
			t.Errorf("case %d: illegal range snapshot accepted", i)
		}
	}
}

func TestRangeQueryOverlappingInsertEitherWay(t *testing.T) {
	// Range query overlaps an insert into its window: both the pre- and
	// post-insert snapshots are linearizable.
	for _, pairs := range [][]KV{nil, {{4, 40}}} {
		h := []Event{
			{Kind: KindInsert, Key: 4, Val: 40, RetOK: true, Invoke: 1, Return: 4},
			{Kind: KindRangeQuery, Key: 0, Hi: 9, Pairs: pairs, Invoke: 2, Return: 3},
		}
		if ok, msg := Check(h); !ok {
			t.Fatalf("pairs=%v: %s", pairs, msg)
		}
	}
}

func TestRangeUpdateSequential(t *testing.T) {
	h := seq(
		Event{Kind: KindInsert, Key: 1, Val: 10, RetOK: true},
		Event{Kind: KindInsert, Key: 2, Val: 20, RetOK: true},
		Event{Kind: KindRangeUpdate, Key: 1, Hi: 2, Delta: 5, RetVal: 2},
		Event{Kind: KindLookup, Key: 1, RetOK: true, RetVal: 15},
		Event{Kind: KindLookup, Key: 2, RetOK: true, RetVal: 25},
		// Update over an empty window visits nothing.
		Event{Kind: KindRangeUpdate, Key: 100, Hi: 200, Delta: 1, RetVal: 0},
	)
	if ok, msg := Check(h); !ok {
		t.Fatal(msg)
	}
}

func TestRangeUpdateIllegalHistories(t *testing.T) {
	cases := [][]Event{
		// Count mismatch: claims to have visited a mapping that can't exist.
		seq(Event{Kind: KindRangeUpdate, Key: 0, Hi: 9, Delta: 1, RetVal: 1}),
		// A lookup later observes a value the update must have changed.
		seq(
			Event{Kind: KindInsert, Key: 1, Val: 10, RetOK: true},
			Event{Kind: KindRangeUpdate, Key: 0, Hi: 9, Delta: 1, RetVal: 1},
			Event{Kind: KindLookup, Key: 1, RetOK: true, RetVal: 10},
		),
		// Update applied to only part of its window: key 2's value proves
		// the delta landed, key 1's proves it did not.
		seq(
			Event{Kind: KindInsert, Key: 1, Val: 10, RetOK: true},
			Event{Kind: KindInsert, Key: 2, Val: 20, RetOK: true},
			Event{Kind: KindRangeUpdate, Key: 0, Hi: 9, Delta: 1, RetVal: 2},
			Event{Kind: KindLookup, Key: 1, RetOK: true, RetVal: 10},
			Event{Kind: KindLookup, Key: 2, RetOK: true, RetVal: 21},
		),
	}
	for i, h := range cases {
		if ok, _ := Check(h); ok {
			t.Errorf("case %d: illegal range update accepted", i)
		}
	}
}

func TestRangeUpdateOverlappingLookup(t *testing.T) {
	// Lookup overlapping a range update may see either value.
	for _, val := range []int64{10, 11} {
		h := []Event{
			{Kind: KindInsert, Key: 1, Val: 10, RetOK: true, Invoke: 1, Return: 2},
			{Kind: KindRangeUpdate, Key: 0, Hi: 9, Delta: 1, RetVal: 1, Invoke: 3, Return: 6},
			{Kind: KindLookup, Key: 1, RetOK: true, RetVal: val, Invoke: 4, Return: 5},
		}
		if ok, msg := Check(h); !ok {
			t.Fatalf("val=%d: %s", val, msg)
		}
	}
}

func TestRangeKindStrings(t *testing.T) {
	if KindRangeQuery.String() != "rangequery" || KindRangeUpdate.String() != "rangeupdate" {
		t.Fatal("range Kind strings wrong")
	}
}

func TestBatchSequential(t *testing.T) {
	h := seq(
		Event{Kind: KindBatch, Items: []BatchItem{
			{Key: 1, Val: 10, Outcome: BatchInserted},
			{Key: 2, Val: 20, Outcome: BatchInserted},
		}},
		Event{Kind: KindLookup, Key: 1, RetOK: true, RetVal: 10},
		Event{Kind: KindBatch, Items: []BatchItem{
			{Key: 1, Del: true, Outcome: BatchRemoved},
			{Key: 2, Val: 22, Outcome: BatchUpdated},
			{Key: 3, Val: 30, InsertOnly: true, Outcome: BatchInserted},
			{Key: 2, Val: 23, InsertOnly: true, Outcome: BatchExists},
		}},
		Event{Kind: KindLookup, Key: 1, RetOK: false},
		Event{Kind: KindLookup, Key: 2, RetOK: true, RetVal: 22},
		Event{Kind: KindLookup, Key: 3, RetOK: true, RetVal: 30},
	)
	if ok, msg := Check(h); !ok {
		t.Fatal(msg)
	}
}

func TestBatchDuplicateKeysSequential(t *testing.T) {
	// Same-key ops resolve in request order: insert, delete, insert-only.
	h := seq(
		Event{Kind: KindBatch, Items: []BatchItem{
			{Key: 5, Val: 1, Outcome: BatchInserted},
			{Key: 5, Del: true, Outcome: BatchRemoved},
			{Key: 5, Val: 2, InsertOnly: true, Outcome: BatchInserted},
		}},
		Event{Kind: KindLookup, Key: 5, RetOK: true, RetVal: 2},
	)
	if ok, msg := Check(h); !ok {
		t.Fatal(msg)
	}
}

func TestBatchIllegalHistories(t *testing.T) {
	cases := [][]Event{
		// Inserted reported for a key that must already exist.
		seq(
			Event{Kind: KindInsert, Key: 1, Val: 9, RetOK: true},
			Event{Kind: KindBatch, Items: []BatchItem{{Key: 1, Val: 10, Outcome: BatchInserted}}},
		),
		// Removed reported for an absent key.
		seq(Event{Kind: KindBatch, Items: []BatchItem{{Key: 4, Del: true, Outcome: BatchRemoved}}}),
		// Exists reported for an absent key.
		seq(Event{Kind: KindBatch, Items: []BatchItem{{Key: 4, Val: 1, InsertOnly: true, Outcome: BatchExists}}}),
		// Torn batch: a later lookup sees one half but misses the other.
		seq(
			Event{Kind: KindBatch, Items: []BatchItem{
				{Key: 1, Val: 10, Outcome: BatchInserted},
				{Key: 2, Val: 20, Outcome: BatchInserted},
			}},
			Event{Kind: KindLookup, Key: 1, RetOK: true, RetVal: 10},
			Event{Kind: KindLookup, Key: 2, RetOK: false},
		),
		// Duplicate-key run with outcomes out of request order.
		seq(Event{Kind: KindBatch, Items: []BatchItem{
			{Key: 5, Val: 1, Outcome: BatchUpdated},
			{Key: 5, Del: true, Outcome: BatchRemoved},
		}}),
	}
	for i, h := range cases {
		if ok, _ := Check(h); ok {
			t.Errorf("case %d: illegal batch history accepted", i)
		}
	}
}

func TestBatchOverlappingLookupReorders(t *testing.T) {
	// A lookup overlapping a batch may see the pre- or post-batch state of
	// any key the batch touches — but never a torn mix inside one range
	// query. The checker must backtrack through the batch's multi-key undo
	// to accept the "before" linearization.
	for _, found := range []bool{true, false} {
		h := []Event{
			{Proc: 0, Kind: KindBatch, Invoke: 1, Return: 6, Items: []BatchItem{
				{Key: 1, Val: 10, Outcome: BatchInserted},
				{Key: 2, Val: 20, Outcome: BatchInserted},
			}},
			{Proc: 1, Kind: KindLookup, Key: 2, RetOK: found, RetVal: 20, Invoke: 2, Return: 3},
		}
		if ok, msg := Check(h); !ok {
			t.Fatalf("found=%t: %s", found, msg)
		}
	}
	// A range query overlapping the batch must not see a torn prefix of it.
	torn := []Event{
		{Proc: 0, Kind: KindBatch, Invoke: 1, Return: 6, Items: []BatchItem{
			{Key: 1, Val: 10, Outcome: BatchInserted},
			{Key: 2, Val: 20, Outcome: BatchInserted},
		}},
		{Proc: 1, Kind: KindRangeQuery, Key: 1, Hi: 2, Pairs: []KV{{1, 10}}, Invoke: 2, Return: 3},
	}
	if ok, _ := Check(torn); ok {
		t.Fatal("torn batch snapshot accepted")
	}
}

func TestBatchUndoRestoresPriorValues(t *testing.T) {
	// The batch overwrites and deletes pre-existing keys; a failed DFS branch
	// must restore them exactly or the accepting order will not be found.
	h := []Event{
		{Proc: 0, Kind: KindInsert, Key: 1, Val: 5, RetOK: true, Invoke: 1, Return: 2},
		{Proc: 0, Kind: KindInsert, Key: 2, Val: 6, RetOK: true, Invoke: 3, Return: 4},
		// Batch and the two lookups overlap; only lookup-first orders accept.
		{Proc: 0, Kind: KindBatch, Invoke: 5, Return: 10, Items: []BatchItem{
			{Key: 1, Val: 50, Outcome: BatchUpdated},
			{Key: 2, Del: true, Outcome: BatchRemoved},
		}},
		{Proc: 1, Kind: KindLookup, Key: 1, RetOK: true, RetVal: 5, Invoke: 6, Return: 7},
		{Proc: 1, Kind: KindLookup, Key: 2, RetOK: true, RetVal: 6, Invoke: 8, Return: 9},
	}
	if ok, msg := Check(h); !ok {
		t.Fatal(msg)
	}
}

func TestSnapshotSequential(t *testing.T) {
	// The snapshot's Pairs reflect the state at acquisition even though the
	// iteration that produced them "ran" after later writes completed: the
	// KindSnapshot interval covers only the acquisition.
	h := seq(
		Event{Kind: KindInsert, Key: 1, Val: 10, RetOK: true},
		Event{Kind: KindInsert, Key: 3, Val: 30, RetOK: true},
		Event{Kind: KindSnapshot, Key: 0, Hi: 9, Pairs: []KV{{1, 10}, {3, 30}}},
		Event{Kind: KindRemove, Key: 1, RetOK: true},
		Event{Kind: KindInsert, Key: 5, Val: 50, RetOK: true},
		// A later snapshot sees the mutated state; the earlier one stays valid.
		Event{Kind: KindSnapshot, Key: 0, Hi: 9, Pairs: []KV{{3, 30}, {5, 50}}},
	)
	if ok, msg := Check(h); !ok {
		t.Fatal(msg)
	}
}

func TestSnapshotIllegalHistories(t *testing.T) {
	cases := [][]Event{
		// Sees a key never inserted.
		seq(Event{Kind: KindSnapshot, Key: 0, Hi: 9, Pairs: []KV{{1, 10}}}),
		// Misses a key inserted before the acquisition completed.
		seq(
			Event{Kind: KindInsert, Key: 2, Val: 20, RetOK: true},
			Event{Kind: KindSnapshot, Key: 0, Hi: 9},
		),
		// Sees a write that linearized strictly after the acquisition
		// returned — the pinned view leaked a future state.
		[]Event{
			{Kind: KindSnapshot, Key: 0, Hi: 9, Pairs: []KV{{4, 40}}, Invoke: 1, Return: 2},
			{Kind: KindInsert, Key: 4, Val: 40, RetOK: true, Invoke: 3, Return: 4},
		},
		// Torn view: two keys were inserted before the acquisition and never
		// removed, yet only one appears — no single point has that state.
		seq(
			Event{Kind: KindInsert, Key: 1, Val: 1, RetOK: true},
			Event{Kind: KindInsert, Key: 2, Val: 2, RetOK: true},
			Event{Kind: KindSnapshot, Key: 0, Hi: 9, Pairs: []KV{{2, 2}}},
		),
		// Mixed-epoch view: observes key 1's pre-update value next to key 2's
		// post-update value of one atomic RangeUpdate — a state that never
		// existed at any linearization point.
		seq(
			Event{Kind: KindInsert, Key: 1, Val: 10, RetOK: true},
			Event{Kind: KindInsert, Key: 2, Val: 20, RetOK: true},
			Event{Kind: KindRangeUpdate, Key: 0, Hi: 9, Delta: 1, RetVal: 2},
			Event{Kind: KindSnapshot, Key: 0, Hi: 9, Pairs: []KV{{1, 10}, {2, 21}}},
		),
	}
	for i, h := range cases {
		if ok, _ := Check(h); ok {
			t.Errorf("case %d: illegal snapshot history accepted", i)
		}
	}
}

func TestSnapshotOverlappingInsertEitherWay(t *testing.T) {
	// An insert overlapping the acquisition may land on either side of the
	// snapshot's linearization point.
	for _, pairs := range [][]KV{nil, {{4, 40}}} {
		h := []Event{
			{Kind: KindInsert, Key: 4, Val: 40, RetOK: true, Invoke: 1, Return: 4},
			{Kind: KindSnapshot, Key: 0, Hi: 9, Pairs: pairs, Invoke: 2, Return: 3},
		}
		if ok, msg := Check(h); !ok {
			t.Fatalf("pairs=%v: %s", pairs, msg)
		}
	}
}

func TestSnapshotKindString(t *testing.T) {
	if KindSnapshot.String() != "snapshot" {
		t.Fatalf("KindSnapshot.String() = %q", KindSnapshot.String())
	}
	e := Event{Proc: 2, Kind: KindSnapshot, Key: 0, Hi: 9, Pairs: []KV{{1, 10}}, Invoke: 1, Return: 2}
	if got := e.String(); got != "P2 snapshot[0,9]=[{1 10}] @[1,2]" {
		t.Fatalf("Event.String() = %q", got)
	}
}

func TestRebalanceSequential(t *testing.T) {
	// A rebalance is a pure representation change: its pinned pre-copy view
	// must match the state at acquisition, and the abstract map is untouched
	// — reads before and after see exactly the same mappings.
	h := seq(
		Event{Kind: KindInsert, Key: 1, Val: 10, RetOK: true},
		Event{Kind: KindInsert, Key: 3, Val: 30, RetOK: true},
		Event{Kind: KindInsert, Key: 7, Val: 70, RetOK: true},
		Event{Kind: KindRebalance, Key: 0, Hi: 5, Pairs: []KV{{1, 10}, {3, 30}}},
		Event{Kind: KindLookup, Key: 1, RetOK: true, RetVal: 10},
		Event{Kind: KindLookup, Key: 3, RetOK: true, RetVal: 30},
		Event{Kind: KindLookup, Key: 7, RetOK: true, RetVal: 70},
		// An empty-window migration observes nothing.
		Event{Kind: KindRebalance, Key: 100, Hi: 200},
	)
	if ok, msg := Check(h); !ok {
		t.Fatal(msg)
	}
}

func TestRebalanceIllegalHistories(t *testing.T) {
	cases := [][]Event{
		// The migrator's pinned view saw a key never inserted.
		seq(Event{Kind: KindRebalance, Key: 0, Hi: 9, Pairs: []KV{{1, 10}}}),
		// The pinned view missed a key present throughout.
		seq(
			Event{Kind: KindInsert, Key: 2, Val: 20, RetOK: true},
			Event{Kind: KindRebalance, Key: 0, Hi: 9},
		),
		// Lost update: a write completed before the migration began, but a
		// read after the swap misses it — the classic failure the write gate
		// exists to prevent. The rebalance event itself validates; the stale
		// read after it cannot linearize.
		seq(
			Event{Kind: KindInsert, Key: 4, Val: 40, RetOK: true},
			Event{Kind: KindRebalance, Key: 0, Hi: 9, Pairs: []KV{{4, 40}}},
			Event{Kind: KindLookup, Key: 4, RetOK: false},
		),
		// Resurrection: a key removed before the migration reappears after
		// the swap (a copy taken before the delete).
		seq(
			Event{Kind: KindInsert, Key: 5, Val: 50, RetOK: true},
			Event{Kind: KindRemove, Key: 5, RetOK: true},
			Event{Kind: KindRebalance, Key: 0, Hi: 9},
			Event{Kind: KindLookup, Key: 5, RetOK: true, RetVal: 50},
		),
		// Torn pinned view: two keys present for the whole acquisition, only
		// one observed — no single point has that state.
		seq(
			Event{Kind: KindInsert, Key: 1, Val: 1, RetOK: true},
			Event{Kind: KindInsert, Key: 2, Val: 2, RetOK: true},
			Event{Kind: KindRebalance, Key: 0, Hi: 9, Pairs: []KV{{2, 2}}},
		),
	}
	for i, h := range cases {
		if ok, _ := Check(h); ok {
			t.Errorf("case %d: illegal rebalance history accepted", i)
		}
	}
}

func TestRebalanceOverlappingWriteEitherWay(t *testing.T) {
	// A write overlapping the migration's snapshot acquisition may land on
	// either side of its linearization point: the pinned view may or may not
	// carry it, and both must check.
	for _, pairs := range [][]KV{nil, {{4, 40}}} {
		h := []Event{
			{Kind: KindInsert, Key: 4, Val: 40, RetOK: true, Invoke: 1, Return: 4},
			{Kind: KindRebalance, Key: 0, Hi: 9, Pairs: pairs, Invoke: 2, Return: 3},
		}
		if ok, msg := Check(h); !ok {
			t.Fatalf("pairs=%v: %s", pairs, msg)
		}
	}
}

func TestRebalanceKindString(t *testing.T) {
	if KindRebalance.String() != "rebalance" {
		t.Fatalf("KindRebalance.String() = %q", KindRebalance.String())
	}
	e := Event{Proc: 1, Kind: KindRebalance, Key: 0, Hi: 9, Pairs: []KV{{1, 10}}, Invoke: 1, Return: 2}
	if got := e.String(); got != "P1 rebalance[0,9]=[{1 10}] @[1,2]" {
		t.Fatalf("Event.String() = %q", got)
	}
}
