package hazard

import (
	"sync"
	"sync/atomic"
	"testing"
)

type nodeT struct {
	id int
}

func TestRetireWithoutProtectionRecycles(t *testing.T) {
	var recycled []*nodeT
	d := NewDomain(func(n *nodeT) { recycled = append(recycled, n) })
	h := d.NewHandle()
	nodes := make([]*nodeT, ScanThreshold)
	for i := range nodes {
		nodes[i] = &nodeT{id: i}
		h.Retire(nodes[i])
	}
	// The ScanThreshold-th retire triggers a scan; nothing is protected.
	if len(recycled) != ScanThreshold {
		t.Fatalf("recycled %d nodes, want %d", len(recycled), ScanThreshold)
	}
	if d.RetiredCount() != 0 {
		t.Fatalf("RetiredCount = %d, want 0", d.RetiredCount())
	}
	if d.RecycledCount() != int64(ScanThreshold) {
		t.Fatalf("RecycledCount = %d", d.RecycledCount())
	}
}

func TestProtectedNodeSurvivesScan(t *testing.T) {
	var recycled []*nodeT
	d := NewDomain(func(n *nodeT) { recycled = append(recycled, n) })
	owner := d.NewHandle()
	reader := d.NewHandle()

	victim := &nodeT{id: -1}
	reader.Protect(0, victim)

	owner.Retire(victim)
	for i := 0; i < ScanThreshold+4; i++ {
		owner.Retire(&nodeT{id: i})
	}
	for _, n := range recycled {
		if n == victim {
			t.Fatal("protected node was recycled")
		}
	}
	// The victim plus any retires after the last scan remain pending.
	if got := d.RetiredCount(); got < 1 || got > ScanThreshold {
		t.Fatalf("RetiredCount = %d, want within [1,%d]", got, ScanThreshold)
	}

	// Dropping protection and flushing releases it.
	reader.Clear(0)
	owner.Flush()
	found := false
	for _, n := range recycled {
		if n == victim {
			found = true
		}
	}
	if !found {
		t.Fatal("victim not recycled after protection dropped")
	}
}

func TestClearAll(t *testing.T) {
	d := NewDomain[nodeT](nil)
	h := d.NewHandle()
	for i := 0; i < SlotsPerHandle; i++ {
		h.Protect(i, &nodeT{id: i})
	}
	h.ClearAll()
	for i := 0; i < SlotsPerHandle; i++ {
		if h.slots[i].Load() != nil {
			t.Fatalf("slot %d not cleared", i)
		}
	}
}

func TestNilRecycleHook(t *testing.T) {
	d := NewDomain[nodeT](nil)
	h := d.NewHandle()
	for i := 0; i < ScanThreshold; i++ {
		h.Retire(&nodeT{id: i})
	}
	if d.RetiredCount() != 0 {
		t.Fatalf("RetiredCount = %d, want 0", d.RetiredCount())
	}
}

func TestHandleRegistration(t *testing.T) {
	d := NewDomain[nodeT](nil)
	if d.Handles() != 0 {
		t.Fatalf("fresh domain has %d handles", d.Handles())
	}
	var hs []*Handle[nodeT]
	for i := 0; i < 5; i++ {
		hs = append(hs, d.NewHandle())
	}
	if d.Handles() != 5 {
		t.Fatalf("Handles = %d, want 5", d.Handles())
	}
	_ = hs
}

// TestBoundedGarbage verifies the paper's bounded-garbage property: retired
// but unreclaimed nodes never exceed handles × ScanThreshold even under a
// protect/retire storm.
func TestBoundedGarbage(t *testing.T) {
	d := NewDomain[nodeT](nil)
	const workers = 4
	var wg sync.WaitGroup
	var maxRetired atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := d.NewHandle()
			for i := 0; i < 5000; i++ {
				n := &nodeT{id: i}
				h.Protect(0, n)
				h.Clear(0)
				h.Retire(n)
				if r := d.RetiredCount(); r > maxRetired.Load() {
					maxRetired.Store(r)
				}
			}
			h.Flush()
		}()
	}
	wg.Wait()
	bound := int64(workers * ScanThreshold)
	if got := maxRetired.Load(); got > bound {
		t.Fatalf("retired high-water %d exceeds bound %d", got, bound)
	}
	if d.RetiredCount() != 0 {
		t.Fatalf("RetiredCount = %d after flush, want 0", d.RetiredCount())
	}
}

// TestConcurrentProtectRetire stress-tests the core safety property: a node
// that a reader has protected and re-validated is never recycled while the
// protection holds. The "validation" here is a generation counter standing
// in for the skip vector's sequence lock.
func TestConcurrentProtectRetire(t *testing.T) {
	type cell struct {
		ptr atomic.Pointer[nodeT]
		gen atomic.Int64
	}
	var shared cell
	shared.ptr.Store(&nodeT{id: 0})

	recycledSet := sync.Map{}
	d := NewDomain(func(n *nodeT) { recycledSet.Store(n, true) })

	var stop atomic.Bool
	var violations atomic.Int64
	var wg sync.WaitGroup

	// Writer: swaps the shared node and retires the old one.
	wg.Add(1)
	go func() {
		defer wg.Done()
		h := d.NewHandle()
		for i := 1; i < 3000; i++ {
			old := shared.ptr.Load()
			shared.ptr.Store(&nodeT{id: i})
			shared.gen.Add(1)
			h.Retire(old)
		}
		h.Flush()
		stop.Store(true)
	}()

	// Readers: protect, validate generation, then check the node was not
	// recycled while protected.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := d.NewHandle()
			for !stop.Load() {
				g := shared.gen.Load()
				n := shared.ptr.Load()
				h.Protect(0, n)
				if shared.gen.Load() != g {
					h.Clear(0) // validation failed: retry
					continue
				}
				// Protected + validated: n must not be recycled now.
				if _, bad := recycledSet.Load(n); bad {
					violations.Add(1)
				}
				h.Clear(0)
			}
		}()
	}
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d protected nodes were recycled", v)
	}
}

func TestRecycleFilterHoldsNodes(t *testing.T) {
	var recycled []*nodeT
	d := NewDomain(func(n *nodeT) { recycled = append(recycled, n) })
	h := d.NewHandle()

	// The filter rejects odd ids — they must survive every scan, unprotected,
	// until the filter releases them.
	var release atomic.Bool
	d.SetRecycleFilter(func(n *nodeT, _ uint64) bool { return n.id%2 == 0 || release.Load() })

	nodes := make([]*nodeT, 2*ScanThreshold)
	for i := range nodes {
		nodes[i] = &nodeT{id: i}
		h.Retire(nodes[i])
	}
	h.Flush()
	for _, n := range recycled {
		if n.id%2 == 1 {
			t.Fatalf("filter-held node %d recycled", n.id)
		}
	}
	// Every even node was reclaimable and no hazard pointer was published, so
	// pending garbage is exactly the held half.
	if got := d.RetiredCount(); got != int64(len(nodes)/2) {
		t.Fatalf("RetiredCount = %d, want %d held nodes", got, len(nodes)/2)
	}

	// Filter releases (monotone flip): a flush drains everything.
	release.Store(true)
	h.Flush()
	if got := d.RetiredCount(); got != 0 {
		t.Fatalf("RetiredCount = %d after filter release", got)
	}
	if len(recycled) != len(nodes) {
		t.Fatalf("recycled %d of %d after release", len(recycled), len(nodes))
	}
}

// TestRecycleFilterSeesRetireTag checks that the filter receives, for each
// node, the tag its Retire call passed (and 0 for a Retire without one),
// in every scan until the node is released, and that releasing by tag
// recycles exactly the nodes whose tags the filter accepts.
func TestRecycleFilterSeesRetireTag(t *testing.T) {
	recycled := map[*nodeT]bool{}
	d := NewDomain(func(n *nodeT) { recycled[n] = true })
	h := d.NewHandle()

	want := map[*nodeT]uint64{}
	var limit atomic.Uint64
	limit.Store(2 * ScanThreshold)
	d.SetRecycleFilter(func(n *nodeT, tag uint64) bool {
		if tag != want[n] {
			t.Errorf("filter saw node %d with tag %d, want %d", n.id, tag, want[n])
		}
		return tag <= limit.Load()
	})

	untagged := &nodeT{id: -1}
	want[untagged] = 0
	h.Retire(untagged)
	nodes := make([]*nodeT, 4*ScanThreshold)
	for i := range nodes {
		nodes[i] = &nodeT{id: i}
		want[nodes[i]] = uint64(i) * 3 // tags not in id order of retirement scans
		h.Retire(nodes[i], want[nodes[i]])
	}
	for _, bound := range []uint64{2 * ScanThreshold, 6 * ScanThreshold, 12 * ScanThreshold} {
		limit.Store(bound)
		h.Flush()
		for n, tag := range want {
			if recycled[n] != (tag <= bound) {
				t.Fatalf("limit %d: node %d (tag %d) recycled = %t", bound, n.id, tag, recycled[n])
			}
		}
	}
	if got := d.RetiredCount(); got != 0 {
		t.Fatalf("RetiredCount = %d after every tag was released", got)
	}
}

func TestRecycleFilterComposesWithProtection(t *testing.T) {
	// A node both hazard-protected and filter-held must stay pending until
	// BOTH clear, in either order.
	for _, order := range []string{"protection-first", "filter-first"} {
		var recycled []*nodeT
		d := NewDomain(func(n *nodeT) { recycled = append(recycled, n) })
		owner := d.NewHandle()
		reader := d.NewHandle()

		var release atomic.Bool
		victim := &nodeT{id: 1}
		d.SetRecycleFilter(func(n *nodeT, _ uint64) bool { return n != victim || release.Load() })
		reader.Protect(0, victim)
		owner.Retire(victim)

		owner.Flush()
		if d.RetiredCount() != 1 {
			t.Fatalf("%s: victim not pending after first flush", order)
		}
		if order == "protection-first" {
			reader.Clear(0)
		} else {
			release.Store(true)
		}
		owner.Flush()
		if d.RetiredCount() != 1 {
			t.Fatalf("%s: victim reclaimed with one guard still up", order)
		}
		if order == "protection-first" {
			release.Store(true)
		} else {
			reader.Clear(0)
		}
		owner.Flush()
		if d.RetiredCount() != 0 || len(recycled) != 1 || recycled[0] != victim {
			t.Fatalf("%s: victim not reclaimed after both guards dropped (pending=%d)",
				order, d.RetiredCount())
		}
	}
}
