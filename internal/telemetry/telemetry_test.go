package telemetry

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// withEnabled runs f with recording on, restoring the prior state after.
func withEnabled(t *testing.T, f func()) {
	t.Helper()
	prev := Enabled()
	SetEnabled(true)
	defer SetEnabled(prev)
	f()
}

func TestCounterGated(t *testing.T) {
	var c Counter
	SetEnabled(false)
	c.Inc(0)
	c.Add(3, 10)
	if got := c.Load(); got != 0 {
		t.Fatalf("disabled counter recorded: %d", got)
	}
	withEnabled(t, func() {
		c.Inc(0)
		c.Add(7, 41)
	})
	if got := c.Load(); got != 42 {
		t.Fatalf("Load = %d, want 42", got)
	}
}

func TestCounterStripesSum(t *testing.T) {
	withEnabled(t, func() {
		var c Counter
		var wg sync.WaitGroup
		const workers, per = 8, 1000
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					c.Inc(w)
				}
			}(w)
		}
		wg.Wait()
		if got := c.Load(); got != workers*per {
			t.Fatalf("Load = %d, want %d", got, workers*per)
		}
	})
}

func TestMax(t *testing.T) {
	var m Max
	SetEnabled(false)
	m.Observe(5)
	if m.Load() != 0 {
		t.Fatalf("disabled max recorded: %d", m.Load())
	}
	withEnabled(t, func() {
		m.Observe(7)
		m.Observe(3) // must not lower the mark
	})
	if m.Load() != 7 {
		t.Fatalf("max = %d, want 7", m.Load())
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-3, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{65535, 16}, {65536, 17}, {1 << 40, NumBuckets - 1},
	}
	for _, c := range cases {
		if got := BucketOf(c.v); got != c.want {
			t.Errorf("BucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestUpperBoundMatchesBuckets(t *testing.T) {
	// Every bucket's inclusive upper bound must itself land in that bucket,
	// and the next value must land in the next bucket.
	for i := 0; i < NumBuckets-1; i++ {
		ub := UpperBound(i)
		if got := BucketOf(ub); got != i {
			t.Errorf("BucketOf(UpperBound(%d)=%d) = %d", i, ub, got)
		}
		if got := BucketOf(ub + 1); got != i+1 {
			t.Errorf("BucketOf(UpperBound(%d)+1) = %d, want %d", i, got, i+1)
		}
	}
	if UpperBound(NumBuckets-1) != -1 {
		t.Errorf("last bucket upper bound = %d, want -1 (+Inf)", UpperBound(NumBuckets-1))
	}
}

func TestHistogramSnapshot(t *testing.T) {
	withEnabled(t, func() {
		var h Histogram
		vals := []int64{0, 1, 1, 3, 100, 65536}
		for i, v := range vals {
			h.Observe(i, v)
		}
		s := h.Snapshot()
		if s.Count != int64(len(vals)) {
			t.Fatalf("Count = %d, want %d", s.Count, len(vals))
		}
		var wantSum int64
		for _, v := range vals {
			wantSum += v
		}
		if s.Sum != wantSum {
			t.Fatalf("Sum = %d, want %d", s.Sum, wantSum)
		}
		if s.Buckets[0] != 1 || s.Buckets[1] != 2 || s.Buckets[2] != 1 {
			t.Fatalf("low buckets = %v", s.Buckets[:3])
		}
		if got := s.Mean(); got != float64(wantSum)/float64(len(vals)) {
			t.Fatalf("Mean = %v", got)
		}
	})
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup", "first")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("dup", "second")
}

func TestPrometheusExposition(t *testing.T) {
	withEnabled(t, func() {
		r := NewRegistry()
		c := r.Counter("sv_ops_total", "total ops")
		r.GaugeFunc("sv_live", "live nodes", func() float64 { return 4 })
		h := r.Histogram("sv_depth", "descent depth")
		r.CounterFunc("sv_fn_total", "func-backed", func() int64 { return 9 })
		r.GaugeFunc("sv_occ_mean", "mean occupancy", func() float64 { return 1.5 })
		c.Add(0, 3)
		h.Observe(0, 2)
		h.Observe(0, 5)

		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		out := b.String()
		for _, want := range []string{
			"# TYPE sv_ops_total counter",
			"sv_ops_total 3",
			"# TYPE sv_live gauge",
			"sv_live 4",
			"# TYPE sv_depth histogram",
			`sv_depth_bucket{le="0"} 0`,
			`sv_depth_bucket{le="3"} 1`,
			`sv_depth_bucket{le="7"} 2`,
			`sv_depth_bucket{le="+Inf"} 2`,
			"sv_depth_sum 7",
			"sv_depth_count 2",
			"sv_fn_total 9",
			"sv_occ_mean 1.5",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("exposition missing %q:\n%s", want, out)
			}
		}
		// Cumulative bucket counts must be non-decreasing.
		last := int64(-1)
		for _, line := range strings.Split(out, "\n") {
			if !strings.HasPrefix(line, "sv_depth_bucket") {
				continue
			}
			v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			if v < last {
				t.Fatalf("bucket counts not cumulative: %q after %d", line, last)
			}
			last = v
		}
	})
}

func TestJSONSnapshotIsValid(t *testing.T) {
	withEnabled(t, func() {
		r := NewRegistry()
		c := r.Counter("ops", "ops")
		h := r.Histogram("hist", "hist")
		c.Inc(0)
		h.Observe(0, 8)

		var doc map[string]any
		if err := json.Unmarshal([]byte(r.String()), &doc); err != nil {
			t.Fatalf("String() is not valid JSON: %v\n%s", err, r.String())
		}
		if doc["ops"] != float64(1) {
			t.Fatalf("ops = %v", doc["ops"])
		}
		hv, ok := doc["hist"].(map[string]any)
		if !ok || hv["count"] != float64(1) || hv["sum"] != float64(8) {
			t.Fatalf("hist = %v", doc["hist"])
		}
	})
}

func TestViewCombinesRegistries(t *testing.T) {
	withEnabled(t, func() {
		a, b := NewRegistry(), NewRegistry()
		a.Counter("from_a", "a").Inc(0)
		b.Counter("from_b", "b").Inc(0)
		v := NewView(a, b)
		var sb strings.Builder
		if err := v.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		out := sb.String()
		if !strings.Contains(out, "from_a 1") || !strings.Contains(out, "from_b 1") {
			t.Fatalf("view missing registries:\n%s", out)
		}
		names := v.Names()
		if len(names) != 2 || names[0] != "from_a" || names[1] != "from_b" {
			t.Fatalf("Names = %v", names)
		}
	})
}

func TestConcurrentObserveAndSnapshot(t *testing.T) {
	// Race-detector exercise: snapshots while writers run must be clean.
	withEnabled(t, func() {
		var h Histogram
		var c Counter
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					h.Observe(w, int64(i%100))
					c.Inc(w)
				}
			}(w)
		}
		for i := 0; i < 100; i++ {
			s := h.Snapshot()
			if s.Count < 0 || s.Sum < 0 {
				t.Errorf("negative snapshot: %+v", s)
			}
			_ = c.Load()
		}
		close(stop)
		wg.Wait()
		s := h.Snapshot()
		if s.Count != c.Load() {
			t.Fatalf("quiescent Count %d != counter %d", s.Count, c.Load())
		}
	})
}

func TestLabeledRegistrySeries(t *testing.T) {
	withEnabled(t, func() {
		r := NewLabeledRegistry("shard", "3")
		r.Counter("sv_ops_total", "total ops").Add(0, 7)
		h := r.Histogram("sv_depth", "descent depth")
		h.Observe(0, 2)

		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		out := b.String()
		for _, want := range []string{
			"# TYPE sv_ops_total counter",
			`sv_ops_total{shard="3"} 7`,
			`sv_depth_bucket{shard="3",le="3"} 1`,
			`sv_depth_sum{shard="3"} 2`,
			`sv_depth_count{shard="3"} 1`,
		} {
			if !strings.Contains(out, want) {
				t.Errorf("labeled exposition missing %q:\n%s", want, out)
			}
		}
		var doc map[string]any
		if err := json.Unmarshal([]byte(r.String()), &doc); err != nil {
			t.Fatalf("String() is not valid JSON: %v\n%s", err, r.String())
		}
		if doc[`sv_ops_total{shard="3"}`] != float64(7) {
			t.Fatalf("labeled JSON key missing: %v", doc)
		}
	})
}

// TestLabeledViewDoesNotCollide is the sharded roll-up contract: a view over
// N same-shaped registries with distinct shard labels exposes N distinct
// series per family, one HELP/TYPE header per family, and N distinct names.
func TestLabeledViewDoesNotCollide(t *testing.T) {
	withEnabled(t, func() {
		const n = 4
		regs := make([]*Registry, n)
		for i := range regs {
			regs[i] = NewLabeledRegistry("shard", strconv.Itoa(i))
			regs[i].Counter("sv_restarts_total", "restarts").Add(0, int64(i))
		}
		v := NewView(regs...)
		var sb strings.Builder
		if err := v.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		out := sb.String()
		if got := strings.Count(out, "# TYPE sv_restarts_total counter"); got != 1 {
			t.Fatalf("want one TYPE header per family, got %d:\n%s", got, out)
		}
		for i := 0; i < n; i++ {
			want := fmt.Sprintf("sv_restarts_total{shard=%q} %d", strconv.Itoa(i), i)
			if !strings.Contains(out, want) {
				t.Fatalf("view missing series %q:\n%s", want, out)
			}
		}
		names := v.Names()
		seen := map[string]bool{}
		for _, nm := range names {
			if seen[nm] {
				t.Fatalf("colliding series name %q in %v", nm, names)
			}
			seen[nm] = true
		}
		if len(names) != n {
			t.Fatalf("want %d distinct series, got %v", n, names)
		}
	})
}
