package bench

import (
	"strings"
	"testing"
	"time"

	"skipvector/internal/core"
	"skipvector/internal/workload"
)

func TestAdaptersBehaveAsMaps(t *testing.T) {
	maps := map[string]IntMap{
		"SV-HP":   SVHP.New(1 << 12),
		"SV-Leak": SVLeak.New(1 << 12),
		"USL-HP":  USLHP.New(1 << 12),
		"SL-HP":   SLHP.New(1 << 12),
		"FSL":     FSL.New(1 << 12),
	}
	for name, m := range maps {
		t.Run(name, func(t *testing.T) {
			if !m.Insert(5, 50) || m.Insert(5, 51) {
				t.Fatal("Insert semantics wrong")
			}
			if v, ok := m.Lookup(5); !ok || v != 50 {
				t.Fatalf("Lookup = %d,%t", v, ok)
			}
			if !m.Remove(5) || m.Remove(5) {
				t.Fatal("Remove semantics wrong")
			}
			if m.Len() != 0 {
				t.Fatalf("Len = %d", m.Len())
			}
		})
	}
}

func TestSVAdapterRangeUpdate(t *testing.T) {
	m := SVHP.New(1 << 10)
	rm, ok := m.(RangeMap)
	if !ok {
		t.Fatal("skip vector adapter must implement RangeMap")
	}
	for k := int64(0); k < 100; k++ {
		m.Insert(k, 1)
	}
	n := rm.RangeUpdate(10, 19, func(k int64, v uint64) uint64 { return v + 5 })
	if n != 10 {
		t.Fatalf("RangeUpdate visited %d", n)
	}
	if v, _ := m.Lookup(15); v != 6 {
		t.Fatalf("value = %d, want 6", v)
	}
}

func TestPrefillHalfFills(t *testing.T) {
	const keyRange = 1 << 12
	m := SVHP.New(keyRange)
	Prefill(m, keyRange, 7, 4)
	if got := m.Len(); got != keyRange/2 {
		t.Fatalf("prefilled %d, want %d", got, keyRange/2)
	}
}

func TestPrefillDeterministicAcrossThreadCounts(t *testing.T) {
	const keyRange = 1 << 10
	count := func(threads int) int {
		m := SVHP.New(keyRange)
		Prefill(m, keyRange, 7, threads)
		n := 0
		for k := int64(0); k < keyRange; k++ {
			if _, ok := m.Lookup(k); ok {
				n++
			}
		}
		return n
	}
	if a, b := count(1), count(4); a != b {
		t.Fatalf("prefill differs across thread counts: %d vs %d", a, b)
	}
}

func TestRunTrialProducesOps(t *testing.T) {
	res, err := RunTrial(SVHP.New(1<<10), TrialConfig{
		Threads:  2,
		Duration: 30 * time.Millisecond,
		KeyRange: 1 << 10,
		Mix:      workload.MixReadHeavy,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops <= 0 || res.Throughput <= 0 {
		t.Fatalf("empty trial result: %+v", res)
	}
}

func TestRunTrialValidation(t *testing.T) {
	bad := []TrialConfig{
		{Threads: 0, Duration: time.Millisecond, KeyRange: 10, Mix: workload.MixReadHeavy},
		{Threads: 1, Duration: 0, KeyRange: 10, Mix: workload.MixReadHeavy},
		{Threads: 1, Duration: time.Millisecond, KeyRange: 1, Mix: workload.MixReadHeavy},
		{Threads: 1, Duration: time.Millisecond, KeyRange: 10, Mix: workload.Mix{LookupPct: 10}},
		{Threads: 1, Duration: time.Millisecond, KeyRange: 10, Mix: workload.MixRangeHeavy},
	}
	for i, cfg := range bad {
		if _, err := RunTrial(SVHP.New(16), cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestRunAveraged(t *testing.T) {
	tp, err := RunAveraged(FSL, TrialConfig{
		Threads:  1,
		Duration: 20 * time.Millisecond,
		KeyRange: 1 << 8,
		Mix:      workload.MixWriteOnly,
		Seed:     11,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tp <= 0 {
		t.Fatal("zero throughput")
	}
}

func TestMinLayers(t *testing.T) {
	cases := []struct {
		n                 int64
		td, ti, wantAtMin int
	}{
		{1, 32, 32, 1},
		{1 << 10, 32, 32, 2},
		{1 << 20, 32, 32, 3},
		{1 << 20, 1, 2, 2},
	}
	for _, c := range cases {
		got := MinLayers(c.n, c.td, c.ti)
		if got < c.wantAtMin || got > core.MaxLayers {
			t.Errorf("MinLayers(%d,%d,%d) = %d, want >= %d", c.n, c.td, c.ti, got, c.wantAtMin)
		}
	}
	// Monotone: more elements never need fewer layers.
	prev := 0
	for exp := 4; exp <= 30; exp += 2 {
		l := MinLayers(Pow2(exp), 32, 32)
		if l < prev {
			t.Fatalf("MinLayers not monotone at 2^%d", exp)
		}
		prev = l
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "threads", []string{"A", "B"})
	tb.AddRow("1", []float64{1_500_000, 900})
	tb.AddRow("2", []float64{2_500_000, 1800})
	text := tb.Render()
	for _, want := range []string{"demo", "threads", "A", "B", "1.50M", "1.8K"} {
		if !strings.Contains(text, want) {
			t.Fatalf("Render missing %q:\n%s", want, text)
		}
	}
	csv := tb.CSV()
	if !strings.Contains(csv, "threads,A,B") || !strings.Contains(csv, "1,1500000.0,900.0") {
		t.Fatalf("CSV malformed:\n%s", csv)
	}
	if tb.Best(0) != "A" {
		t.Fatalf("Best = %q", tb.Best(0))
	}
	if tb.Col("B") != 1 || tb.Col("missing") != -1 {
		t.Fatal("Col lookup wrong")
	}
}

func TestTableAddRowMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTable("x", "x", []string{"a"}).AddRow("1", []float64{1, 2})
}

func TestVariantNamesUnique(t *testing.T) {
	if err := checkVariantNames(ScalabilityVariants()); err != nil {
		t.Fatal(err)
	}
	dup := []Variant{SVHP, SVHP}
	if err := checkVariantNames(dup); err == nil {
		t.Fatal("duplicate names accepted")
	}
}

// --- quick-scale smoke runs of every figure -------------------------------

func TestFig1Quick(t *testing.T) {
	tb := Fig1(QuickScale())
	if len(tb.XValues) != 3 || len(tb.Columns) != 4 {
		t.Fatalf("Fig1 shape %dx%d", len(tb.XValues), len(tb.Columns))
	}
	for i := range tb.XValues {
		for j, v := range tb.Cells[i] {
			if v <= 0 {
				t.Fatalf("Fig1 cell [%d][%d] = %v", i, j, v)
			}
		}
	}
}

func TestFig4Fig5Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := QuickScale()
	for _, fig := range []func(Scale) ([]*Table, error){Fig4, Fig5} {
		tables, err := fig(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(tables) != len(s.MixedRangeExps) {
			t.Fatalf("got %d tables", len(tables))
		}
		for _, tb := range tables {
			if len(tb.XValues) != len(s.Threads) {
				t.Fatalf("table %q has %d rows", tb.Title, len(tb.XValues))
			}
			for i := range tb.Cells {
				for j, v := range tb.Cells[i] {
					if v <= 0 {
						t.Fatalf("%s cell [%d][%d] = %v", tb.Title, i, j, v)
					}
				}
			}
		}
	}
}

func TestFig6Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := QuickScale()
	tables, err := Fig6(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(s.YCSBThetas) {
		t.Fatalf("got %d tables", len(tables))
	}
	for _, tb := range tables {
		for i := range tb.Cells {
			for _, v := range tb.Cells[i] {
				if v <= 0 {
					t.Fatalf("%s has empty cell", tb.Title)
				}
			}
		}
	}
}

func TestFig7Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := QuickScale()
	ta, err := Fig7a(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(ta.XValues) != 8 {
		t.Fatalf("Fig7a rows = %d", len(ta.XValues))
	}
	tb, err := Fig7b(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.XValues) != 4 {
		t.Fatalf("Fig7b rows = %d", len(tb.XValues))
	}
}

func TestFig8Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := QuickScale()
	tables, err := Fig8(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("got %d tables", len(tables))
	}
	for _, tb := range tables {
		for i := range tb.Cells {
			for _, v := range tb.Cells[i] {
				if v <= 0 {
					t.Fatalf("%s has empty cell", tb.Title)
				}
			}
		}
	}
}

func TestAblationsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := QuickScale()
	hp, err := AblationHazardCost(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(hp.XValues) != len(s.MixedRangeExps) {
		t.Fatalf("hazard ablation rows = %d", len(hp.XValues))
	}
	mt, err := AblationMergeThreshold(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(mt.XValues) != 4 {
		t.Fatalf("merge ablation rows = %d", len(mt.XValues))
	}
}

func TestPow2(t *testing.T) {
	if Pow2(0) != 1 || Pow2(10) != 1024 || Pow2(31) != 1<<31 {
		t.Fatal("Pow2 wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Pow2(63)
}

func TestMemoryFootprint(t *testing.T) {
	tb := MemoryFootprint([]int{12, 14}, 7)
	if len(tb.XValues) != 2 {
		t.Fatalf("rows = %d", len(tb.XValues))
	}
	svCol, fslCol := tb.Col("SV-HP"), tb.Col("FSL")
	for i := range tb.XValues {
		sv, fsl := tb.Cells[i][svCol], tb.Cells[i][fslCol]
		if sv <= 0 || fsl <= 0 {
			t.Fatalf("non-positive footprint row %d: sv=%v fsl=%v", i, sv, fsl)
		}
		// The paper's memory claim: chunking amortizes per-node overhead,
		// so the skip vector should be leaner per element than the
		// link-heavy lock-free skip list.
		if sv >= fsl {
			t.Logf("warning: SV-HP %.1f B/elem not below FSL %.1f B/elem", sv, fsl)
		}
	}
	// Every variant built on core.Map has a walked column, which the heap
	// delta, holding all it counts and more, never falls below; a cell that
	// did would be marked.
	for _, name := range []string{"SV-HP", "SV-Leak", "USL-HP", "USL-Leak", "SL-HP"} {
		heapCol, walkedCol := tb.Col(name), tb.Col(name+" walked")
		if heapCol < 0 || walkedCol < 0 {
			t.Fatalf("%s: columns %d and %d (walked) in %v", name, heapCol, walkedCol, tb.Columns)
		}
		for i, x := range tb.XValues {
			heap, walked := tb.Cells[i][heapCol], tb.Cells[i][walkedCol]
			if walked <= 0 || heap < walked || tb.marked(i, heapCol) {
				t.Errorf("%s at %s: heap delta %.1f B/elem, walked %.1f, marked %t",
					name, x, heap, walked, tb.marked(i, heapCol))
			}
		}
	}
	if tb.Col("FSL walked") >= 0 {
		t.Error("FSL, which is no core.Map, has a walked column")
	}
	// The first structure of a kind measured pays none of the process's
	// one-time allocations: its heap delta stays within 1.25× that of the
	// same structure without hazard pointers, measured after it. (Each map's
	// own telemetry registry, about 24 KB, is a fixed cost every variant
	// pays alike; at 2^12 it is as much per element as the walked bytes.)
	for _, kind := range []string{"SV", "USL"} {
		if hp, leak := tb.Cells[0][tb.Col(kind+"-HP")], tb.Cells[0][tb.Col(kind+"-Leak")]; hp > 1.25*leak {
			t.Errorf("first row: %s-HP heap delta %.1f B/elem, over 1.25× %s-Leak's %.1f", kind, hp, kind, leak)
		}
	}
	if strings.Contains(tb.Render(), "*") {
		t.Errorf("unmarked table renders a mark:\n%s", tb.Render())
	}
	tb.Mark(0, tb.Col("SV-HP"))
	if out := tb.Render(); !strings.Contains(out, "*") || !strings.Contains(out, tb.Note) {
		t.Errorf("marked cell not shown:\n%s", out)
	}
}

func TestMemoryChurnGarbageBounded(t *testing.T) {
	retired, hpMB, leakMB := MemoryChurnGarbage(1<<12, 60_000, 7)
	// The HP variant's outstanding garbage is bounded by handles×threshold;
	// a single-goroutine churn keeps it tiny.
	if retired > 1024 {
		t.Fatalf("retired nodes %d not bounded", retired)
	}
	t.Logf("hp heap %.2f MB, leak heap %.2f MB, retired %d", hpMB, leakMB, retired)
}

// TestDifferentialVariants replays identical random op sequences against
// every variant and a model map; all implementations must agree on every
// result (sequentially).
func TestDifferentialVariants(t *testing.T) {
	variants := ScalabilityVariants()
	maps := make([]IntMap, len(variants))
	for i, v := range variants {
		maps[i] = v.New(1 << 12)
	}
	model := map[int64]uint64{}
	rng := workload.NewRNG(77)
	for i := 0; i < 6000; i++ {
		k := rng.Intn(512)
		switch rng.Intn(3) {
		case 0:
			_, inModel := model[k]
			for j, m := range maps {
				if got := m.Insert(k, uint64(k)); got == inModel {
					t.Fatalf("op %d: %s Insert(%d) = %t", i, variants[j].Name, k, got)
				}
			}
			if !inModel {
				model[k] = uint64(k)
			}
		case 1:
			_, inModel := model[k]
			for j, m := range maps {
				if got := m.Remove(k); got != inModel {
					t.Fatalf("op %d: %s Remove(%d) = %t", i, variants[j].Name, k, got)
				}
			}
			delete(model, k)
		default:
			mv, inModel := model[k]
			for j, m := range maps {
				v, got := m.Lookup(k)
				if got != inModel || (got && v != mv) {
					t.Fatalf("op %d: %s Lookup(%d) mismatch", i, variants[j].Name, k)
				}
			}
		}
	}
	for j, m := range maps {
		if m.Len() != len(model) {
			t.Fatalf("%s Len = %d, model %d", variants[j].Name, m.Len(), len(model))
		}
	}
}
