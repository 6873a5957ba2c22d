package bench

import (
	"fmt"
	"time"

	"skipvector/internal/core"
	"skipvector/internal/dbx"
	"skipvector/internal/seqset"
	"skipvector/internal/workload"
)

// Scale bundles the knobs that trade fidelity for runtime. The paper ran
// 5-second trials, five repetitions, 1-192 threads, and key ranges up to
// 2^31 on a 96-core, 768 GB machine; PaperScale is the same experiment
// shapes scaled to a small machine, and QuickScale is a smoke-test setting
// used by tests and CI.
type Scale struct {
	// Duration of each timed trial.
	Duration time.Duration
	// Reps is the number of runs averaged per cell.
	Reps int
	// Threads is the X axis of the scalability figures.
	Threads []int
	// MixedRangeExps are the key-range exponents for Figures 4/5 (the
	// paper used 20, 24, 28, 31).
	MixedRangeExps []int
	// Fig1RangeExps are the key-range exponents for Figure 1's sweep.
	Fig1RangeExps []int
	// Fig1Ops is the op count per Figure 1 cell (sequential, so counted
	// rather than timed).
	Fig1Ops int
	// SensitivityRangeExp is the key range for Figure 7 (paper: 28).
	SensitivityRangeExp int
	// SensitivityThreads is the thread count for Figure 7 sweeps.
	SensitivityThreads int
	// RangeKeyExp is Figure 8's key range (paper: 20).
	RangeKeyExp int
	// RangeSpanExps are Figure 8's two span exponents (paper: 12 and 17,
	// i.e. 1/256 and 1/8 of the key range).
	RangeSpanExps [2]int
	// YCSB parameters (Figure 6).
	YCSBRows    int64
	YCSBTxns    int
	YCSBThetas  []float64
	YCSBThreads []int
	// YCSBScanPct/YCSBScanLen enable the YCSB-E style scan extension
	// (0 = the paper's Figure 6 point-access workload).
	YCSBScanPct int
	YCSBScanLen int
	// Seed drives all randomness.
	Seed uint64
}

// QuickScale returns a seconds-long smoke configuration.
func QuickScale() Scale {
	return Scale{
		Duration:            25 * time.Millisecond,
		Reps:                1,
		Threads:             []int{1, 2},
		MixedRangeExps:      []int{12, 14},
		Fig1RangeExps:       []int{4, 8, 12},
		Fig1Ops:             20_000,
		SensitivityRangeExp: 14,
		SensitivityThreads:  2,
		RangeKeyExp:         12,
		RangeSpanExps:       [2]int{4, 9},
		YCSBRows:            1 << 14,
		YCSBTxns:            500,
		YCSBThetas:          []float64{0.1, 0.9},
		YCSBThreads:         []int{1, 2},
		Seed:                0xbe9c4,
	}
}

// PaperScale returns the full scaled-down reproduction (minutes of runtime
// on a small machine). Key ranges 2^20/2^24/2^28/2^31 scale to
// 2^16/2^18/2^20/2^23 and 1-192 threads scale to 1-8; crossover shapes, not
// absolute numbers, are the reproduction target (see EXPERIMENTS.md).
func PaperScale() Scale {
	return Scale{
		Duration:            1 * time.Second,
		Reps:                3,
		Threads:             []int{1, 2, 4, 8},
		MixedRangeExps:      []int{16, 18, 20, 23},
		Fig1RangeExps:       []int{4, 6, 8, 10, 12, 14, 16, 18},
		Fig1Ops:             200_000,
		SensitivityRangeExp: 20,
		SensitivityThreads:  4,
		RangeKeyExp:         18,
		RangeSpanExps:       [2]int{10, 15},
		YCSBRows:            1 << 20,
		YCSBTxns:            10_000,
		YCSBThetas:          []float64{0.1, 0.6, 0.9},
		YCSBThreads:         []int{1, 2, 4, 8},
		Seed:                0xbe9c4,
	}
}

// Fig1 reproduces Figure 1: sequential set throughput as a function of key
// range for an 80/10/10 mix, across the four classic set implementations.
func Fig1(s Scale) *Table {
	makers := []func() seqset.Set{
		func() seqset.Set { return seqset.NewUnsortedVec() },
		func() seqset.Set { return seqset.NewSortedVec() },
		func() seqset.Set { return seqset.NewTreeMap() },
		func() seqset.Set { return seqset.NewSkipList() },
	}
	cols := make([]string, len(makers))
	for i, mk := range makers {
		cols[i] = mk().Name()
	}
	t := NewTable("Fig 1: sequential sets, 80/10/10 mix", "key-bits", cols)
	for _, exp := range s.Fig1RangeExps {
		keyRange := Pow2(exp)
		row := make([]float64, len(makers))
		for i, mk := range makers {
			row[i] = runSequentialSet(mk(), keyRange, s.Fig1Ops, s.Seed)
		}
		t.AddRow(fmt.Sprintf("2^%d", exp), row)
	}
	return t
}

// runSequentialSet measures single-threaded ops/s for one Figure 1 cell.
func runSequentialSet(set seqset.Set, keyRange int64, ops int, seed uint64) float64 {
	pf := workload.NewPrefiller(keyRange, seed)
	pf.Keys(0, pf.Count(), func(k int64) { set.Insert(k) })
	rng := workload.NewRNG(seed ^ 0xf19)
	start := time.Now()
	for i := 0; i < ops; i++ {
		k := rng.Intn(keyRange)
		switch workload.MixReadHeavy.Next(rng) {
		case workload.OpLookup:
			set.Contains(k)
		case workload.OpInsert:
			set.Insert(k)
		default:
			set.Remove(k)
		}
	}
	return float64(ops) / time.Since(start).Seconds()
}

// scalabilityFigure produces one Figure 4/5-style table: throughput vs
// thread count for each variant at one key range.
func scalabilityFigure(title string, s Scale, keyRange int64, mix workload.Mix) (*Table, error) {
	variants := ScalabilityVariants()
	if err := checkVariantNames(variants); err != nil {
		return nil, err
	}
	cols := make([]string, len(variants))
	for i, v := range variants {
		cols[i] = v.Name
	}
	t := NewTable(title, "threads", cols)
	for _, threads := range s.Threads {
		row := make([]float64, len(variants))
		for i, v := range variants {
			tp, err := RunAveraged(v, TrialConfig{
				Threads:  threads,
				Duration: s.Duration,
				KeyRange: keyRange,
				Mix:      mix,
				Seed:     s.Seed,
			}, s.Reps)
			if err != nil {
				return nil, err
			}
			row[i] = tp
		}
		t.AddRow(fmt.Sprintf("%d", threads), row)
	}
	return t, nil
}

// Fig4 reproduces Figure 4 (80/10/10 mix): one table per key range.
func Fig4(s Scale) ([]*Table, error) {
	var out []*Table
	for _, exp := range s.MixedRangeExps {
		t, err := scalabilityFigure(
			fmt.Sprintf("Fig 4: 80/10/10 throughput, key range 2^%d", exp),
			s, Pow2(exp), workload.MixReadHeavy)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// Fig5 reproduces Figure 5 (0/50/50 mix): one table per key range.
func Fig5(s Scale) ([]*Table, error) {
	var out []*Table
	for _, exp := range s.MixedRangeExps {
		t, err := scalabilityFigure(
			fmt.Sprintf("Fig 5: 0/50/50 throughput, key range 2^%d", exp),
			s, Pow2(exp), workload.MixWriteOnly)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// Fig6 reproduces Figure 6: YCSB transaction throughput on the mini-DBx1000
// with SV-HP, USL-HP and SL-HP indexes, one table per Zipfian theta.
func Fig6(s Scale) ([]*Table, error) {
	indexes := []struct {
		name string
		mk   func(int64) dbx.Index
	}{
		{"SV-HP", dbx.NewSkipVectorIndex},
		{"USL-HP", dbx.NewUnrolledIndex},
		{"SL-HP", dbx.NewSkipListIndex},
	}
	cols := make([]string, len(indexes))
	for i, ix := range indexes {
		cols[i] = ix.name
	}
	var out []*Table
	for _, theta := range s.YCSBThetas {
		t := NewTable(fmt.Sprintf("Fig 6: YCSB throughput, theta=%.1f", theta), "threads", cols)
		// Load one table per index once per theta; runs reuse it (reads
		// and updates do not change the key set).
		tables := make([]*dbx.Table, len(indexes))
		base := dbx.YCSBConfig{
			Rows:           s.YCSBRows,
			TxnsPerThread:  s.YCSBTxns,
			AccessesPerTxn: 16,
			ReadPct:        90 - s.YCSBScanPct,
			ScanPct:        s.YCSBScanPct,
			ScanLen:        s.YCSBScanLen,
			Theta:          theta,
			Threads:        1,
			Seed:           s.Seed,
		}
		for i, ix := range indexes {
			tab, err := dbx.LoadTable(base, ix.mk(s.YCSBRows))
			if err != nil {
				return nil, err
			}
			tables[i] = tab
		}
		for _, threads := range s.YCSBThreads {
			row := make([]float64, len(indexes))
			for i := range indexes {
				cfg := base
				cfg.Threads = threads
				res, err := dbx.RunYCSB(tables[i], cfg)
				if err != nil {
					return nil, err
				}
				row[i] = res.Throughput
			}
			t.AddRow(fmt.Sprintf("%d", threads), row)
		}
		out = append(out, t)
	}
	return out, nil
}

// Fig7a reproduces Figure 7a: sensitivity to TargetIndexVectorSize on an
// 80/10/10 mix, adjusting the layer count to the minimum each size needs.
func Fig7a(s Scale) (*Table, error) {
	sizes := []int{2, 4, 8, 16, 32, 64, 128, 256}
	t := NewTable(
		fmt.Sprintf("Fig 7a: targetIndexVectorSize sensitivity, 80/10/10, 2^%d keys", s.SensitivityRangeExp),
		"T_I", []string{"SV-HP"})
	keyRange := Pow2(s.SensitivityRangeExp)
	for _, ti := range sizes {
		v := TunedSV(fmt.Sprintf("SV-HP-Ti%d", ti), 32, ti, true, false)
		tp, err := RunAveraged(v, TrialConfig{
			Threads:  s.SensitivityThreads,
			Duration: s.Duration,
			KeyRange: keyRange,
			Mix:      workload.MixReadHeavy,
			Seed:     s.Seed,
		}, s.Reps)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", ti), []float64{tp})
	}
	return t, nil
}

// Fig7b reproduces Figure 7b: the four sorted/unsorted chunk combinations.
func Fig7b(s Scale) (*Table, error) {
	combos := []struct {
		name                    string
		sortedIndex, sortedData bool
	}{
		{"idx-sorted/data-unsorted", true, false}, // the paper's best
		{"idx-sorted/data-sorted", true, true},
		{"idx-unsorted/data-unsorted", false, false},
		{"idx-unsorted/data-sorted", false, true},
	}
	t := NewTable(
		fmt.Sprintf("Fig 7b: sorted vs unsorted chunks, 80/10/10, 2^%d keys", s.SensitivityRangeExp),
		"combo", []string{"SV-HP"})
	keyRange := Pow2(s.SensitivityRangeExp)
	for _, c := range combos {
		v := TunedSV(c.name, 32, 32, c.sortedIndex, c.sortedData)
		tp, err := RunAveraged(v, TrialConfig{
			Threads:  s.SensitivityThreads,
			Duration: s.Duration,
			KeyRange: keyRange,
			Mix:      workload.MixReadHeavy,
			Seed:     s.Seed,
		}, s.Reps)
		if err != nil {
			return nil, err
		}
		t.AddRow(c.name, []float64{tp})
	}
	return t, nil
}

// Fig8 reproduces Figure 8: all-range-operation throughput, skip vector vs
// un-chunked skip list, for a small and a large range span.
func Fig8(s Scale) ([]*Table, error) {
	variants := []Variant{
		TunedSV("SV", 32, 32, true, false),
		TunedSV("SL", 1, 1, true, true),
	}
	cols := []string{"SV", "SL"}
	keyRange := Pow2(s.RangeKeyExp)
	var out []*Table
	for _, spanExp := range s.RangeSpanExps {
		span := Pow2(spanExp)
		t := NewTable(
			fmt.Sprintf("Fig 8: mutating range ops, 2^%d keys, span 2^%d", s.RangeKeyExp, spanExp),
			"threads", cols)
		for _, threads := range s.Threads {
			row := make([]float64, len(variants))
			for i, v := range variants {
				tp, err := RunAveraged(v, TrialConfig{
					Threads:   threads,
					Duration:  s.Duration,
					KeyRange:  keyRange,
					Mix:       workload.MixRangeHeavy,
					RangeSpan: span,
					Seed:      s.Seed,
				}, s.Reps)
				if err != nil {
					return nil, err
				}
				row[i] = tp
			}
			t.AddRow(fmt.Sprintf("%d", threads), row)
		}
		out = append(out, t)
	}
	return out, nil
}

// AblationHazardCost quantifies the Section V-A finding that hazard-pointer
// overhead shrinks as the key range grows: SV-HP vs SV-Leak with the
// overhead percentage as a third column.
func AblationHazardCost(s Scale) (*Table, error) {
	t := NewTable("Ablation: hazard-pointer cost vs key range (80/10/10)",
		"key-bits", []string{"SV-HP", "SV-Leak", "overhead%"})
	for _, exp := range s.MixedRangeExps {
		keyRange := Pow2(exp)
		threads := s.Threads[len(s.Threads)-1]
		hp, err := RunAveraged(SVHP, TrialConfig{
			Threads: threads, Duration: s.Duration, KeyRange: keyRange,
			Mix: workload.MixReadHeavy, Seed: s.Seed,
		}, s.Reps)
		if err != nil {
			return nil, err
		}
		leak, err := RunAveraged(SVLeak, TrialConfig{
			Threads: threads, Duration: s.Duration, KeyRange: keyRange,
			Mix: workload.MixReadHeavy, Seed: s.Seed,
		}, s.Reps)
		if err != nil {
			return nil, err
		}
		overhead := 0.0
		if leak > 0 {
			overhead = (leak - hp) / leak * 100
		}
		t.AddRow(fmt.Sprintf("2^%d", exp), []float64{hp, leak, overhead})
	}
	return t, nil
}

// AblationMergeThreshold sweeps the merge factor under the write-only mix,
// the workload where orphan merging matters most (Section V-B discussion).
func AblationMergeThreshold(s Scale) (*Table, error) {
	factors := []float64{1.0, 1.33, 1.67, 2.0}
	t := NewTable(
		fmt.Sprintf("Ablation: mergeThreshold factor, 0/50/50, 2^%d keys", s.SensitivityRangeExp),
		"factor", []string{"SV-HP"})
	keyRange := Pow2(s.SensitivityRangeExp)
	for _, f := range factors {
		f := f
		v := Variant{Name: fmt.Sprintf("SV-HP-m%.2f", f), New: func(r int64) IntMap {
			cfg := svConfig(r, 32, 32, core.ReclaimHazard)
			cfg.MergeFactor = f
			return NewSkipVector(cfg)
		}}
		tp, err := RunAveraged(v, TrialConfig{
			Threads:  s.SensitivityThreads,
			Duration: s.Duration,
			KeyRange: keyRange,
			Mix:      workload.MixWriteOnly,
			Seed:     s.Seed,
		}, s.Reps)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.2f", f), []float64{tp})
	}
	return t, nil
}
