package main

import "testing"

func ramp(n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = int64(i + 1)
	}
	return s
}

func TestPercentileNearestRank(t *testing.T) {
	s := ramp(1000)
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.50, 500}, {0.99, 990}, {0.999, 999}} {
		if got, _ := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..1000, %v) = %d, want %d", c.q, got, c.want)
		}
	}
}

// A percentile is a number only with at least minBeyond samples beyond it.
func TestPercentileNeedsSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n         int
		q         float64
		supported bool
	}{
		{1000, 0.99, true},   // 10 beyond
		{999, 0.99, false},   // 9 beyond
		{1000, 0.999, false}, // 1 beyond
		{10000, 0.999, true}, // 10 beyond
		{21, 0.50, true},     // 10 beyond
		{20, 0.50, true},     // nearest rank 10, 10 beyond
		{19, 0.50, false},    // 9 beyond
		{0, 0.50, false},
	} {
		if _, ok := percentile(ramp(c.n), c.q); ok != c.supported {
			t.Errorf("percentile(n=%d, q=%v) supported = %v, want %v", c.n, c.q, ok, c.supported)
		}
	}
}

func TestSummarizeMedianAndSpread(t *testing.T) {
	s := summarize([]float64{10, 14, 12, 11, 13})
	if s.Median != 12 || s.Spread != (14.0-10.0)/12 {
		t.Errorf("odd count: median %v spread %v, want 12 and %v", s.Median, s.Spread, 4.0/12)
	}
	if s := summarize([]float64{4, 2, 8, 6}); s.Median != 5 || s.Spread != 6.0/5 {
		t.Errorf("even count: median %v spread %v, want 5 and 1.2", s.Median, s.Spread)
	}
	if s := summarize(nil); s.Median != 0 || s.Spread != 0 {
		t.Errorf("empty: %+v", s)
	}
}
