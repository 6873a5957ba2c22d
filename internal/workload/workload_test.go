package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collided %d/100 times", same)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	root := NewRNG(7)
	s1, s2 := root.Split(), root.Split()
	if s1.Uint64() == s2.Uint64() {
		t.Fatal("split streams start identically")
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(1)
	for _, n := range []int64{1, 2, 7, 1000, 1 << 40} {
		for i := 0; i < 200; i++ {
			if v := r.Intn(n); v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d", n, v)
			}
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 1000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v", f)
		}
	}
}

func TestPermuteIsBijection(t *testing.T) {
	for _, n := range []int64{1, 2, 7, 100, 1000, 4097} {
		p := NewPermute(n, 99)
		seen := make(map[int64]bool, n)
		for i := int64(0); i < n; i++ {
			v := p.Apply(i)
			if v < 0 || v >= n {
				t.Fatalf("n=%d: Apply(%d) = %d out of range", n, i, v)
			}
			if seen[v] {
				t.Fatalf("n=%d: duplicate image %d", n, v)
			}
			seen[v] = true
		}
	}
}

func TestPermuteIsBijectionQuick(t *testing.T) {
	f := func(rawN uint16, seed uint64) bool {
		n := int64(rawN%2000) + 1
		p := NewPermute(n, seed)
		seen := make(map[int64]bool, n)
		for i := int64(0); i < n; i++ {
			v := p.Apply(i)
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfBoundsAndSkew(t *testing.T) {
	const n = 1000
	for _, theta := range []float64{0.1, 0.6, 0.9} {
		z := NewZipf(NewRNG(3), n, theta)
		counts := make([]int, n)
		const draws = 200000
		for i := 0; i < draws; i++ {
			r := z.Next()
			if r < 0 || r >= n {
				t.Fatalf("theta=%v: rank %d out of range", theta, r)
			}
			counts[r]++
		}
		// Rank 0 must be the most frequent, and more frequent for larger theta.
		top, rest := counts[0], 0
		for _, c := range counts[1:] {
			rest += c
			if c > top {
				t.Fatalf("theta=%v: rank 0 not hottest", theta)
			}
		}
		// The head probability should grow with skew: ~1/zeta(n) for rank 0.
		wantHead := 1.0 / zeta(n, theta)
		gotHead := float64(top) / draws
		if math.Abs(gotHead-wantHead) > wantHead*0.25+0.002 {
			t.Fatalf("theta=%v: head freq %.4f, want ≈%.4f", theta, gotHead, wantHead)
		}
	}
}

func TestZipfThetaZeroUniform(t *testing.T) {
	z := NewZipf(NewRNG(8), 100, 0)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[z.Next()]++
	}
	for r, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("theta=0 rank %d count %d deviates from uniform", r, c)
		}
	}
}

func TestZipfWithRNGSharesConstants(t *testing.T) {
	z := NewZipf(NewRNG(1), 5000, 0.6)
	z2 := z.WithRNG(NewRNG(2))
	if z2.zetan != z.zetan || z2.alpha != z.alpha {
		t.Fatal("WithRNG did not reuse constants")
	}
	if z2.rng == z.rng {
		t.Fatal("WithRNG shares the RNG")
	}
}

func TestMixDistribution(t *testing.T) {
	mixes := []Mix{MixReadHeavy, MixWriteOnly, {LookupPct: 25, InsertPct: 25, RemovePct: 25, RangePct: 25}}
	for _, m := range mixes {
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
		r := NewRNG(6)
		counts := map[Op]int{}
		const draws = 100000
		for i := 0; i < draws; i++ {
			counts[m.Next(r)]++
		}
		check := func(op Op, pct int) {
			got := float64(counts[op]) / draws * 100
			if math.Abs(got-float64(pct)) > 1.5 {
				t.Fatalf("mix %v: %v = %.1f%%, want %d%%", m, op, got, pct)
			}
		}
		check(OpLookup, m.LookupPct)
		check(OpInsert, m.InsertPct)
		check(OpRemove, m.RemovePct)
		check(OpRange, m.RangePct)
	}
}

func TestMixValidateRejectsBad(t *testing.T) {
	bad := []Mix{
		{LookupPct: 50},
		{LookupPct: 120, InsertPct: -20},
		{},
	}
	for _, m := range bad {
		if m.Validate() == nil {
			t.Fatalf("mix %+v accepted", m)
		}
	}
}

func TestMixString(t *testing.T) {
	if MixReadHeavy.String() != "80/10/10" {
		t.Fatalf("String = %q", MixReadHeavy.String())
	}
	if MixWriteOnly.String() != "0/50/50" {
		t.Fatalf("String = %q", MixWriteOnly.String())
	}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{
		OpLookup: "lookup", OpInsert: "insert", OpRemove: "remove", OpRange: "range",
	} {
		if op.String() != want {
			t.Fatalf("Op(%d).String() = %q", op, op.String())
		}
	}
}

func TestUniformKeyGen(t *testing.T) {
	u := NewUniform(NewRNG(4), 256)
	if u.Range() != 256 {
		t.Fatal("Range wrong")
	}
	seen := map[int64]bool{}
	for i := 0; i < 20000; i++ {
		k := u.Next()
		if k < 0 || k >= 256 {
			t.Fatalf("key %d out of range", k)
		}
		seen[k] = true
	}
	if len(seen) < 250 {
		t.Fatalf("uniform generator covered only %d/256 keys", len(seen))
	}
}

func TestZipfKeysScrambled(t *testing.T) {
	g := NewZipfKeys(NewRNG(1), 1024, 0.9, 77)
	counts := map[int64]int{}
	for i := 0; i < 50000; i++ {
		k := g.Next()
		if k < 0 || k >= 1024 {
			t.Fatalf("key %d out of range", k)
		}
		counts[k]++
	}
	// The two hottest keys should not be adjacent (scrambling).
	var hot1, hot2 int64 = -1, -1
	for k, c := range counts {
		if hot1 < 0 || c > counts[hot1] {
			hot1, hot2 = k, hot1
		} else if hot2 < 0 || c > counts[hot2] {
			hot2 = k
		}
	}
	if hot2 >= 0 && (hot1-hot2 == 1 || hot2-hot1 == 1) {
		t.Logf("warning: two hottest keys adjacent (%d,%d) — permutation may be weak", hot1, hot2)
	}
	g2 := g.WithRNG(NewRNG(9))
	if g2.Range() != 1024 {
		t.Fatal("WithRNG lost range")
	}
}

func TestPrefillerHalfDistinct(t *testing.T) {
	const n = 1 << 12
	p := NewPrefiller(n, 31)
	if p.Count() != n/2 {
		t.Fatalf("Count = %d", p.Count())
	}
	seen := map[int64]bool{}
	p.Keys(0, p.Count(), func(k int64) {
		if k < 0 || k >= n {
			t.Fatalf("key %d out of range", k)
		}
		if seen[k] {
			t.Fatalf("duplicate prefill key %d", k)
		}
		seen[k] = true
	})
	if len(seen) != n/2 {
		t.Fatalf("prefilled %d keys, want %d", len(seen), n/2)
	}
}

func TestPrefillerSharding(t *testing.T) {
	const n = 1 << 10
	p := NewPrefiller(n, 5)
	whole := map[int64]bool{}
	p.Keys(0, p.Count(), func(k int64) { whole[k] = true })
	sharded := map[int64]bool{}
	mid := p.Count() / 2
	p.Keys(0, mid, func(k int64) { sharded[k] = true })
	p.Keys(mid, p.Count(), func(k int64) { sharded[k] = true })
	if len(sharded) != len(whole) {
		t.Fatalf("sharded prefill produced %d keys, want %d", len(sharded), len(whole))
	}
	for k := range whole {
		if !sharded[k] {
			t.Fatalf("sharded prefill missing key %d", k)
		}
	}
}
