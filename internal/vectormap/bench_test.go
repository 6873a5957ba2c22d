package vectormap

import (
	"fmt"
	"math/rand"
	"testing"
)

// These microbenchmarks quantify the per-chunk cost model behind Figure 7b:
// sorted chunks buy O(log T) lookups at O(T) mutation cost; unsorted chunks
// pay O(T) scans but O(1) writes.

func benchChunk(target int, sorted bool) *Chunk[int64] {
	var c Chunk[int64]
	c.Init(target, sorted)
	x := int64(1)
	for i := 0; i < target; i++ {
		c.Insert(int64(i*2), &x)
	}
	return &c
}

func BenchmarkChunkGet(b *testing.B) {
	for _, sorted := range []bool{true, false} {
		for _, target := range []int{8, 32, 128} {
			c := benchChunk(target, sorted)
			b.Run(fmt.Sprintf("sorted=%t/T=%d", sorted, target), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					c.Get(int64((i % target) * 2))
				}
			})
		}
	}
}

func BenchmarkChunkFindLE(b *testing.B) {
	for _, sorted := range []bool{true, false} {
		for _, target := range []int{8, 32, 128} {
			c := benchChunk(target, sorted)
			b.Run(fmt.Sprintf("sorted=%t/T=%d", sorted, target), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					c.FindLE(int64(i % (target * 2)))
				}
			})
		}
	}
}

func BenchmarkChunkInsertRemove(b *testing.B) {
	for _, sorted := range []bool{true, false} {
		for _, target := range []int{8, 32, 128} {
			b.Run(fmt.Sprintf("sorted=%t/T=%d", sorted, target), func(b *testing.B) {
				c := benchChunk(target, sorted)
				x := int64(1)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k := int64((i%target)*2 + 1) // odd keys: always absent
					c.Insert(k, &x)
					c.Remove(k)
				}
			})
		}
	}
}

// BenchmarkChunkIndexOf pits the branchless lower-bound core against the
// reference binary search (the test-only oracle) on sorted chunks of 8–512
// keys with uniformly random (maximally branch-hostile) lookup targets.
// EXPERIMENTS.md cites the ratio of the two columns.
func BenchmarkChunkIndexOf(b *testing.B) {
	for _, size := range []int{8, 32, 64, 128, 512} {
		c := benchChunk(size, true)
		// Pre-generate probe keys: half present (even), half absent (odd),
		// in random order, so the probe sequence defeats the predictor the
		// same way uniform workload keys do.
		rng := rand.New(rand.NewSource(42))
		probes := make([]int64, 4096)
		for i := range probes {
			probes[i] = int64(rng.Intn(size * 2))
		}
		b.Run(fmt.Sprintf("impl=branchless/T=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.Get(probes[i&4095])
			}
		})
		b.Run(fmt.Sprintf("impl=ref/T=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.getRef(probes[i&4095])
			}
		})
	}
}

func BenchmarkChunkSplitAbsorb(b *testing.B) {
	for _, sorted := range []bool{true, false} {
		b.Run(fmt.Sprintf("sorted=%t", sorted), func(b *testing.B) {
			c := benchChunk(32, sorted)
			var d Chunk[int64]
			d.Init(32, sorted)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.SplitUpperHalfTo(&d)
				c.AbsorbFrom(&d)
			}
		})
	}
}
