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

// BenchmarkChunkKeyWidth sets 1-byte key cells against 2-byte ones on the
// same reads: n keys 2 apart (one 2^8 window) or 2^9 apart (one 2^16
// window), at T = 32 holding 32 keys and at T = 128 holding 60, reserved up
// front, since a block of 1-byte cells holds at most 64. Get and FindLE
// probe every key and every gap in turn; Bounds reads the whole chunk.
func BenchmarkChunkKeyWidth(b *testing.B) {
	for _, g := range spacings[:2] {
		for _, target := range []int{32, 128} {
			n := min(target, 60)
			for _, sorted := range []bool{false, true} {
				var c Cells
				c.InitWords(target, sorted)
				c.ReserveKeys(n, g.key(0), g.key(n-1))
				for i := range n {
					c.Insert(g.key(i), Cell{})
				}
				if c.KeyBytes() != int(g.w.bytes()) {
					b.Fatalf("%d keys %d apart take %d-byte cells", n, 2*g.unit, c.KeyBytes())
				}
				name := fmt.Sprintf("w=%d/T=%d/sorted=%t", g.w.bytes(), target, sorted)
				b.Run("Get/"+name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						c.Get(g.key(i % n))
					}
				})
				b.Run("FindLE/"+name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						c.FindLE(g.key(i%n) + g.unit)
					}
				})
				if !sorted {
					b.Run("Bounds/"+name, func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							c.Bounds()
						}
					})
				}
			}
		}
	}
}
