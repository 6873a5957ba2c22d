package vectormap

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"skipvector/internal/seqlock"
)

// blockCap is the capacity of c's current block.
func blockCap(c *Chunk[int64]) int { return c.blk.Load().cap() }

// blockWidth is the key-cell width of c's current block.
func blockWidth(c *Chunk[int64]) width { return c.blk.Load().width() }

// filled returns a chunk of the given target size holding the keys 0, 2, …,
// 2(n-1), inserted one at a time so its block is whatever the policy makes.
func filled(target, n int, sorted bool) *Chunk[int64] {
	var c Chunk[int64]
	c.Init(target, sorted)
	for i := 0; i < n; i++ {
		c.Insert(int64(2*i), val(int64(2*i)))
	}
	return &c
}

// spacing is one key-cell width the sizing tests run at. Its keys are
// key(i) = 384u + 2iu for a unit u of 1, 2^8, 2^16 or 2^32, so a key lies
// between any two neighbours, and key(-64) to key(63), which holds a full
// chunk at targetSize 32 with room on either side, lies in one window of
// 256u keys: they share their upper 56, 48 or 32 bits, or at u = 2^32 no
// more than the 8-byte width needs.
type spacing struct {
	w    width
	unit int64
}

var spacings = []spacing{{w1, 1}, {w2, 1 << 8}, {w4, 1 << 16}, {w8, 1 << 32}}

func (g spacing) key(i int) int64 { return (384 + 2*int64(i)) * g.unit }

// keys is the span of the keys key(from) to key(to-1).
func (g spacing) keys(from, to int) span {
	if from >= to {
		return noKeys
	}
	return span{g.key(from), g.key(to - 1)}
}

// perWidth runs f as one subtest per spacing, named by its cell width.
func perWidth(t *testing.T, f func(t *testing.T, g spacing)) {
	for _, g := range spacings {
		t.Run(fmt.Sprintf("%d-byte", g.w.bytes()), func(t *testing.T) {
			if got := (span{g.key(-64), g.key(63)}).width(); got != g.w {
				t.Fatalf("keys %d apart take %d-byte cells", 2*g.unit, got.bytes())
			}
			f(t, g)
		})
	}
}

// filledAt is filled with the keys g.key(0), …, g.key(n-1).
func filledAt(g spacing, target, n int, sorted bool) *Chunk[int64] {
	var c Chunk[int64]
	c.Init(target, sorted)
	for i := 0; i < n; i++ {
		c.Insert(g.key(i), val(g.key(i)))
	}
	return &c
}

// allocsPerOp applies op to freshly built, identical chunks inside
// testing.AllocsPerRun, so that every run sees the same starting state.
func allocsPerOp(build func() *Chunk[int64], op func(c *Chunk[int64])) float64 {
	const runs = 8
	pool := make([]*Chunk[int64], runs+1)
	for i := range pool {
		pool[i] = build()
	}
	i := 0
	return testing.AllocsPerRun(runs, func() {
		op(pool[i])
		i++
	})
}

// put is a key a policy test puts, and whether it extends the chunk's span.
type put struct {
	k       int64
	extends bool
}

// puts are the policy tests' puts into a chunk built by filledAt(g, _, n, _):
// one above its span, one below, and one inside it when it has two keys.
func (g spacing) puts(n int) []put {
	p := []put{{g.key(n), true}, {g.key(-1), true}}
	if n >= 2 {
		p = append(p, put{g.key(n-1) - g.unit, false})
	}
	return p
}

// TestBlockGrowsWhenFull walks every size from empty to full and puts a key
// above, below and inside the span: a put allocates exactly one block when,
// and only when, the block is full or its cells cannot hold the key (one
// key takes 1-byte cells, and the second key of a wider spacing widens
// them). A put that extends the span grows the block geometrically, to
// appendRoom(size) cells, and one inside it to room(size), each rounded to
// its size class, at the width of the keys and no more than that width's
// header counts: a block of 1-byte cells holds at most 64, a full chunk at
// targetSize 32.
func TestBlockGrowsWhenFull(t *testing.T) {
	perWidth(t, func(t *testing.T, g spacing) {
		for _, target := range []int{1, 2, 4, 32} {
			bothPolicies(t, func(t *testing.T, sorted bool) {
				limit := 2 * target
				for n := 0; n < limit; n++ {
					build := func() *Chunk[int64] { return filledAt(g, target, n, sorted) }
					before := blockCap(build())
					fresh := val(-1)
					for _, p := range g.puts(n) {
						got := allocsPerOp(build, func(c *Chunk[int64]) { c.Insert(p.k, fresh) })
						grows := n == before || !build().blk.Load().holds(spanOf(p.k))
						want := 0.0
						if grows {
							want = 1
						}
						if got != want {
							t.Fatalf("T=%d: put of %d into %d/%d cells took %v allocations, want %v", target, p.k, n, before, got, want)
						}
						c := build()
						c.Insert(p.k, fresh)
						step := room(n)
						if p.extends {
							step = appendRoom(n)
						}
						bc, bw := blockCap(c), blockWidth(c)
						if want, ww := sized(n+1, step, limit, false, g.keys(0, n).with(spanOf(p.k))); grows && (bc != want || bw != ww) {
							t.Fatalf("T=%d: put of %d (extends the span: %t) grew a block of %d/%d cells to %d cells of %d bytes, want %d of %d",
								target, p.k, p.extends, n, before, bc, bw.bytes(), want, ww.bytes())
						}
						if err := c.CheckInvariants(); err != nil {
							t.Fatalf("T=%d size %d: %v", target, n+1, err)
						}
					}
				}
			})
		}
	})
}

// TestBlockDescendingAppendsGrowGeometrically: keys inserted in descending
// order extend the span below, as ascending ones do above, so each growth is
// the geometric step and the run allocates exactly as many blocks as the
// ascending one. So do descending keys above a NegInf sentinel, which a head
// node's chunk holds: it bounds the span but is no key of the input, and its
// block takes 8-byte cells from the start, so the first key after it does
// not widen the block.
func TestBlockDescendingAppendsGrowGeometrically(t *testing.T) {
	perWidth(t, func(t *testing.T, g spacing) {
		for _, target := range []int{1, 2, 4, 32} {
			bothPolicies(t, func(t *testing.T, sorted bool) {
				limit := 2 * target
				var grows [3]int
				for run, step := range []int{1, -1, -1} {
					var c Chunk[int64]
					c.Init(target, sorted)
					sp, n0 := noKeys, 0
					if run == 2 {
						c.Insert(NegInf, val(0))
						if c.KeyBytes() != 8 {
							t.Fatalf("a block holding only NegInf has %d-byte cells, want 8", c.KeyBytes())
						}
						sp, n0 = spanOf(NegInf), 1
					}
					for n, i := n0, 0; n < limit; n, i = n+1, i+step {
						k := g.key(i)
						before := blockCap(&c)
						c.Insert(k, val(k))
						if sp = sp.with(spanOf(k)); n < before {
							continue
						}
						grows[run]++
						want, ww := sized(n+1, appendRoom(n), limit, false, sp)
						if bc, bw := blockCap(&c), blockWidth(&c); bc != want || bw != ww {
							t.Fatalf("T=%d: append of %d (step %d) grew a full block of %d to %d cells of %d bytes, want %d of %d",
								target, k, step, n, bc, bw.bytes(), want, ww.bytes())
						}
					}
					if err := c.CheckInvariants(); err != nil {
						t.Fatal(err)
					}
				}
				if grows[0] != grows[1] {
					t.Fatalf("T=%d: ascending appends grew the block %d times, descending ones %d", target, grows[0], grows[1])
				}
			})
		}
	})
}

// TestBlockShrinksBelowTwoThirds drains a full chunk one key at a time: a
// removal allocates exactly one smaller block, of room(left) cells, when the
// geometric step around what it leaves, appendRoom(left) cells, fits a
// smaller size class than the block's own at its own width (below about ⅔
// full), and the last removal drops to the shared empty block for free.
func TestBlockShrinksBelowTwoThirds(t *testing.T) {
	perWidth(t, func(t *testing.T, g spacing) {
		for _, target := range []int{1, 2, 4, 32} {
			bothPolicies(t, func(t *testing.T, sorted bool) {
				limit := 2 * target
				// drained holds the keys g.key(i) for i in [0, n) after
				// removing the upper ones from a full chunk, one at a time.
				drained := func(n int) *Chunk[int64] {
					c := filledAt(g, target, limit, sorted)
					for i := limit - 1; i >= n; i-- {
						c.Remove(g.key(i))
					}
					return c
				}
				shrank := 0
				for n := limit; n > 0; n-- {
					before, bw := blockCap(drained(n)), blockWidth(drained(n))
					got := allocsPerOp(func() *Chunk[int64] { return drained(n) },
						func(c *Chunk[int64]) { c.Remove(g.key(n - 1)) })
					left := n - 1
					shrinks := left > 0 && capFor(appendRoom(left), limit, false, bw) < before
					want := 0.0
					if shrinks {
						want = 1
						shrank++
					}
					if got != want {
						t.Fatalf("T=%d: removal leaving %d in %d cells took %v allocations, want %v", target, left, before, got, want)
					}
					c := drained(left)
					wantCap, wantW := sized(left, room(left), limit, false, g.keys(0, left))
					switch bc := blockCap(c); {
					case left == 0 && c.blk.Load() != &emptyBlock:
						t.Fatalf("T=%d: empty chunk kept a block of %d cells", target, bc)
					case shrinks && (bc != wantCap || blockWidth(c) != wantW):
						t.Fatalf("T=%d: shrank to %d cells of %d bytes around %d elements, want %d of %d",
							target, bc, blockWidth(c).bytes(), left, wantCap, wantW.bytes())
					case shrinks && 3*left >= 2*before:
						t.Fatalf("T=%d: shrank a block of %d cells holding %d, at least ⅔ full", target, before, left)
					case !shrinks && left > 0 && bc != before:
						t.Fatalf("T=%d: removal leaving %d of %d cells resized to %d", target, left, before, bc)
					}
					if err := c.CheckInvariants(); err != nil {
						t.Fatalf("T=%d size %d: %v", target, left, err)
					}
				}
				if target == 32 && shrank == 0 {
					t.Fatal("T=32: draining a full chunk never shrank its block")
				}
			})
		}
	})
}

// TestBlockNoPingPong: inserting a key and removing it again, ten times over,
// allocates at most one block in total, at every size and width, with the
// key above, below or inside the span. It counts the blocks the chunk
// publishes over all ten pairs: testing.AllocsPerRun would hide the first
// pair in its unmeasured warm-up run, and runtime.MemStats counts every
// allocation in the process, which under -race, with other test binaries
// running beside this one, also saw allocations no chunk made.
func TestBlockNoPingPong(t *testing.T) {
	perWidth(t, func(t *testing.T, g spacing) {
		for _, target := range []int{1, 2, 4, 32} {
			bothPolicies(t, func(t *testing.T, sorted bool) {
				fresh := val(-1)
				for n := 1; n < 2*target; n++ {
					for _, p := range g.puts(n) {
						c := filledAt(g, target, n, sorted)
						allocs := 0
						counted := func(op func() bool) {
							b := c.blk.Load()
							if !op() {
								t.Fatalf("T=%d: an insert or removal of %d at size %d did nothing", target, p.k, n)
							}
							if nb := c.blk.Load(); nb != b && nb != &emptyBlock {
								allocs++
							}
						}
						for range 10 {
							counted(func() bool { return c.Insert(p.k, fresh) })
							counted(func() bool { _, ok := c.Remove(p.k); return ok })
						}
						if allocs > 1 {
							t.Fatalf("T=%d: 10 insert/remove pairs of %d at size %d allocated %d blocks, want at most 1",
								target, p.k, n, allocs)
						}
						if err := c.CheckInvariants(); err != nil {
							t.Fatal(err)
						}
					}
				}
			})
		}
	})
}

// TestBlockMovesSizeDestinationOnce: a split destination gets one block, with
// room for what it received and the inserts after it; the source keeps its
// own unless the shrink rule applies to what the split left, which after a
// capacity split of a full chunk it does; an unsorted split selects its
// median without allocating; a merge allocates only when the absorber's
// block is too small.
func TestBlockMovesSizeDestinationOnce(t *testing.T) {
	const target, limit = 32, 64
	perWidth(t, func(t *testing.T, g spacing) {
		bothPolicies(t, func(t *testing.T, sorted bool) {
			holding := func(n int) func() *Chunk[int64] {
				return func() *Chunk[int64] { return filledAt(g, target, n, sorted) }
			}
			// Destinations are built outside the measured runs.
			var dsts []*Chunk[int64]
			dstPool := func() func() *Chunk[int64] {
				dsts = dsts[:0]
				for range 9 {
					dsts = append(dsts, filledAt(g, target, 0, sorted))
				}
				i := 0
				return func() *Chunk[int64] { i++; return dsts[i-1] }
			}
			// shrinks reports whether the block of c holding n shrinks.
			shrinks := func(n int, c *Chunk[int64]) bool {
				return capFor(appendRoom(n), limit, false, blockWidth(c)) < blockCap(c)
			}
			next := dstPool()
			// The destination and the source's smaller block; an unsorted
			// split picks its median in a stack copy of the keys.
			want := 2.0
			if got := allocsPerOp(holding(limit), func(c *Chunk[int64]) { c.SplitUpperHalfTo(next()) }); got != want {
				t.Fatalf("capacity split took %v allocations, want %v", got, want)
			}
			half, halfW := sized(target, room(target), limit, false, g.keys(target, limit))
			for _, d := range dsts {
				if d.Size() != target || blockCap(d) != half || blockWidth(d) != halfW {
					t.Fatalf("split destination holds %d in %d cells of %d bytes, want %d in %d of %d",
						d.Size(), blockCap(d), blockWidth(d).bytes(), target, half, halfW.bytes())
				}
			}
			split := filledAt(g, target, limit, sorted)
			split.SplitUpperHalfTo(filledAt(g, target, 0, sorted))
			if half, halfW = sized(target, room(target), limit, false, g.keys(0, target)); split.Size() != target ||
				blockCap(split) != half || blockWidth(split) != halfW {
				t.Fatalf("split source holds %d in %d cells of %d bytes, want %d in %d of %d",
					split.Size(), blockCap(split), blockWidth(split).bytes(), target, half, halfW.bytes())
			}

			// A keyed split allocates the destination, and a smaller source
			// when what it keeps shrinks.
			for _, tc := range []struct {
				k    int64
				kept int
			}{{g.key(25), 26}, {g.key(30), 31}, {g.key(5), 6}, {g.key(40), 40}} {
				c := filledAt(g, target, 40, sorted)
				before := blockCap(c)
				moved := c.Size() - tc.kept
				want, cells := 0.0, before
				if moved > 0 {
					want++
				}
				if shrinks(tc.kept, c) {
					want++
					cells, _ = sized(tc.kept, room(tc.kept), limit, false, g.keys(0, tc.kept))
				}
				next = dstPool()
				if got := allocsPerOp(holding(40), func(c *Chunk[int64]) { c.MoveGreaterTo(tc.k, next()) }); got != want {
					t.Fatalf("keyed split at %d took %v allocations, want %v", tc.k, got, want)
				}
				c.MoveGreaterTo(tc.k, filledAt(g, target, 0, sorted))
				if c.Size() != tc.kept || blockCap(c) != cells {
					t.Fatalf("keyed split at %d left %d in %d cells (had %d), want %d in %d",
						tc.k, c.Size(), blockCap(c), before, tc.kept, cells)
				}
			}

			// Absorbing fits or grows once.
			for _, tc := range []struct{ have, take int }{{20, 2}, {20, 30}, {40, 24}} {
				src := func() *Chunk[int64] {
					var s Chunk[int64]
					s.Init(target, sorted)
					for i := tc.have; i < tc.have+tc.take; i++ {
						s.Insert(g.key(i), val(int64(i)))
					}
					return &s
				}
				have := filledAt(g, target, tc.have, sorted)
				want := 0.0
				if tc.have+tc.take > blockCap(have) {
					want = 1
				}
				srcs := make([]*Chunk[int64], 0, 9)
				for range 9 {
					srcs = append(srcs, src())
				}
				got := allocsPerOp(func() *Chunk[int64] { return filledAt(g, target, tc.have, sorted) },
					func(c *Chunk[int64]) { c.AbsorbFrom(srcs[0]); srcs = srcs[1:] })
				if got != want {
					t.Fatalf("absorbing %d into %d/%d cells took %v allocations, want %v", tc.take, tc.have, blockCap(have), got, want)
				}
				have.AbsorbFrom(src())
				if err := have.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			}
		})
	})
}

// TestBlockApplyOpsGrowsOncePerRun: a batch run that inserts many keys into a
// full block resizes it once, for all of them.
func TestBlockApplyOpsGrowsOncePerRun(t *testing.T) {
	const target = 32
	bothPolicies(t, func(t *testing.T, sorted bool) {
		full := func() *Chunk[int64] {
			c := filled(target, 3, sorted)
			for blockCap(c) != c.Size() {
				c.Insert(int64(2*c.Size()), val(0))
			}
			return c
		}
		n0 := full().Size()
		ops := make([]SlotOp[int64], 0, 24)
		for i := 0; i < 24; i++ {
			ops = append(ops, SlotOp[int64]{Key: int64(2*(n0+i) + 1), Val: val(int64(i))})
		}
		out := make([]SlotOutcome, len(ops))
		if got := allocsPerOp(full, func(c *Chunk[int64]) { c.ApplyOps(ops, out) }); got != 1 {
			t.Fatalf("a run of %d inserts into a full %d-cell block took %v allocations, want 1", len(ops), n0, got)
		}
		c := full()
		c.ApplyOps(ops, out)
		if c.Size() != n0+len(ops) || blockCap(c) < c.Size() {
			t.Fatalf("after the run: %d elements in %d cells", c.Size(), blockCap(c))
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestBlockReserveKeys: ReserveKeys allocates once when the block is too
// small and never past the logical capacity; Init allocates nothing.
func TestBlockReserveKeys(t *testing.T) {
	empty := func() *Chunk[int64] { return filled(32, 0, false) }
	if got := allocsPerOp(empty, func(c *Chunk[int64]) { c.Init(32, true) }); got != 0 {
		t.Fatalf("Init took %v allocations", got)
	}
	if got := allocsPerOp(empty, func(c *Chunk[int64]) { c.ReserveKeys(40, 0, 78) }); got != 1 {
		t.Fatalf("ReserveKeys(40) took %v allocations, want 1", got)
	}
	c := empty()
	c.ReserveKeys(1000, 0, 1998)
	if blockCap(c) != c.Cap() {
		t.Fatalf("ReserveKeys past capacity made %d cells, want %d", blockCap(c), c.Cap())
	}
	if got := allocsPerOp(func() *Chunk[int64] { return filled(32, 10, false) },
		func(c *Chunk[int64]) { c.ReserveKeys(1, 20, 20) }); got != 0 {
		t.Fatalf("ReserveKeys with room to spare took %v allocations", got)
	}
}

// TestBlockBytes checks that BlockBytes is what the allocator charged for the
// block, read from the runtime's own count of bytes allocated, for pointer
// and word cells at every key width and size; 0 for the shared empty block;
// and that reading it allocates nothing. Anything else the process allocates
// meanwhile (the race runtime does) only adds to the count, so each case
// takes the least of three measurements.
func TestBlockBytes(t *testing.T) {
	const chunks = 64
	for _, words := range []bool{false, true} {
		for _, gap := range []int64{1, 1 << 8, 1 << 16, 1 << 32} {
			for n := 1; n <= 64; n++ {
				fresh := func() []Cells {
					cs := make([]Cells, chunks)
					for i := range cs {
						if words {
							cs[i].InitWords(32, false)
						} else {
							cs[i].Init(32, false)
						}
					}
					return cs
				}
				// The first block of a shape builds its type: measure after it.
				fresh()[0].ReserveKeys(n, 0, int64(n-1)*gap)
				charged := uint64(math.MaxUint64)
				var cs []Cells
				for range 3 {
					cs = fresh()
					if got := cs[0].BlockBytes(); got != 0 {
						t.Fatalf("empty chunk: BlockBytes = %d, want 0", got)
					}
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					for i := range cs {
						cs[i].ReserveKeys(n, 0, int64(n-1)*gap)
					}
					runtime.ReadMemStats(&after)
					charged = min(charged, (after.TotalAlloc-before.TotalAlloc)/chunks)
				}
				if got := cs[0].BlockBytes(); uint64(got) != charged {
					t.Errorf("words=%t gap=%d n=%d: BlockBytes = %d, allocator charged %d per block",
						words, gap, n, got, charged)
				}
				if allocs := testing.AllocsPerRun(10, func() { cs[0].BlockBytes() }); allocs != 0 {
					t.Errorf("BlockBytes took %v allocations", allocs)
				}
			}
		}
	}
}

// TestChunkConcurrentResize runs optimistic readers against a writer that
// keeps replacing the chunk's block: it fills the chunk, drains it, and
// splits and re-absorbs it, every step under a seqlock write hold as a skip
// vector node does, and grows the block for an insert while the lock is only
// frozen, as Insert does. The keys come in groups of four, 16 apart, so a
// group takes 1-byte cells, with the groups 2^14 apart in two clusters of
// six, one straddling 2^32 and the other 2^33 above it: two neighbouring
// groups fit one window of 2-byte cells, a cluster one of 4-byte cells, and
// keys of both clusters need 8-byte cells. Blocks go between 1-, 2-, 4- and
// 8-byte key cells. An insert from outside the block's window widens it,
// while frozen or under the write hold, and a shrink, split or merge that
// leaves keys of a narrower window narrows it. Readers never lock. A read may see
// anything while a write is in flight, but it must not panic, and every
// read the seqlock validates must match the contents the writer published
// for that version.
func TestChunkConcurrentResize(t *testing.T) {
	const (
		target       = 8
		keySpace     = 48
		group        = 4
		stride       = 1 << 14
		base         = 1<<32 - keySpace/group/4*stride // groups at base, base+stride, …
		cycles       = 150
		minValidated = 5000
	)
	bothPolicies(t, func(t *testing.T, sorted bool) {
		var (
			lock  seqlock.Lock
			c, d  Chunk[int64]
			model atomic.Pointer[[]int64] // c's sorted keys at the lock's current version
		)
		c.Init(target, sorted)
		d.Init(target, sorted)
		key := func(k int) int64 {
			return base + int64(k/(keySpace/2))<<33 + int64(k%(keySpace/2)/group)*stride + int64(k%group)*16
		}
		payload := make([]*int64, keySpace)
		for k := range payload {
			payload[k] = val(key(k) * 3)
		}
		var moves [9][9]int // commits by the key bytes of the chunk's last and new block
		last := 0
		// commit runs f under the held write lock and publishes the model.
		commit := func(f func()) {
			f()
			if kb := c.KeyBytes(); kb > 0 {
				moves[last][kb]++
				last = kb
			}
			keys := c.Keys()
			slices.Sort(keys)
			model.Store(&keys)
			lock.Release()
		}
		write := func(f func()) {
			lock.Acquire()
			commit(f)
		}
		// insert grows the block the way a skip vector Insert does: while
		// the lock is only frozen, so reads keep validating across the swap.
		// Every other insert reserves for no key (an empty key range), so a
		// key from another window widens the block under the write hold
		// instead.
		insert := func(k int) {
			if _, ok := lock.TryFreeze(lock.Current()); !ok {
				panic("single writer failed to freeze")
			}
			if k%2 == 0 {
				c.ReserveKeys(1, key(k), key(k))
			} else {
				c.ReserveKeys(1, PosInf, NegInf)
			}
			lock.UpgradeFrozen()
			commit(func() { c.Insert(key(k), payload[k]) })
		}
		write(func() {})

		var (
			wg                  sync.WaitGroup
			stop                atomic.Bool
			validated, mismatch atomic.Int64
		)
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for ; !stop.Load(); runtime.Gosched() { // leave the writer a CPU
					v, ok := lock.ReadVersion()
					if !ok {
						continue
					}
					q := key(rng.Intn(keySpace+2)-1) + int64(rng.Intn(3)-1)
					op := rng.Intn(5)
					var (
						gotK    int64
						gotV    *int64
						gotOK   bool
						minK    int64
						maxK    int64
						visited []int64
					)
					switch op {
					case 0:
						gotV, gotOK = c.Get(q)
						gotK = q
					case 1:
						gotK, gotV, gotOK = c.FindLE(q)
					case 2:
						gotK, gotV, gotOK = c.FindGE(q)
					case 3:
						minK, maxK, gotOK = c.Bounds()
					case 4:
						c.ForEach(func(k int64, _ *int64) bool {
							visited = append(visited, k)
							return len(visited) <= 2*target
						})
					}
					keys := *model.Load()
					if !lock.Validate(v) {
						continue
					}
					validated.Add(1)
					want := func() (int64, bool) { return 0, false }
					switch op {
					case 0:
						want = func() (int64, bool) { _, ok := slices.BinarySearch(keys, q); return q, ok }
					case 1:
						want = func() (int64, bool) {
							i, _ := slices.BinarySearch(keys, q+1)
							if i == 0 {
								return 0, false
							}
							return keys[i-1], true
						}
					case 2:
						want = func() (int64, bool) {
							i, _ := slices.BinarySearch(keys, q)
							if i == len(keys) {
								return 0, false
							}
							return keys[i], true
						}
					}
					bad := false
					switch op {
					case 0, 1, 2:
						wk, wok := want()
						bad = gotOK != wok || gotOK && (gotK != wk || gotV == nil || *gotV != gotK*3)
					case 3:
						bad = gotOK != (len(keys) > 0) || gotOK && (minK != keys[0] || maxK != keys[len(keys)-1])
					case 4:
						slices.Sort(visited)
						bad = !slices.Equal(visited, keys)
					}
					if bad {
						mismatch.Add(1)
					}
				}
			}(int64(r) + 1)
		}

		rng := rand.New(rand.NewSource(7))
		for cycle := 0; cycle < cycles || validated.Load() < minValidated; cycle++ {
			for !c.Full() {
				insert(rng.Intn(keySpace))
			}
			for c.Size() > 0 {
				keys := c.Keys()
				k := keys[rng.Intn(len(keys))]
				write(func() { c.Remove(k) })
			}
			for n := 2 + rng.Intn(2*target-2); c.Size() < n; {
				insert(rng.Intn(keySpace))
			}
			write(func() { c.SplitUpperHalfTo(&d) })
			write(func() { c.AbsorbFrom(&d) })
		}
		stop.Store(true)
		wg.Wait()
		if n := mismatch.Load(); n > 0 {
			t.Fatalf("%d of %d validated reads disagree with the published contents", n, validated.Load())
		}
		if validated.Load() == 0 {
			t.Fatal("no read validated; the test exercised nothing")
		}
		for _, w := range [][2]int{{1, 2}, {2, 4}, {4, 8}, {2, 8}, {8, 2}, {2, 1}} {
			if moves[w[0]][w[1]] == 0 {
				t.Fatalf("no block of %d-byte keys replaced one of %d-byte keys (%v)", w[1], w[0], moves)
			}
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestWordCellsFollowTheSizingPolicy runs a word-celled chunk through the
// same grow, shrink, split and merge steps as the pointer-celled tests
// above, at every key width: every resize lands on the word-cell size class
// at the width of its keys, every value — including 0 — survives each block
// copy, and the chunk invariant holds throughout.
func TestWordCellsFollowTheSizingPolicy(t *testing.T) {
	const target, limit = 32, 64
	perWidth(t, func(t *testing.T, g spacing) {
		bothPolicies(t, func(t *testing.T, sorted bool) {
			word := func(k int64) Cell { return Cell{Word: uint64(k) * 3} }
			var c, d Cells
			c.InitWords(target, sorted)
			d.InitWords(target, sorted)
			check := func(ch *Cells, keys ...int64) {
				t.Helper()
				if err := ch.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				for _, k := range keys {
					if v, ok := ch.Get(k); !ok || v != word(k) {
						t.Fatalf("Get(%d) = %+v, %t", k, v, ok)
					}
				}
			}
			grew := func(ch *Cells, n, step int, sp span) {
				t.Helper()
				want, ww := sized(n+1, step, limit, true, sp)
				if b := ch.blk.Load(); b.cap() != want || b.width() != ww {
					t.Fatalf("a put grew a full block of %d to %d cells of %d bytes, want %d of %d",
						n, b.cap(), b.width().bytes(), want, ww.bytes())
				}
			}
			// Appends grow the block by the geometric step.
			var keys []int64
			for n := 0; n < limit; n++ {
				before := c.blk.Load().cap()
				c.Insert(g.key(n), word(g.key(n)))
				keys = append(keys, g.key(n))
				if n == before {
					grew(&c, n, appendRoom(n), g.keys(0, n+1))
				}
				check(&c, keys...)
			}
			// Puts between two ends grow it by room.
			var e Cells
			e.InitWords(target, sorted)
			inside := []int64{g.key(-64), g.key(63)}
			for _, k := range inside {
				e.Insert(k, word(k))
			}
			for n := 2; n < limit; n++ {
				before := e.blk.Load().cap()
				k := g.key(2*n - 64)
				e.Insert(k, word(k))
				inside = append(inside, k)
				if n == before {
					grew(&e, n, room(n), g.keys(-64, 64))
				}
				check(&e, inside...)
			}
			pivot, _ := slices.BinarySearch(keys, c.SplitUpperHalfTo(&d))
			check(&c, keys[:pivot]...)
			check(&d, keys[pivot:]...)
			c.AbsorbFrom(&d)
			check(&c, keys...)
			for len(keys) > 1 {
				k := keys[len(keys)-1]
				keys = keys[:len(keys)-1]
				if v, ok := c.Remove(k); !ok || v != word(k) {
					t.Fatalf("Remove(%d) = %+v, %t", k, v, ok)
				}
				check(&c, keys...)
			}
		})
	})
}

// TestBlockWidensAndNarrows walks one chunk through the four key widths and
// back: keys less than 2^7 apart take 1-byte cells; a put 2^8 below widens
// the block to 2-byte cells, one 2^15 above to 4-byte cells, and one 2^31
// below to 8-byte cells, each at once, by one resize, whether or not the
// block is full. A block keeps its width until its next resize, which
// narrows it again once the far keys are gone. Splits, merges and batches
// choose the width from the keys they move. The chunk invariant holds after
// every step, and every key keeps its payload.
func TestBlockWidensAndNarrows(t *testing.T) {
	const (
		hi  = 1 << 32
		win = hi + 1<<16 // a multiple of 2^16 above 2^32
	)
	// based checks that ch's block has a window base of its width: a
	// multiple of half its window. CheckInvariants checks that the window
	// holds every key.
	based := func(what string, ch *Chunk[int64]) {
		t.Helper()
		b := ch.blk.Load()
		if half := uint64(1) << (b.width().bits() - 1); b.base()%half != 0 {
			t.Fatalf("%s: block of %d-byte cells has base %#x", what, b.width().bytes(), b.base())
		}
	}
	bothPolicies(t, func(t *testing.T, sorted bool) {
		c := newChunk(t, 32, sorted)
		model := map[int64]int64{}
		step := func(what string, ch *Chunk[int64], keyBytes int) {
			t.Helper()
			if err := ch.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if got := ch.KeyBytes(); got != keyBytes {
				t.Fatalf("%s: %d-byte key cells, want %d", what, got, keyBytes)
			}
		}
		check := func(what string) {
			t.Helper()
			for k, v := range model {
				if got, ok := c.Get(k); !ok || *got != v {
					t.Fatalf("%s: Get(%d) lost its payload", what, k)
				}
			}
			if c.Size() != len(model) {
				t.Fatalf("%s: size %d, model %d", what, c.Size(), len(model))
			}
		}
		insert := func(k int64) {
			t.Helper()
			if !c.Insert(k, val(k*3)) {
				t.Fatalf("Insert(%d) failed", k)
			}
			model[k] = k * 3
		}
		remove := func(k int64) {
			t.Helper()
			if _, ok := c.Remove(k); !ok {
				t.Fatalf("Remove(%d) failed", k)
			}
			delete(model, k)
		}
		// fillUp inserts keys downward from k until the block is full.
		fillUp := func(k int64) {
			for ; !c.Full() && c.Size() < blockCap(c); k-- {
				insert(k)
			}
		}
		for k := int64(win - 10); k < win; k++ {
			insert(k)
		}
		step("ten keys below a window boundary", c, 1)
		based("ten keys below a window boundary", c)
		insert(win - 257)
		step("a key 2^8 below", c, 2)
		based("a key 2^8 below", c)
		remove(win - 257)
		fresh := val(0)
		for _, k := range []int64{1 << 8, 1 << 16, hi} {
			if got := allocsPerOp(func() *Chunk[int64] { return filled(32, 10, sorted) },
				func(c *Chunk[int64]) { c.Insert(k, fresh) }); got != 1 {
				t.Fatalf("a put of %d into 10/%d cells took %v allocations, want 1", k, blockCap(filled(32, 10, sorted)), got)
			}
		}
		insert(win)
		step("a key inside the 2-byte window", c, 2)
		insert(win + 1<<15)
		step("a key 2^15 above", c, 4)
		insert(hi - 1<<31 - 1)
		step("a key 2^31 below", c, 8)
		check("widened")
		remove(hi - 1<<31 - 1)
		step("the key 2^31 below removed", c, 8)
		fillUp(win - 11)
		insert(win - 100) // the first insert into the full block resizes it
		step("the next grow", c, 4)
		check("narrowed to 4 bytes by a grow")
		remove(win + 1<<15)
		remove(win)
		fillUp(win - 200)
		insert(win - 300)
		step("the grow after the last foreign key left", c, 2)
		check("narrowed to 2 bytes by a grow")

		// A split hands each side the width of its own keys; a merge of the
		// two sides widens.
		var d Chunk[int64]
		d.Init(32, sorted)
		for k := int64(win + 1<<15); k < win+1<<15+4; k++ {
			insert(k)
		}
		step("keys 2^15 apart", c, 4)
		c.MoveGreaterTo(win, &d)
		step("split destination 2^15 above", &d, 1)
		based("split destination 2^15 above", &d)
		if d.Size() != 4 {
			t.Fatalf("split destination holds %d keys under header %#x", d.Size(), d.blk.Load().hdr)
		}
		c.AbsorbFrom(&d)
		step("merge of keys 2^15 apart", c, 4)
		check("merged")

		// A batch widens once for every put still ahead and narrows at its
		// shrink.
		var ops []SlotOp[int64]
		for k := range model {
			ops = append(ops, SlotOp[int64]{Key: k, Del: true})
		}
		out := make([]SlotOutcome, len(ops))
		c.ApplyOps(ops, out)
		clear(model)
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if c.blk.Load() != &emptyBlock || c.KeyBytes() != 0 {
			t.Fatalf("emptied chunk kept a block of %d cells", blockCap(c))
		}
		ops = ops[:0]
		for k := int64(0); k < 12; k++ {
			ops = append(ops, SlotOp[int64]{Key: (k - 8) << 30, Val: val(k)})
			model[(k-8)<<30] = k
		}
		out = make([]SlotOutcome, len(ops))
		if got := allocsPerOp(func() *Chunk[int64] { return filled(32, 0, sorted) },
			func(c *Chunk[int64]) { c.ApplyOps(ops, out) }); got != 1 {
			t.Fatalf("a batch across 0 took %v allocations, want 1", got)
		}
		c.ApplyOps(ops, out)
		step("batch of keys 2^30 apart across 0", c, 8)
		check("batch")
		ops = ops[:0]
		for k := int64(-8); k < 0; k++ {
			ops = append(ops, SlotOp[int64]{Key: k << 30, Del: true})
			delete(model, k<<30)
		}
		c.ApplyOps(ops, out[:len(ops)])
		step("batch shrink to the keys ≥ 0", c, 4)
		check("batch shrink")

		// A foreign key into a block with room to spare widens it once, for
		// the puts behind it too.
		for _, tc := range []struct {
			k        int64
			keyBytes int
		}{{1 << 8, 2}, {1 << 16, 4}, {hi + 1, 8}} {
			widen := []SlotOp[int64]{{Key: tc.k, Val: fresh}, {Key: 1, Val: fresh}, {Key: 3, Val: fresh}}
			out = make([]SlotOutcome, len(widen))
			if got := allocsPerOp(func() *Chunk[int64] { return filled(32, 3, sorted) },
				func(c *Chunk[int64]) { c.ApplyOps(widen, out) }); got != 1 {
				t.Fatalf("a batch led by key %d took %v allocations, want 1", tc.k, got)
			}
			w := filled(32, 3, sorted)
			if w.Full() || w.KeyBytes() != 1 || w.Size() == blockCap(w) {
				t.Fatalf("setup: 3 keys in %d cells of %d bytes", blockCap(w), w.KeyBytes())
			}
			w.ApplyOps(widen, out)
			step(fmt.Sprintf("a batch led by key %d", tc.k), w, tc.keyBytes)
			for _, k := range []int64{0, 1, 2, 3, 4, tc.k} {
				if !w.Contains(k) {
					t.Fatalf("the widened batch lost key %d", k)
				}
			}
		}
	})
}

// TestBlockWindowAtAnyAlignment: a block of w-byte cells holds the keys of
// one window of 2^8w biased values starting at a multiple of half a window,
// so keys less than half a window apart take w-byte cells wherever they lie.
// At each narrow width, keys straddling a multiple of the window, less than
// half a window apart, take w-byte cells in one allocation; a put at the
// window's top key stays in the block; a put one past the top or one below
// the base widens it through the resize path, in one allocation.
func TestBlockWindowAtAnyAlignment(t *testing.T) {
	for _, w := range []width{w1, w2, w4} {
		t.Run(fmt.Sprintf("%d-byte", w.bytes()), func(t *testing.T) {
			bothPolicies(t, func(t *testing.T, sorted bool) {
				window, half := int64(1)<<w.bits(), int64(1)<<(w.bits()-1)
				var ops []SlotOp[int64]
				for i := int64(-10); i <= 10; i++ {
					ops = append(ops, SlotOp[int64]{Key: 7*window + i*half/32, Val: val(i)})
				}
				out := make([]SlotOutcome, len(ops))
				empty := func() *Chunk[int64] { return filled(32, 0, sorted) }
				if got := allocsPerOp(empty, func(c *Chunk[int64]) { c.ApplyOps(ops, out) }); got != 1 {
					t.Fatalf("a batch straddling %d took %v allocations, want 1", 7*window, got)
				}
				// built holds the batch's keys but the middle one, which
				// leaves a spare cell.
				built := func() *Chunk[int64] {
					c := empty()
					c.ApplyOps(ops, out)
					c.Remove(7 * window)
					return c
				}
				c := built()
				b := c.blk.Load()
				if c.KeyBytes() != int(w.bytes()) || c.Size() == blockCap(c) {
					t.Fatalf("%d keys straddling %d take %d of %d-byte cells", c.Size(), 7*window, blockCap(c), c.KeyBytes())
				}
				if b.base()%uint64(half) != 0 {
					t.Fatalf("base %#x is no multiple of %#x", b.base(), half)
				}
				// at is the key base + off.
				at := func(off int64) int64 { return int64((b.base() + uint64(off)) ^ signBit) }
				fresh := val(-1)
				for _, p := range []struct {
					k     int64
					grows bool
				}{{at(window - 1), false}, {at(window), true}, {at(-1), true}} {
					want := 0.0
					if p.grows {
						want = 1
					}
					if got := allocsPerOp(built, func(c *Chunk[int64]) { c.Insert(p.k, fresh) }); got != want {
						t.Fatalf("a put at base%+d took %v allocations, want %v", p.k-at(0), got, want)
					}
					c := built()
					before := c.blk.Load()
					c.Insert(p.k, fresh)
					if got, same := c.KeyBytes(), c.blk.Load() == before; p.grows == same || p.grows != (got > int(w.bytes())) {
						t.Fatalf("a put at base%+d left %d-byte cells, in the same block: %t", p.k-at(0), got, same)
					}
					if err := c.CheckInvariants(); err != nil {
						t.Fatal(err)
					}
				}
			})
		})
	}
}

// TestBlockHoldsUpTo64OneByteCells: a block of 1-byte cells counts up to 64
// cells, so a chunk of up to 64 keys that fit one window keeps 1-byte cells
// at every size, however far its growth step reaches: a put into a full
// block of 48 or more (48 cells on 64-bit platforms) asks for more than 64
// cells and takes 64 of 1 byte, where 2-byte cells would cost a larger size
// class. The 65th key, at targetSize 128, takes 2-byte cells.
func TestBlockHoldsUpTo64OneByteCells(t *testing.T) {
	bothPolicies(t, func(t *testing.T, sorted bool) {
		for _, target := range []int{32, 128} {
			for n := 49; n <= 64; n++ {
				if c := filled(target, n, sorted); c.KeyBytes() != 1 {
					t.Fatalf("T=%d: %d keys in one window take %d-byte cells", target, n, c.KeyBytes())
				}
			}
			grew := false
			for n := 48; n < 64; n++ {
				c := filled(target, n, sorted)
				if c.Size() != blockCap(c) {
					continue
				}
				grew = true
				c.Insert(int64(2*n), val(0))
				if got, two := c.BlockBytes(), int(shapeOf(64, false, w2).class); c.KeyBytes() != 1 || blockCap(c) != 64 || got >= two {
					t.Fatalf("T=%d: a put into a full block of %d took %d cells of %d bytes in %d B, want 64 of 1 byte in less than %d",
						target, n, blockCap(c), c.KeyBytes(), got, two)
				}
			}
			if !grew {
				t.Fatalf("T=%d: no block of 48 to 63 keys was full", target)
			}
		}
		if c := filled(128, 65, sorted); c.KeyBytes() != 2 {
			t.Fatalf("65 keys take %d-byte cells, want 2", c.KeyBytes())
		}
	})
}

// TestTwoByteStoreKeepsItsNeighbour: a 2-byte cell shares its 4-byte word
// with the next, and storing one rewrites only its own half.
func TestTwoByteStoreKeepsItsNeighbour(t *testing.T) {
	b := newBlock(8, true, w2, span{0, 0xffff})
	for i := range 8 {
		b.storeKey(i, int64(0x1111*(i+1)))
	}
	b.storeKey(2, 0xffff)
	b.storeKey(5, 0)
	for i, want := range []int64{0x1111, 0x2222, 0xffff, 0x4444, 0x5555, 0, 0x7777, 0x8888} {
		if got := b.loadKey(i); got != want {
			t.Fatalf("cell %d holds %#x, want %#x", i, got, want)
		}
	}
	if got := atomic.LoadUint32((*uint32)(b.keys())); got != 0x2222_1111 {
		t.Fatalf("word 0 is %#x, want cell 0 in its low half and cell 1 in its high half", got)
	}
}

// TestOneByteStoreKeepsItsNeighbours: a 1-byte cell shares its 4-byte word
// with three others, and storing one rewrites only its own lane.
func TestOneByteStoreKeepsItsNeighbours(t *testing.T) {
	b := newBlock(8, true, w1, span{0, 0xff})
	for i := range 8 {
		b.storeKey(i, int64(0x11*(i+1)))
	}
	b.storeKey(2, 0xff)
	b.storeKey(5, 0)
	for i, want := range []int64{0x11, 0x22, 0xff, 0x44, 0x55, 0, 0x77, 0x88} {
		if got := b.loadKey(i); got != want {
			t.Fatalf("cell %d holds %#x, want %#x", i, got, want)
		}
	}
	for i, want := range []uint32{0x44ff_2211, 0x8877_0055} {
		if got := atomic.LoadUint32((*uint32)(unsafe.Add(b.keys(), 4*i))); got != want {
			t.Fatalf("word %d is %#x, want %#x: cell 4i in its low byte, the next three above", i, got, want)
		}
	}
}
