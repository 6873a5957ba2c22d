package skipvector

import (
	"math/rand"
	"sync"
	"testing"
)

// TestHandleUseAfterClosePanics pins one rule for both map types: a Handle
// used after Close panics, whether it was opened on a Map or a ShardedMap.
func TestHandleUseAfterClosePanics(t *testing.T) {
	for name, h := range map[string]*Handle[int]{
		"Map":        New[int]().NewHandle(),
		"ShardedMap": NewSharded[int]([]int64{10}).NewHandle(),
	} {
		h.Insert(1, 1)
		h.Close()
		h.Close()
		for op, use := range map[string]func(){
			"Lookup": func() { h.Lookup(1) },
			"Upsert": func() { h.Upsert(2, 2) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s handle: %s after Close did not panic", name, op)
					}
				}()
				use()
			}()
		}
	}
}

// TestHandlesConcurrent runs one pinned handle per goroutine over disjoint
// key stripes — the intended usage pattern — and checks every result
// against a per-goroutine reference.
func TestHandlesConcurrent(t *testing.T) {
	m := New[int64]()
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := m.NewHandle()
			defer h.Close()
			base := int64(g) * 100_000
			ref := map[int64]int64{}
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 5000; i++ {
				k := base + int64(rng.Intn(512))
				switch rng.Intn(4) {
				case 0, 1:
					got := h.Insert(k, k)
					if _, had := ref[k]; got == had {
						errs <- "Insert mismatch"
						return
					}
					if got {
						ref[k] = k
					}
				case 2:
					got := h.Remove(k)
					if _, had := ref[k]; got != had {
						errs <- "Remove mismatch"
						return
					}
					delete(ref, k)
				default:
					v, got := h.Lookup(k)
					want, had := ref[k]
					if got != had || (got && v != want) {
						errs <- "Lookup mismatch"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}
