package skipvector

import (
	"math/rand"
	"sync"
	"testing"
)

func TestHandleBasics(t *testing.T) {
	m := New[string]()
	h := m.NewHandle()
	defer h.Close()
	if !h.Insert(1, "one") {
		t.Fatal("Insert failed")
	}
	if h.Insert(1, "uno") {
		t.Fatal("duplicate Insert succeeded")
	}
	if v, ok := h.Lookup(1); !ok || v != "one" {
		t.Fatalf("Lookup = %q,%t", v, ok)
	}
	if !h.Contains(1) || h.Contains(2) {
		t.Fatal("Contains wrong")
	}
	h.Insert(5, "five")
	h.Insert(9, "nine")
	if k, v, ok := h.Floor(7); !ok || k != 5 || v != "five" {
		t.Fatalf("Floor(7) = %d,%q,%t", k, v, ok)
	}
	if k, v, ok := h.Ceiling(7); !ok || k != 9 || v != "nine" {
		t.Fatalf("Ceiling(7) = %d,%q,%t", k, v, ok)
	}
	if !h.Remove(1) || h.Remove(1) {
		t.Fatal("Remove semantics wrong")
	}
	// Handle and map views are the same structure.
	if m.Len() != 2 {
		t.Fatalf("Len = %d", m.Len())
	}
	if v, ok := m.Lookup(5); !ok || v != "five" {
		t.Fatalf("map Lookup(5) = %q,%t", v, ok)
	}
}

func TestHandleCloseIdempotent(t *testing.T) {
	m := New[int]()
	h := m.NewHandle()
	h.Insert(1, 1)
	h.Close()
	h.Close() // second Close must be a no-op
	if !m.Contains(1) {
		t.Fatal("key lost after handle close")
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
