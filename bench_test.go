package skipvector

import "testing"

// BenchmarkBulkLoad compares O(n) bulk loading against incremental inserts
// for index construction (the database-index build path).
func BenchmarkBulkLoad(b *testing.B) {
	const n = 1 << 16
	keys := make([]int64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = int64(i)
		vals[i] = uint64(i)
	}
	b.Run("Bulk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := NewFromSorted(keys, vals)
			if err != nil {
				b.Fatal(err)
			}
			if m.Len() != n {
				b.Fatal("short load")
			}
		}
	})
	b.Run("Incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := New[uint64]()
			for j := range keys {
				m.Insert(keys[j], vals[j])
			}
			if m.Len() != n {
				b.Fatal("short load")
			}
		}
	})
}
