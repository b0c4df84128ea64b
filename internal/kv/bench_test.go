package kv

import (
	"testing"

	"pmnet/internal/workload"
)

// BenchmarkBTreePrefill measures bench/'s kv_mixed prefill: a fresh 128 MB
// arena, a B-tree, and 100 000 YCSB keys with 100-byte values. The image goes
// back to pmem's free list between rounds, outside the timer.
func BenchmarkBTreePrefill(b *testing.B) {
	value := make([]byte, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := NewArena(128 << 20)
		e, err := OpenBTree(a)
		if err != nil {
			b.Fatal(err)
		}
		for k := 0; k < 100000; k++ {
			if err := e.Put(workload.YCSBKey(k), value); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		a.Device().Release()
		b.StartTimer()
	}
}
