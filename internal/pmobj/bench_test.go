package pmobj

import (
	"testing"

	"pmnet/internal/pmem"
)

// BenchmarkCommit measures one Put-sized transaction: the two blocks the last
// round allocated go back on their free lists and come straight off them
// again, then a 100-byte value, a 12-byte key and six item and count words
// are stored — thirteen redo ops with the folded bump pointer and the two
// list heads.
func BenchmarkCommit(b *testing.B) {
	a, err := Open(pmem.NewDevice(pmem.DefaultConfig(1<<20)), 0)
	if err != nil {
		b.Fatal(err)
	}
	value, key := make([]byte, 100), []byte("user00004217")
	var val, k uint64
	round := func(tx *Tx) error {
		if val != 0 {
			tx.Free(val, len(value))
			tx.Free(k, len(key))
		}
		if val, err = tx.Alloc(len(value)); err != nil {
			return err
		}
		if k, err = tx.Alloc(len(key)); err != nil {
			return err
		}
		tx.WriteBytes(val, value)
		tx.WriteBytes(k, key)
		for i := uint64(0); i < 6; i++ {
			tx.WriteU64(4096+8*i, i)
		}
		return nil
	}
	if err := a.Update(round); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Update(round); err != nil {
			b.Fatal(err)
		}
	}
}
