package kv

import (
	"fmt"

	"pmnet/internal/pmobj"
)

// Hashmap is a chained hash table, the analogue of PMDK's hashmap_atomic
// example engine.
//
// Root layout:
//
//	+0  tag
//	+8  count
//	+16 nBuckets
//	+24 bucketsOff — array of nBuckets u64 chain heads
//
// Entry layout (64-byte class):
//
//	+0  next
//	+8  hash
//	+16 kOff | +24 kLen | +32 vOff | +40 vLen
const (
	hmTag      = 0
	hmCount    = 8
	hmNBuckets = 16
	hmBuckets  = 24
	hmRootSize = 32

	heNext = 0
	heHash = 8
	heKOff = 16
	heKLen = 24
	heVOff = 32
	heVLen = 40
	heSize = 48
)

// hashmapBuckets is the fixed bucket count (the PMDK example also uses a
// fixed table; growth is out of scope for the workload engines).
const hashmapBuckets = 4096

// Hashmap implements Engine.
type Hashmap struct {
	a    *pmobj.Arena
	root uint64
}

// OpenHashmap opens or creates a hashmap on a.
func OpenHashmap(a *pmobj.Arena) (Engine, error) {
	if root := a.Root(); root != 0 {
		if err := checkTag(a, root, tagHashmap, "hashmap"); err != nil {
			return nil, err
		}
		return &Hashmap{a: a, root: root}, nil
	}
	var root uint64
	err := a.Update(func(tx *pmobj.Tx) error {
		r, err := tx.Alloc(hmRootSize)
		if err != nil {
			return err
		}
		buckets, err := tx.Alloc(hashmapBuckets * 8)
		if err != nil {
			return err
		}
		zero := make([]byte, hashmapBuckets*8)
		tx.WriteBytes(buckets, zero)
		tx.WriteU64(r+hmTag, tagHashmap)
		tx.WriteU64(r+hmCount, 0)
		tx.WriteU64(r+hmNBuckets, hashmapBuckets)
		tx.WriteU64(r+hmBuckets, buckets)
		tx.SetRoot(r)
		root = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Hashmap{a: a, root: root}, nil
}

// Name implements Engine.
func (h *Hashmap) Name() string { return "hashmap" }

// Len implements Engine.
func (h *Hashmap) Len() int { return int(h.a.ReadU64(h.root + hmCount)) }

func (h *Hashmap) bucketOff(hash uint64) uint64 {
	n := h.a.ReadU64(h.root + hmNBuckets)
	arr := h.a.ReadU64(h.root + hmBuckets)
	return arr + (hash%n)*8
}

// findEntry returns (entryOff, prevOff) where prevOff is the address of the
// pointer that references the entry (bucket slot or predecessor's next).
func (h *Hashmap) findEntry(key []byte) (entry, prevPtr uint64) {
	hash := fnv64(key)
	ptr := h.bucketOff(hash)
	for {
		e := h.a.ReadU64(ptr)
		if e == 0 {
			return 0, ptr
		}
		if h.a.ReadU64(e+heHash) == hash &&
			keyCompare(h.a, key, h.a.ReadU64(e+heKOff), h.a.ReadU64(e+heKLen)) == 0 {
			return e, ptr
		}
		ptr = e + heNext
	}
}

// Put implements Engine.
func (h *Hashmap) Put(key, value []byte) error {
	entry, ptr := h.findEntry(key)
	return h.a.Update(func(tx *pmobj.Tx) error {
		vOff, err := putString(tx, value)
		if err != nil {
			return err
		}
		if entry != 0 {
			// Overwrite: swap the value block.
			freeString(tx, h.a.ReadU64(entry+heVOff), h.a.ReadU64(entry+heVLen))
			tx.WriteU64(entry+heVOff, vOff)
			tx.WriteU64(entry+heVLen, uint64(len(value)))
			return nil
		}
		kOff, err := putString(tx, key)
		if err != nil {
			return err
		}
		e, err := tx.Alloc(heSize)
		if err != nil {
			return err
		}
		_ = ptr // the miss position is irrelevant: we push at the head
		bucket := h.bucketOff(fnv64(key))
		tx.WriteU64(e+heNext, h.a.ReadU64(bucket))
		tx.WriteU64(e+heHash, fnv64(key))
		tx.WriteU64(e+heKOff, kOff)
		tx.WriteU64(e+heKLen, uint64(len(key)))
		tx.WriteU64(e+heVOff, vOff)
		tx.WriteU64(e+heVLen, uint64(len(value)))
		tx.WriteU64(bucket, e)
		tx.WriteU64(h.root+hmCount, h.a.ReadU64(h.root+hmCount)+1)
		return nil
	})
}

// Get implements Engine.
func (h *Hashmap) Get(key []byte) ([]byte, bool) { return owned(h.View(key)) }

// View implements Engine.
func (h *Hashmap) View(key []byte) ([]byte, bool) {
	e, _ := h.findEntry(key)
	if e == 0 {
		return nil, false
	}
	return viewString(h.a, h.a.ReadU64(e+heVOff), h.a.ReadU64(e+heVLen)), true
}

// Delete implements Engine.
func (h *Hashmap) Delete(key []byte) (bool, error) {
	e, ptr := h.findEntry(key)
	if e == 0 {
		return false, nil
	}
	err := h.a.Update(func(tx *pmobj.Tx) error {
		tx.WriteU64(ptr, h.a.ReadU64(e+heNext))
		freeString(tx, h.a.ReadU64(e+heKOff), h.a.ReadU64(e+heKLen))
		freeString(tx, h.a.ReadU64(e+heVOff), h.a.ReadU64(e+heVLen))
		tx.Free(e, heSize)
		tx.WriteU64(h.root+hmCount, h.a.ReadU64(h.root+hmCount)-1)
		return nil
	})
	return err == nil, err
}

// Keys implements Engine (unordered).
func (h *Hashmap) Keys() [][]byte {
	var out [][]byte
	n := h.a.ReadU64(h.root + hmNBuckets)
	arr := h.a.ReadU64(h.root + hmBuckets)
	for b := uint64(0); b < n; b++ {
		for e := h.a.ReadU64(arr + b*8); e != 0; e = h.a.ReadU64(e + heNext) {
			out = append(out, getString(h.a, h.a.ReadU64(e+heKOff), h.a.ReadU64(e+heKLen)))
		}
	}
	return out
}

// Verify implements Engine: every entry hangs in the bucket its hash selects
// and the counts agree.
func (h *Hashmap) Verify() error {
	n := h.a.ReadU64(h.root + hmNBuckets)
	arr := h.a.ReadU64(h.root + hmBuckets)
	var total uint64
	for b := uint64(0); b < n; b++ {
		seen := 0
		for e := h.a.ReadU64(arr + b*8); e != 0; e = h.a.ReadU64(e + heNext) {
			hash := h.a.ReadU64(e + heHash)
			key := getString(h.a, h.a.ReadU64(e+heKOff), h.a.ReadU64(e+heKLen))
			if fnv64(key) != hash {
				return fmt.Errorf("hashmap: stored hash mismatch for %q", key)
			}
			if hash%n != b {
				return fmt.Errorf("hashmap: entry %q in bucket %d, want %d", key, b, hash%n)
			}
			total++
			if seen++; seen > 1<<20 {
				return fmt.Errorf("hashmap: chain cycle in bucket %d", b)
			}
		}
	}
	if total != h.a.ReadU64(h.root+hmCount) {
		return fmt.Errorf("hashmap: count %d, chains hold %d", h.a.ReadU64(h.root+hmCount), total)
	}
	return nil
}
