// Package kv implements the five persistent index structures used by the
// paper's PMDK workloads (§VI-A2): B-Tree, C-Tree (crit-bit), RB-Tree,
// Hashmap and Skip list — each built from scratch on the pmobj persistent
// arena with crash-atomic updates, exactly the role libpmemobj's example
// engines play on the paper's server.
package kv

import (
	"bytes"
	"errors"
	"fmt"

	"pmnet/internal/pmem"
	"pmnet/internal/pmobj"
)

// Engine is the common interface of all five index structures.
type Engine interface {
	// Name identifies the engine ("btree", "ctree", "rbtree", "hashmap",
	// "skiplist").
	Name() string
	// Put inserts or overwrites key → value, crash-atomically.
	Put(key, value []byte) error
	// Get returns the value for key, in bytes the caller owns.
	Get(key []byte) ([]byte, bool)
	// View is Get without the copy: the same lookup and the same device
	// reads, but the value is the arena's own bytes, valid until the arena
	// is next written (see pmobj.Arena.View). For a caller that encodes or
	// compares the value before it touches the store again.
	View(key []byte) ([]byte, bool)
	// Delete removes key, reporting whether it existed.
	Delete(key []byte) (bool, error)
	// Len returns the number of live keys.
	Len() int
	// Keys returns every live key (sorted for ordered engines).
	Keys() [][]byte
	// Verify checks the structure's invariants, returning the first
	// violation found.
	Verify() error
}

// Factory opens (or creates) an engine on an arena.
type Factory func(a *pmobj.Arena) (Engine, error)

// Factories maps engine names to constructors — the workload table of
// §VI-A2.
var Factories = map[string]Factory{
	"hashmap":  OpenHashmap,
	"skiplist": OpenSkiplist,
	"btree":    OpenBTree,
	"rbtree":   OpenRBTree,
	"ctree":    OpenCTree,
}

// EngineNames lists the engines in the paper's presentation order.
var EngineNames = []string{"btree", "ctree", "rbtree", "hashmap", "skiplist"}

// ErrWrongEngine is returned when an arena holds a different engine's root.
var ErrWrongEngine = errors.New("kv: arena holds a different engine")

// NewArena is a convenience: a fresh arena on a simulated PM device of the
// given capacity.
func NewArena(capacity int) *pmobj.Arena {
	dev := pmem.NewDevice(pmem.DefaultConfig(capacity))
	a, err := pmobj.Open(dev, 0)
	if err != nil {
		panic(err)
	}
	return a
}

// Engine root tags.
const (
	tagHashmap uint64 = 0x484D4150 + iota // arbitrary distinct tags
	tagSkiplist
	tagBTree
	tagRBTree
	tagCTree
)

// checkTag validates an existing root's engine tag.
func checkTag(a *pmobj.Arena, root, want uint64, name string) error {
	if got := a.ReadU64(root); got != want {
		return fmt.Errorf("%w: want %s", ErrWrongEngine, name)
	}
	return nil
}

// byte-string helpers ------------------------------------------------------

// putString allocates a block holding s and returns (offset, requested len).
func putString(tx *pmobj.Tx, s []byte) (uint64, error) {
	if len(s) == 0 {
		// Zero-length strings still need a distinct non-zero offset; a
		// 1-byte block serves as the sentinel.
		return tx.Alloc(1)
	}
	off, err := tx.Alloc(len(s))
	if err != nil {
		return 0, err
	}
	tx.WriteBytes(off, s)
	return off, nil
}

// getString reads a stored string into bytes the caller owns: what Keys and
// Scan hand out, which must survive the block being freed and reused.
func getString(a *pmobj.Arena, off, n uint64) []byte {
	if n == 0 {
		return []byte{}
	}
	return a.ReadBytes(off, int(n))
}

// viewString is getString without the copy, for a string that is compared
// and dropped before the arena is next written (see pmobj.Arena.View): what
// every key comparison and every engine's View use.
func viewString(a *pmobj.Arena, off, n uint64) []byte {
	if n == 0 {
		return nil
	}
	return a.View(off, int(n))
}

// owned is every engine's Get in terms of its View: the viewed value copied
// into bytes the caller owns, which survive the block being freed and reused.
func owned(v []byte, ok bool) ([]byte, bool) {
	if !ok {
		return nil, false
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out, true
}

func freeString(tx *pmobj.Tx, off, n uint64) {
	if n == 0 {
		n = 1
	}
	tx.Free(off, int(n))
}

// keyCompare compares a probe key against a stored key.
func keyCompare(a *pmobj.Arena, probe []byte, kOff, kLen uint64) int {
	return bytes.Compare(probe, viewString(a, kOff, kLen))
}

// fnv64 hashes a key (used by hashmap bucketing and skiplist heights).
func fnv64(b []byte) uint64 {
	var h uint64 = 1469598103934665603
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}
