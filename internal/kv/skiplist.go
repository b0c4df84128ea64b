package kv

import (
	"bytes"
	"fmt"

	"pmnet/internal/pmobj"
)

// Skiplist is an ordered skip list, the analogue of PMDK's skiplist_map
// example. Tower heights are derived deterministically from the key hash so
// the structure is identical across crash/replay runs.
//
// Root layout:
//
//	+0  tag | +8 count | +16 headOff
//
// Node layout (class 256):
//
//	+0  kOff | +8 kLen | +16 vOff | +24 vLen | +32 level | +40 next[level]
const (
	slTag      = 0
	slCount    = 8
	slHead     = 16
	slRootSize = 24

	snKOff  = 0
	snKLen  = 8
	snVOff  = 16
	snVLen  = 24
	snLevel = 32
	snNext  = 40

	slMaxLevel = 16
)

func slNodeSize(level int) int { return snNext + 8*level }

// Skiplist implements Engine.
type Skiplist struct {
	a    *pmobj.Arena
	root uint64
}

// OpenSkiplist opens or creates a skip list on a.
func OpenSkiplist(a *pmobj.Arena) (Engine, error) {
	if root := a.Root(); root != 0 {
		if err := checkTag(a, root, tagSkiplist, "skiplist"); err != nil {
			return nil, err
		}
		return &Skiplist{a: a, root: root}, nil
	}
	var root uint64
	err := a.Update(func(tx *pmobj.Tx) error {
		r, err := tx.Alloc(slRootSize)
		if err != nil {
			return err
		}
		head, err := tx.Alloc(slNodeSize(slMaxLevel))
		if err != nil {
			return err
		}
		tx.WriteBytes(head, make([]byte, slNodeSize(slMaxLevel)))
		tx.WriteU64(head+snLevel, slMaxLevel)
		tx.WriteU64(r+slTag, tagSkiplist)
		tx.WriteU64(r+slCount, 0)
		tx.WriteU64(r+slHead, head)
		tx.SetRoot(r)
		root = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Skiplist{a: a, root: root}, nil
}

// Name implements Engine.
func (s *Skiplist) Name() string { return "skiplist" }

// Len implements Engine.
func (s *Skiplist) Len() int { return int(s.a.ReadU64(s.root + slCount)) }

// levelFor derives the deterministic tower height of a key.
func levelFor(key []byte) int {
	h := fnv64(key)
	level := 1
	for h&1 == 1 && level < slMaxLevel {
		level++
		h >>= 1
	}
	return level
}

func (s *Skiplist) nodeKey(n uint64) []byte {
	return getString(s.a, s.a.ReadU64(n+snKOff), s.a.ReadU64(n+snKLen))
}

// cmpKey compares probe against node n's key, in place.
func (s *Skiplist) cmpKey(probe []byte, n uint64) int {
	return keyCompare(s.a, probe, s.a.ReadU64(n+snKOff), s.a.ReadU64(n+snKLen))
}

// findUpdate locates key, filling update[i] with the rightmost node at level
// i whose key precedes key. Returns the candidate node (successor at level
// 0) or 0.
func (s *Skiplist) findUpdate(key []byte, update *[slMaxLevel]uint64) uint64 {
	head := s.a.ReadU64(s.root + slHead)
	x := head
	for i := slMaxLevel - 1; i >= 0; i-- {
		for {
			next := s.a.ReadU64(x + snNext + uint64(i)*8)
			if next == 0 || s.cmpKey(key, next) <= 0 {
				break
			}
			x = next
		}
		update[i] = x
	}
	cand := s.a.ReadU64(x + snNext)
	if cand != 0 && s.cmpKey(key, cand) == 0 {
		return cand
	}
	return 0
}

// Put implements Engine.
func (s *Skiplist) Put(key, value []byte) error {
	var update [slMaxLevel]uint64
	node := s.findUpdate(key, &update)
	return s.a.Update(func(tx *pmobj.Tx) error {
		vOff, err := putString(tx, value)
		if err != nil {
			return err
		}
		if node != 0 {
			freeString(tx, s.a.ReadU64(node+snVOff), s.a.ReadU64(node+snVLen))
			tx.WriteU64(node+snVOff, vOff)
			tx.WriteU64(node+snVLen, uint64(len(value)))
			return nil
		}
		kOff, err := putString(tx, key)
		if err != nil {
			return err
		}
		level := levelFor(key)
		n, err := tx.Alloc(slNodeSize(level))
		if err != nil {
			return err
		}
		tx.WriteU64(n+snKOff, kOff)
		tx.WriteU64(n+snKLen, uint64(len(key)))
		tx.WriteU64(n+snVOff, vOff)
		tx.WriteU64(n+snVLen, uint64(len(value)))
		tx.WriteU64(n+snLevel, uint64(level))
		for i := 0; i < level; i++ {
			pred := update[i]
			succ := s.a.ReadU64(pred + snNext + uint64(i)*8)
			tx.WriteU64(n+snNext+uint64(i)*8, succ)
			tx.WriteU64(pred+snNext+uint64(i)*8, n)
		}
		tx.WriteU64(s.root+slCount, s.a.ReadU64(s.root+slCount)+1)
		return nil
	})
}

// Get implements Engine.
func (s *Skiplist) Get(key []byte) ([]byte, bool) { return owned(s.View(key)) }

// View implements Engine.
func (s *Skiplist) View(key []byte) ([]byte, bool) {
	var update [slMaxLevel]uint64
	node := s.findUpdate(key, &update)
	if node == 0 {
		return nil, false
	}
	return viewString(s.a, s.a.ReadU64(node+snVOff), s.a.ReadU64(node+snVLen)), true
}

// Delete implements Engine.
func (s *Skiplist) Delete(key []byte) (bool, error) {
	var update [slMaxLevel]uint64
	node := s.findUpdate(key, &update)
	if node == 0 {
		return false, nil
	}
	err := s.a.Update(func(tx *pmobj.Tx) error {
		level := int(s.a.ReadU64(node + snLevel))
		for i := 0; i < level; i++ {
			pred := update[i]
			if s.a.ReadU64(pred+snNext+uint64(i)*8) == node {
				tx.WriteU64(pred+snNext+uint64(i)*8, s.a.ReadU64(node+snNext+uint64(i)*8))
			}
		}
		freeString(tx, s.a.ReadU64(node+snKOff), s.a.ReadU64(node+snKLen))
		freeString(tx, s.a.ReadU64(node+snVOff), s.a.ReadU64(node+snVLen))
		tx.Free(node, slNodeSize(level))
		tx.WriteU64(s.root+slCount, s.a.ReadU64(s.root+slCount)-1)
		return nil
	})
	return err == nil, err
}

// Keys implements Engine (ascending order).
func (s *Skiplist) Keys() [][]byte {
	var out [][]byte
	head := s.a.ReadU64(s.root + slHead)
	for n := s.a.ReadU64(head + snNext); n != 0; n = s.a.ReadU64(n + snNext) {
		out = append(out, s.nodeKey(n))
	}
	return out
}

// Verify implements Engine: ascending level-0 order, count agreement, and
// tower consistency (every level-i list is a subsequence of level 0 in the
// same order).
func (s *Skiplist) Verify() error {
	head := s.a.ReadU64(s.root + slHead)
	var prev []byte
	count := 0
	pos := map[uint64]int{}
	for n := s.a.ReadU64(head + snNext); n != 0; n = s.a.ReadU64(n + snNext) {
		k := s.nodeKey(n)
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			return fmt.Errorf("skiplist: order violation at %q", k)
		}
		lvl := int(s.a.ReadU64(n + snLevel))
		if want := levelFor(k); lvl != want {
			return fmt.Errorf("skiplist: node %q level %d, want deterministic %d", k, lvl, want)
		}
		pos[n] = count
		prev = k
		count++
		if count > 1<<22 {
			return fmt.Errorf("skiplist: level-0 cycle")
		}
	}
	if count != s.Len() {
		return fmt.Errorf("skiplist: count %d, list holds %d", s.Len(), count)
	}
	for i := 1; i < slMaxLevel; i++ {
		last := -1
		for n := s.a.ReadU64(head + snNext + uint64(i)*8); n != 0; n = s.a.ReadU64(n + snNext + uint64(i)*8) {
			p, ok := pos[n]
			if !ok {
				return fmt.Errorf("skiplist: level %d references a node absent from level 0", i)
			}
			if p <= last {
				return fmt.Errorf("skiplist: level %d order violation", i)
			}
			if int(s.a.ReadU64(n+snLevel)) <= i {
				return fmt.Errorf("skiplist: node on level %d with height %d", i, s.a.ReadU64(n+snLevel))
			}
			last = p
		}
	}
	return nil
}
