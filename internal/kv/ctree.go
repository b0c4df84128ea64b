package kv

import (
	"encoding/binary"
	"fmt"

	"pmnet/internal/pmobj"
)

// CTree is a crit-bit (PATRICIA) tree, the analogue of PMDK's ctree_map
// example engine.
//
// Keys are stored internally with an 8-byte big-endian length prefix
// ("ikey"), which guarantees no stored key is a strict prefix of another —
// the classic crit-bit prefix hazard for variable-length binary keys.
//
// Root object: +0 tag | +8 count | +16 treeRoot (tagged pointer).
//
// Pointers into the tree carry a type tag in bit 0 (arena offsets are
// ≥16-byte aligned): 0 = leaf, 1 = internal.
//
// Leaf (32 B):     +0 ikOff | +8 ikLen | +16 vOff | +24 vLen
// Internal (32 B): +0 byteIdx | +8 otherBits | +16 child0 | +24 child1
const (
	ctTag      = 0
	ctCount    = 8
	ctRoot     = 16
	ctRootSize = 24

	clKOff = 0
	clKLen = 8
	clVOff = 16
	clVLen = 24
	clSize = 32

	ciByte  = 0
	ciBits  = 8
	ciChild = 16
	ciSize  = 32
)

func isInternal(p uint64) bool     { return p&1 == 1 }
func asInternal(off uint64) uint64 { return off | 1 }
func offOf(p uint64) uint64        { return p &^ 1 }

// CTree implements Engine.
type CTree struct {
	a    *pmobj.Arena
	root uint64
	ik   []byte // ikey scratch: the probe key of the operation in progress
}

// OpenCTree opens or creates a crit-bit tree on a.
func OpenCTree(a *pmobj.Arena) (Engine, error) {
	if root := a.Root(); root != 0 {
		if err := checkTag(a, root, tagCTree, "ctree"); err != nil {
			return nil, err
		}
		return &CTree{a: a, root: root}, nil
	}
	var root uint64
	err := a.Update(func(tx *pmobj.Tx) error {
		r, err := tx.Alloc(ctRootSize)
		if err != nil {
			return err
		}
		tx.WriteU64(r+ctTag, tagCTree)
		tx.WriteU64(r+ctCount, 0)
		tx.WriteU64(r+ctRoot, 0)
		tx.SetRoot(r)
		root = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &CTree{a: a, root: root}, nil
}

// Name implements Engine.
func (c *CTree) Name() string { return "ctree" }

// Len implements Engine.
func (c *CTree) Len() int { return int(c.a.ReadU64(c.root + ctCount)) }

func (c *CTree) ru(off uint64) uint64 { return c.a.TxReadU64(off) }

// ikey builds the length-prefixed internal key in the tree's scratch, valid
// until the next operation on the tree.
func (c *CTree) ikey(key []byte) []byte {
	c.ik = binary.BigEndian.AppendUint64(c.ik[:0], uint64(len(key)))
	c.ik = append(c.ik, key...)
	return c.ik
}

// leafKey views the leaf's stored ikey in place (see viewString).
func (c *CTree) leafKey(leaf uint64) []byte {
	return viewString(c.a, c.ru(leaf+clKOff), c.ru(leaf+clKLen))
}

// byteAt returns ik[idx] or 0 beyond the end.
func byteAt(ik []byte, idx uint64) byte {
	if idx < uint64(len(ik)) {
		return ik[idx]
	}
	return 0
}

// direction picks the child for ik at an internal node with (byteIdx,
// otherBits): 1 when the crit bit is set.
func direction(ik []byte, byteIdx, otherBits uint64) int {
	cb := byteAt(ik, byteIdx)
	return int((1 + (otherBits | uint64(cb))) >> 8)
}

// walkToLeaf descends from the (tagged) root pointer to the best-matching
// leaf, returning its tagged pointer (0 when the tree is empty).
func (c *CTree) walkToLeaf(ik []byte) uint64 {
	p := c.ru(c.root + ctRoot)
	if p == 0 {
		return 0
	}
	for isInternal(p) {
		n := offOf(p)
		d := direction(ik, c.ru(n+ciByte), c.ru(n+ciBits))
		p = c.ru(n + ciChild + uint64(d)*8)
	}
	return p
}

// Get implements Engine.
func (c *CTree) Get(key []byte) ([]byte, bool) { return owned(c.View(key)) }

// View implements Engine.
func (c *CTree) View(key []byte) ([]byte, bool) {
	ik := c.ikey(key)
	p := c.walkToLeaf(ik)
	if p == 0 {
		return nil, false
	}
	leaf := offOf(p)
	if string(c.leafKey(leaf)) != string(ik) {
		return nil, false
	}
	return viewString(c.a, c.ru(leaf+clVOff), c.ru(leaf+clVLen)), true
}

// Put implements Engine.
func (c *CTree) Put(key, value []byte) error {
	ik := c.ikey(key)
	return c.a.Update(func(tx *pmobj.Tx) error {
		vOff, err := putString(tx, value)
		if err != nil {
			return err
		}
		best := c.walkToLeaf(ik)
		if best == 0 {
			// Empty tree: a single leaf.
			leaf, err := c.newLeaf(tx, ik, vOff, uint64(len(value)))
			if err != nil {
				return err
			}
			tx.WriteU64(c.root+ctRoot, leaf)
			tx.WriteU64(c.root+ctCount, 1)
			return nil
		}
		bk := c.leafKey(offOf(best))
		// Find the first differing byte between ik and bk.
		var diffByte uint64
		var diffBits uint64
		found := false
		maxLen := len(ik)
		if len(bk) > maxLen {
			maxLen = len(bk)
		}
		for i := 0; i < maxLen; i++ {
			a, b := byteAt(ik, uint64(i)), byteAt(bk, uint64(i))
			if a != b {
				diffByte = uint64(i)
				x := uint64(a ^ b)
				// Isolate the most significant differing bit.
				x |= x >> 1
				x |= x >> 2
				x |= x >> 4
				crit := x &^ (x >> 1)
				diffBits = ^crit & 0xFF // djb's "otherbits"
				found = true
				break
			}
		}
		if !found {
			// Same key: overwrite value.
			leaf := offOf(best)
			freeString(tx, c.ru(leaf+clVOff), c.ru(leaf+clVLen))
			tx.WriteU64(leaf+clVOff, vOff)
			tx.WriteU64(leaf+clVLen, uint64(len(value)))
			return nil
		}
		newDir := direction(ik, diffByte, diffBits)

		// Insert point: walk from the root until the node's position
		// exceeds (diffByte, diffBits) in crit-bit order.
		where := c.root + ctRoot // address of the pointer to rewrite
		for {
			p := c.ru(where)
			if !isInternal(p) {
				break
			}
			n := offOf(p)
			nb, nbits := c.ru(n+ciByte), c.ru(n+ciBits)
			if nb > diffByte || (nb == diffByte && nbits > diffBits) {
				break
			}
			d := direction(ik, nb, nbits)
			where = n + ciChild + uint64(d)*8
		}

		leaf, err := c.newLeaf(tx, ik, vOff, uint64(len(value)))
		if err != nil {
			return err
		}
		inner, err := tx.Alloc(ciSize)
		if err != nil {
			return err
		}
		tx.WriteU64(inner+ciByte, diffByte)
		tx.WriteU64(inner+ciBits, diffBits)
		tx.WriteU64(inner+ciChild+uint64(newDir)*8, leaf)
		tx.WriteU64(inner+ciChild+uint64(1-newDir)*8, c.ru(where))
		tx.WriteU64(where, asInternal(inner))
		tx.WriteU64(c.root+ctCount, c.ru(c.root+ctCount)+1)
		return nil
	})
}

func (c *CTree) newLeaf(tx *pmobj.Tx, ik []byte, vOff, vLen uint64) (uint64, error) {
	kOff, err := putString(tx, ik)
	if err != nil {
		return 0, err
	}
	leaf, err := tx.Alloc(clSize)
	if err != nil {
		return 0, err
	}
	tx.WriteU64(leaf+clKOff, kOff)
	tx.WriteU64(leaf+clKLen, uint64(len(ik)))
	tx.WriteU64(leaf+clVOff, vOff)
	tx.WriteU64(leaf+clVLen, vLen)
	return leaf, nil // leaves are untagged (bit 0 clear)
}

// Delete implements Engine.
func (c *CTree) Delete(key []byte) (bool, error) {
	ik := c.ikey(key)
	p := c.a.ReadU64(c.root + ctRoot)
	if p == 0 {
		return false, nil
	}
	// Track the pointer to the current node and the enclosing internal node
	// (whose OTHER child survives the unlink).
	where := c.root + ctRoot
	var parent uint64 // internal node offset, 0 at the root
	var parentDir int
	for isInternal(p) {
		n := offOf(p)
		d := direction(ik, c.ru(n+ciByte), c.ru(n+ciBits))
		parent, parentDir = n, d
		where = n + ciChild + uint64(d)*8
		p = c.ru(where)
	}
	leaf := offOf(p)
	if string(c.leafKey(leaf)) != string(ik) {
		return false, nil
	}
	_ = where
	err := c.a.Update(func(tx *pmobj.Tx) error {
		freeString(tx, c.ru(leaf+clKOff), c.ru(leaf+clKLen))
		freeString(tx, c.ru(leaf+clVOff), c.ru(leaf+clVLen))
		tx.Free(leaf, clSize)
		if parent == 0 {
			tx.WriteU64(c.root+ctRoot, 0)
		} else {
			sibling := c.ru(parent + ciChild + uint64(1-parentDir)*8)
			// Find the pointer to `parent` to replace it with the sibling.
			gwhere := c.root + ctRoot
			q := c.ru(gwhere)
			for offOf(q) != parent {
				n := offOf(q)
				d := direction(ik, c.ru(n+ciByte), c.ru(n+ciBits))
				gwhere = n + ciChild + uint64(d)*8
				q = c.ru(gwhere)
			}
			tx.WriteU64(gwhere, sibling)
			tx.Free(parent, ciSize)
		}
		tx.WriteU64(c.root+ctCount, c.ru(c.root+ctCount)-1)
		return nil
	})
	return err == nil, err
}

// Keys implements Engine. Crit-bit order over ikeys sorts first by length,
// then lexicographically.
func (c *CTree) Keys() [][]byte {
	var out [][]byte
	var walk func(p uint64)
	walk = func(p uint64) {
		if p == 0 {
			return
		}
		if isInternal(p) {
			n := offOf(p)
			walk(c.ru(n + ciChild))
			walk(c.ru(n + ciChild + 8))
			return
		}
		leaf := offOf(p)
		ik := getString(c.a, c.ru(leaf+clKOff), c.ru(leaf+clKLen))
		out = append(out, ik[8:])
	}
	walk(c.a.ReadU64(c.root + ctRoot))
	return out
}

// Verify implements Engine: crit-bit positions strictly increase downward,
// every leaf is reachable via the directions its own key dictates, and the
// count agrees.
func (c *CTree) Verify() error {
	count := 0
	var walk func(p uint64, minByte, minBits uint64, has bool) error
	walk = func(p uint64, minByte, minBits uint64, has bool) error {
		if p == 0 {
			return nil
		}
		if !isInternal(p) {
			count++
			return nil
		}
		n := offOf(p)
		nb, nbits := c.ru(n+ciByte), c.ru(n+ciBits)
		if has && (nb < minByte || (nb == minByte && nbits <= minBits)) {
			return fmt.Errorf("ctree: crit-bit order violation at byte %d", nb)
		}
		if err := walk(c.ru(n+ciChild), nb, nbits, true); err != nil {
			return err
		}
		return walk(c.ru(n+ciChild+8), nb, nbits, true)
	}
	if err := walk(c.a.ReadU64(c.root+ctRoot), 0, 0, false); err != nil {
		return err
	}
	if count != c.Len() {
		return fmt.Errorf("ctree: count %d, tree holds %d", c.Len(), count)
	}
	// Every key must be findable through its own directions.
	for _, k := range c.Keys() {
		if _, ok := c.Get(k); !ok {
			return fmt.Errorf("ctree: key %q unreachable via lookup", k)
		}
	}
	return nil
}
