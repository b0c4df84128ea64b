package kv

import (
	"bytes"
	"fmt"

	"pmnet/internal/pmobj"
)

// RBTree is a CLRS red-black tree with a real sentinel node, the analogue
// of PMDK's rbtree_map example engine.
//
// Root object: +0 tag | +8 count | +16 treeRoot | +24 nil sentinel.
//
// Node (64 B):
//
//	+0 kOff | +8 kLen | +16 vOff | +24 vLen
//	+32 left | +40 right | +48 parent | +56 color (0 black, 1 red)
const (
	rbTag      = 0
	rbCount    = 8
	rbRoot     = 16
	rbNil      = 24
	rbRootSize = 32

	rnKOff   = 0
	rnKLen   = 8
	rnVOff   = 16
	rnVLen   = 24
	rnLeft   = 32
	rnRight  = 40
	rnParent = 48
	rnColor  = 56
	rnSize   = 64

	black = 0
	red   = 1
)

// RBTree implements Engine.
type RBTree struct {
	a    *pmobj.Arena
	root uint64
}

// OpenRBTree opens or creates a red-black tree on a.
func OpenRBTree(a *pmobj.Arena) (Engine, error) {
	if root := a.Root(); root != 0 {
		if err := checkTag(a, root, tagRBTree, "rbtree"); err != nil {
			return nil, err
		}
		return &RBTree{a: a, root: root}, nil
	}
	var root uint64
	err := a.Update(func(tx *pmobj.Tx) error {
		r, err := tx.Alloc(rbRootSize)
		if err != nil {
			return err
		}
		nilNode, err := tx.Alloc(rnSize)
		if err != nil {
			return err
		}
		tx.WriteBytes(nilNode, make([]byte, rnSize)) // black, zero links
		tx.WriteU64(r+rbTag, tagRBTree)
		tx.WriteU64(r+rbCount, 0)
		tx.WriteU64(r+rbRoot, nilNode)
		tx.WriteU64(r+rbNil, nilNode)
		tx.SetRoot(r)
		root = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &RBTree{a: a, root: root}, nil
}

// Name implements Engine.
func (t *RBTree) Name() string { return "rbtree" }

// Len implements Engine.
func (t *RBTree) Len() int { return int(t.a.ReadU64(t.root + rbCount)) }

func (t *RBTree) ru(off uint64) uint64 { return t.a.TxReadU64(off) }

func (t *RBTree) nilNode() uint64  { return t.a.ReadU64(t.root + rbNil) }
func (t *RBTree) treeRoot() uint64 { return t.ru(t.root + rbRoot) }

func (t *RBTree) left(n uint64) uint64   { return t.ru(n + rnLeft) }
func (t *RBTree) right(n uint64) uint64  { return t.ru(n + rnRight) }
func (t *RBTree) parent(n uint64) uint64 { return t.ru(n + rnParent) }
func (t *RBTree) color(n uint64) uint64  { return t.ru(n + rnColor) }

func (t *RBTree) nodeKey(n uint64) []byte {
	return getString(t.a, t.ru(n+rnKOff), t.ru(n+rnKLen))
}

// cmpKey compares probe against node n's key, in place.
func (t *RBTree) cmpKey(probe []byte, n uint64) int {
	return keyCompare(t.a, probe, t.ru(n+rnKOff), t.ru(n+rnKLen))
}

// find returns the node holding key, or the sentinel.
func (t *RBTree) find(key []byte) uint64 {
	nilN := t.nilNode()
	n := t.treeRoot()
	for n != nilN {
		c := t.cmpKey(key, n)
		switch {
		case c == 0:
			return n
		case c < 0:
			n = t.left(n)
		default:
			n = t.right(n)
		}
	}
	return nilN
}

// Get implements Engine.
func (t *RBTree) Get(key []byte) ([]byte, bool) { return owned(t.View(key)) }

// View implements Engine.
func (t *RBTree) View(key []byte) ([]byte, bool) {
	n := t.find(key)
	if n == t.nilNode() {
		return nil, false
	}
	return viewString(t.a, t.ru(n+rnVOff), t.ru(n+rnVLen)), true
}

// rotations ----------------------------------------------------------------

func (t *RBTree) rotateLeft(tx *pmobj.Tx, x uint64) {
	nilN := t.nilNode()
	y := t.right(x)
	tx.WriteU64(x+rnRight, t.left(y))
	if t.left(y) != nilN {
		tx.WriteU64(t.left(y)+rnParent, x)
	}
	tx.WriteU64(y+rnParent, t.parent(x))
	switch {
	case t.parent(x) == nilN:
		tx.WriteU64(t.root+rbRoot, y)
	case x == t.left(t.parent(x)):
		tx.WriteU64(t.parent(x)+rnLeft, y)
	default:
		tx.WriteU64(t.parent(x)+rnRight, y)
	}
	tx.WriteU64(y+rnLeft, x)
	tx.WriteU64(x+rnParent, y)
}

func (t *RBTree) rotateRight(tx *pmobj.Tx, x uint64) {
	nilN := t.nilNode()
	y := t.left(x)
	tx.WriteU64(x+rnLeft, t.right(y))
	if t.right(y) != nilN {
		tx.WriteU64(t.right(y)+rnParent, x)
	}
	tx.WriteU64(y+rnParent, t.parent(x))
	switch {
	case t.parent(x) == nilN:
		tx.WriteU64(t.root+rbRoot, y)
	case x == t.left(t.parent(x)):
		tx.WriteU64(t.parent(x)+rnLeft, y)
	default:
		tx.WriteU64(t.parent(x)+rnRight, y)
	}
	tx.WriteU64(y+rnRight, x)
	tx.WriteU64(x+rnParent, y)
}

// Put implements Engine.
func (t *RBTree) Put(key, value []byte) error {
	return t.a.Update(func(tx *pmobj.Tx) error {
		vOff, err := putString(tx, value)
		if err != nil {
			return err
		}
		nilN := t.nilNode()
		// BST descent.
		y := nilN
		x := t.treeRoot()
		for x != nilN {
			y = x
			c := t.cmpKey(key, x)
			if c == 0 {
				freeString(tx, t.ru(x+rnVOff), t.ru(x+rnVLen))
				tx.WriteU64(x+rnVOff, vOff)
				tx.WriteU64(x+rnVLen, uint64(len(value)))
				return nil
			}
			if c < 0 {
				x = t.left(x)
			} else {
				x = t.right(x)
			}
		}
		kOff, err := putString(tx, key)
		if err != nil {
			return err
		}
		z, err := tx.Alloc(rnSize)
		if err != nil {
			return err
		}
		tx.WriteU64(z+rnKOff, kOff)
		tx.WriteU64(z+rnKLen, uint64(len(key)))
		tx.WriteU64(z+rnVOff, vOff)
		tx.WriteU64(z+rnVLen, uint64(len(value)))
		tx.WriteU64(z+rnLeft, nilN)
		tx.WriteU64(z+rnRight, nilN)
		tx.WriteU64(z+rnParent, y)
		tx.WriteU64(z+rnColor, red)
		switch {
		case y == nilN:
			tx.WriteU64(t.root+rbRoot, z)
		case t.cmpKey(key, y) < 0:
			tx.WriteU64(y+rnLeft, z)
		default:
			tx.WriteU64(y+rnRight, z)
		}
		t.insertFixup(tx, z)
		tx.WriteU64(t.root+rbCount, t.ru(t.root+rbCount)+1)
		return nil
	})
}

func (t *RBTree) insertFixup(tx *pmobj.Tx, z uint64) {
	for t.color(t.parent(z)) == red {
		gp := t.parent(t.parent(z))
		if t.parent(z) == t.left(gp) {
			y := t.right(gp)
			if t.color(y) == red {
				tx.WriteU64(t.parent(z)+rnColor, black)
				tx.WriteU64(y+rnColor, black)
				tx.WriteU64(gp+rnColor, red)
				z = gp
				continue
			}
			if z == t.right(t.parent(z)) {
				z = t.parent(z)
				t.rotateLeft(tx, z)
			}
			tx.WriteU64(t.parent(z)+rnColor, black)
			tx.WriteU64(t.parent(t.parent(z))+rnColor, red)
			t.rotateRight(tx, t.parent(t.parent(z)))
		} else {
			y := t.left(gp)
			if t.color(y) == red {
				tx.WriteU64(t.parent(z)+rnColor, black)
				tx.WriteU64(y+rnColor, black)
				tx.WriteU64(gp+rnColor, red)
				z = gp
				continue
			}
			if z == t.left(t.parent(z)) {
				z = t.parent(z)
				t.rotateRight(tx, z)
			}
			tx.WriteU64(t.parent(z)+rnColor, black)
			tx.WriteU64(t.parent(t.parent(z))+rnColor, red)
			t.rotateLeft(tx, t.parent(t.parent(z)))
		}
	}
	tx.WriteU64(t.treeRoot()+rnColor, black)
}

func (t *RBTree) minimum(n uint64) uint64 {
	nilN := t.nilNode()
	for t.left(n) != nilN {
		n = t.left(n)
	}
	return n
}

func (t *RBTree) transplant(tx *pmobj.Tx, u, v uint64) {
	nilN := t.nilNode()
	switch {
	case t.parent(u) == nilN:
		tx.WriteU64(t.root+rbRoot, v)
	case u == t.left(t.parent(u)):
		tx.WriteU64(t.parent(u)+rnLeft, v)
	default:
		tx.WriteU64(t.parent(u)+rnRight, v)
	}
	tx.WriteU64(v+rnParent, t.parent(u))
}

// Delete implements Engine.
func (t *RBTree) Delete(key []byte) (bool, error) {
	z := t.find(key)
	if z == t.nilNode() {
		return false, nil
	}
	err := t.a.Update(func(tx *pmobj.Tx) error {
		nilN := t.nilNode()
		y := z
		yColor := t.color(y)
		var x uint64
		switch {
		case t.left(z) == nilN:
			x = t.right(z)
			t.transplant(tx, z, x)
		case t.right(z) == nilN:
			x = t.left(z)
			t.transplant(tx, z, x)
		default:
			y = t.minimum(t.right(z))
			yColor = t.color(y)
			x = t.right(y)
			if t.parent(y) == z {
				tx.WriteU64(x+rnParent, y)
			} else {
				t.transplant(tx, y, x)
				tx.WriteU64(y+rnRight, t.right(z))
				tx.WriteU64(t.right(z)+rnParent, y)
			}
			t.transplant(tx, z, y)
			tx.WriteU64(y+rnLeft, t.left(z))
			tx.WriteU64(t.left(z)+rnParent, y)
			tx.WriteU64(y+rnColor, t.color(z))
		}
		if yColor == black {
			t.deleteFixup(tx, x)
		}
		freeString(tx, t.ru(z+rnKOff), t.ru(z+rnKLen))
		freeString(tx, t.ru(z+rnVOff), t.ru(z+rnVLen))
		tx.Free(z, rnSize)
		tx.WriteU64(t.root+rbCount, t.ru(t.root+rbCount)-1)
		return nil
	})
	return err == nil, err
}

func (t *RBTree) deleteFixup(tx *pmobj.Tx, x uint64) {
	for x != t.treeRoot() && t.color(x) == black {
		if x == t.left(t.parent(x)) {
			w := t.right(t.parent(x))
			if t.color(w) == red {
				tx.WriteU64(w+rnColor, black)
				tx.WriteU64(t.parent(x)+rnColor, red)
				t.rotateLeft(tx, t.parent(x))
				w = t.right(t.parent(x))
			}
			if t.color(t.left(w)) == black && t.color(t.right(w)) == black {
				tx.WriteU64(w+rnColor, red)
				x = t.parent(x)
			} else {
				if t.color(t.right(w)) == black {
					tx.WriteU64(t.left(w)+rnColor, black)
					tx.WriteU64(w+rnColor, red)
					t.rotateRight(tx, w)
					w = t.right(t.parent(x))
				}
				tx.WriteU64(w+rnColor, t.color(t.parent(x)))
				tx.WriteU64(t.parent(x)+rnColor, black)
				tx.WriteU64(t.right(w)+rnColor, black)
				t.rotateLeft(tx, t.parent(x))
				x = t.treeRoot()
			}
		} else {
			w := t.left(t.parent(x))
			if t.color(w) == red {
				tx.WriteU64(w+rnColor, black)
				tx.WriteU64(t.parent(x)+rnColor, red)
				t.rotateRight(tx, t.parent(x))
				w = t.left(t.parent(x))
			}
			if t.color(t.right(w)) == black && t.color(t.left(w)) == black {
				tx.WriteU64(w+rnColor, red)
				x = t.parent(x)
			} else {
				if t.color(t.left(w)) == black {
					tx.WriteU64(t.right(w)+rnColor, black)
					tx.WriteU64(w+rnColor, red)
					t.rotateLeft(tx, w)
					w = t.left(t.parent(x))
				}
				tx.WriteU64(w+rnColor, t.color(t.parent(x)))
				tx.WriteU64(t.parent(x)+rnColor, black)
				tx.WriteU64(t.left(w)+rnColor, black)
				t.rotateRight(tx, t.parent(x))
				x = t.treeRoot()
			}
		}
	}
	tx.WriteU64(x+rnColor, black)
}

// Keys implements Engine (ascending in-order walk).
func (t *RBTree) Keys() [][]byte {
	var out [][]byte
	nilN := t.nilNode()
	var walk func(n uint64)
	walk = func(n uint64) {
		if n == nilN {
			return
		}
		walk(t.left(n))
		out = append(out, t.nodeKey(n))
		walk(t.right(n))
	}
	walk(t.a.ReadU64(t.root + rbRoot))
	return out
}

// Verify implements Engine: BST order, red nodes have black children, equal
// black height on every path, black root, and count agreement.
func (t *RBTree) Verify() error {
	nilN := t.nilNode()
	rootNode := t.a.ReadU64(t.root + rbRoot)
	if rootNode != nilN && t.color(rootNode) != black {
		return fmt.Errorf("rbtree: red root")
	}
	if t.color(nilN) != black {
		return fmt.Errorf("rbtree: red sentinel")
	}
	count := 0
	var prev []byte
	var walk func(n uint64) (int, error) // black height
	walk = func(n uint64) (int, error) {
		if n == nilN {
			return 1, nil
		}
		if t.color(n) == red {
			if t.color(t.left(n)) == red || t.color(t.right(n)) == red {
				return 0, fmt.Errorf("rbtree: red node %q with red child", t.nodeKey(n))
			}
		}
		lh, err := walk(t.left(n))
		if err != nil {
			return 0, err
		}
		k := t.nodeKey(n)
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			return 0, fmt.Errorf("rbtree: order violation at %q", k)
		}
		prev = k
		count++
		rh, err := walk(t.right(n))
		if err != nil {
			return 0, err
		}
		if lh != rh {
			return 0, fmt.Errorf("rbtree: black-height mismatch at %q (%d vs %d)", k, lh, rh)
		}
		if t.color(n) == black {
			lh++
		}
		return lh, nil
	}
	if _, err := walk(rootNode); err != nil {
		return err
	}
	if count != t.Len() {
		return fmt.Errorf("rbtree: count %d, tree holds %d", t.Len(), count)
	}
	return nil
}
