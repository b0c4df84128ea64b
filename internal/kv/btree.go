package kv

import (
	"fmt"

	"pmnet/internal/pmobj"
)

// BTree is a CLRS-style B-tree with minimum degree t = 4 (up to 7 keys and
// 8 children per node), the analogue of PMDK's btree_map example engine.
// Every Put/Delete runs in one crash-atomic transaction; descent reads use
// the transaction overlay so proactive splits/merges are observed.
//
// Root object layout:
//
//	+0 tag | +8 count | +16 rootNode
//
// Node layout (class 512):
//
//	+0   leaf (1/0)
//	+8   n (live keys)
//	+16  items[7]: {kOff, kLen, vOff, vLen} — 32 bytes each
//	+240 children[8]
const (
	btT        = 4 // minimum degree
	btMaxKeys  = 2*btT - 1
	btMaxChild = 2 * btT

	btTag      = 0
	btCount    = 8
	btRootNode = 16
	btRootSize = 24

	bnLeaf     = 0
	bnN        = 8
	bnItems    = 16
	bnItemSize = 32
	bnChildren = bnItems + btMaxKeys*bnItemSize
	bnSize     = bnChildren + btMaxChild*8
)

// BTree implements Engine.
type BTree struct {
	a    *pmobj.Arena
	root uint64
}

// OpenBTree opens or creates a B-tree on a.
func OpenBTree(a *pmobj.Arena) (Engine, error) {
	if root := a.Root(); root != 0 {
		if err := checkTag(a, root, tagBTree, "btree"); err != nil {
			return nil, err
		}
		return &BTree{a: a, root: root}, nil
	}
	var root uint64
	err := a.Update(func(tx *pmobj.Tx) error {
		r, err := tx.Alloc(btRootSize)
		if err != nil {
			return err
		}
		node, err := newBTNode(tx, true)
		if err != nil {
			return err
		}
		tx.WriteU64(r+btTag, tagBTree)
		tx.WriteU64(r+btCount, 0)
		tx.WriteU64(r+btRootNode, node)
		tx.SetRoot(r)
		root = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &BTree{a: a, root: root}, nil
}

// zeroNode initializes every new node; never written.
var zeroNode [bnSize]byte

func newBTNode(tx *pmobj.Tx, leaf bool) (uint64, error) {
	n, err := tx.Alloc(bnSize)
	if err != nil {
		return 0, err
	}
	tx.WriteBytes(n, zeroNode[:])
	if leaf {
		tx.WriteU64(n+bnLeaf, 1)
	}
	return n, nil
}

// Name implements Engine.
func (b *BTree) Name() string { return "btree" }

// Len implements Engine.
func (b *BTree) Len() int { return int(b.a.ReadU64(b.root + btCount)) }

// field helpers (overlay-aware) -------------------------------------------

func (b *BTree) ru(off uint64) uint64 { return b.a.TxReadU64(off) }

func (b *BTree) isLeaf(n uint64) bool { return b.ru(n+bnLeaf) == 1 }
func (b *BTree) keyN(n uint64) int    { return int(b.ru(n + bnN)) }

func itemOff(n uint64, i int) uint64  { return n + bnItems + uint64(i)*bnItemSize }
func childOff(n uint64, i int) uint64 { return n + bnChildren + uint64(i)*8 }

type btItem struct{ kOff, kLen, vOff, vLen uint64 }

// item reads the four words of item i as one batch: four counted reads, as
// four ru calls would make them.
func (b *BTree) item(n uint64, i int) btItem {
	var w [4]uint64
	b.a.TxReadU64s(itemOff(n, i), w[:])
	return btItem{w[0], w[1], w[2], w[3]}
}

func setItem(tx *pmobj.Tx, n uint64, i int, it btItem) {
	o := itemOff(n, i)
	tx.WriteU64(o, it.kOff)
	tx.WriteU64(o+8, it.kLen)
	tx.WriteU64(o+16, it.vOff)
	tx.WriteU64(o+24, it.vLen)
}

func (b *BTree) child(n uint64, i int) uint64 { return b.ru(childOff(n, i)) }

func (b *BTree) itemKey(n uint64, i int) []byte {
	it := b.item(n, i)
	return getString(b.a, it.kOff, it.kLen)
}

// cmpKey compares probe against item i of node n. The key bytes are
// immutable once written, so a committed-view read is safe except for keys
// allocated in this very transaction — which only happens for the probe key
// itself, never compared against.
func (b *BTree) cmpKey(probe []byte, n uint64, i int) int {
	it := b.item(n, i)
	return keyCompare(b.a, probe, it.kOff, it.kLen)
}

// Get implements Engine.
func (b *BTree) Get(key []byte) ([]byte, bool) { return owned(b.View(key)) }

// View implements Engine (read-only: committed view throughout).
func (b *BTree) View(key []byte) ([]byte, bool) {
	n := b.a.ReadU64(b.root + btRootNode)
	for {
		i := 0
		num := b.keyN(n)
		for i < num {
			c := b.cmpKey(key, n, i)
			if c == 0 {
				it := b.item(n, i)
				return viewString(b.a, it.vOff, it.vLen), true
			}
			if c < 0 {
				break
			}
			i++
		}
		if b.isLeaf(n) {
			return nil, false
		}
		n = b.child(n, i)
	}
}

// splitChild splits the full i-th child of parent (CLRS B-TREE-SPLIT-CHILD).
func (b *BTree) splitChild(tx *pmobj.Tx, parent uint64, i int) error {
	full := b.child(parent, i)
	right, err := newBTNode(tx, b.isLeaf(full))
	if err != nil {
		return err
	}
	// Move the top t-1 items of `full` into `right`.
	for j := 0; j < btT-1; j++ {
		setItem(tx, right, j, b.item(full, j+btT))
	}
	if !b.isLeaf(full) {
		for j := 0; j < btT; j++ {
			tx.WriteU64(childOff(right, j), b.child(full, j+btT))
		}
	}
	tx.WriteU64(right+bnN, btT-1)
	median := b.item(full, btT-1)
	tx.WriteU64(full+bnN, btT-1)
	// Shift the parent's children and items right of position i.
	pn := b.keyN(parent)
	for j := pn; j > i; j-- {
		tx.WriteU64(childOff(parent, j+1), b.child(parent, j))
	}
	tx.WriteU64(childOff(parent, i+1), right)
	for j := pn - 1; j >= i; j-- {
		setItem(tx, parent, j+1, b.item(parent, j))
	}
	setItem(tx, parent, i, median)
	tx.WriteU64(parent+bnN, uint64(pn+1))
	return nil
}

// Put implements Engine.
func (b *BTree) Put(key, value []byte) error {
	return b.a.Update(func(tx *pmobj.Tx) error {
		vOff, err := putString(tx, value)
		if err != nil {
			return err
		}
		newItem := btItem{vOff: vOff, vLen: uint64(len(value))}

		rootNode := b.ru(b.root + btRootNode)
		if b.keyN(rootNode) == btMaxKeys {
			top, err := newBTNode(tx, false)
			if err != nil {
				return err
			}
			tx.WriteU64(childOff(top, 0), rootNode)
			tx.WriteU64(b.root+btRootNode, top)
			if err := b.splitChild(tx, top, 0); err != nil {
				return err
			}
			rootNode = top
		}
		// Descend, splitting full children proactively.
		n := rootNode
		for {
			num := b.keyN(n)
			i := 0
			for i < num {
				c := b.cmpKey(key, n, i)
				if c == 0 {
					// Overwrite in place.
					it := b.item(n, i)
					freeString(tx, it.vOff, it.vLen)
					o := itemOff(n, i)
					tx.WriteU64(o+16, newItem.vOff)
					tx.WriteU64(o+24, newItem.vLen)
					return nil
				}
				if c < 0 {
					break
				}
				i++
			}
			if b.isLeaf(n) {
				kOff, err := putString(tx, key)
				if err != nil {
					return err
				}
				newItem.kOff, newItem.kLen = kOff, uint64(len(key))
				for j := num - 1; j >= i; j-- {
					setItem(tx, n, j+1, b.item(n, j))
				}
				setItem(tx, n, i, newItem)
				tx.WriteU64(n+bnN, uint64(num+1))
				tx.WriteU64(b.root+btCount, b.ru(b.root+btCount)+1)
				return nil
			}
			c := b.child(n, i)
			if b.keyN(c) == btMaxKeys {
				if err := b.splitChild(tx, n, i); err != nil {
					return err
				}
				// The median moved up into position i; re-compare.
				switch cc := b.cmpKey(key, n, i); {
				case cc == 0:
					it := b.item(n, i)
					freeString(tx, it.vOff, it.vLen)
					o := itemOff(n, i)
					tx.WriteU64(o+16, newItem.vOff)
					tx.WriteU64(o+24, newItem.vLen)
					return nil
				case cc > 0:
					i++
				}
				c = b.child(n, i)
			}
			n = c
		}
	})
}

// Delete implements Engine (CLRS full deletion with borrow/merge).
func (b *BTree) Delete(key []byte) (bool, error) {
	if _, ok := b.Get(key); !ok {
		return false, nil
	}
	err := b.a.Update(func(tx *pmobj.Tx) error {
		n := b.ru(b.root + btRootNode)
		if err := b.deleteFrom(tx, n, key); err != nil {
			return err
		}
		// Shrink an empty internal root.
		n = b.ru(b.root + btRootNode)
		if b.keyN(n) == 0 && !b.isLeaf(n) {
			tx.WriteU64(b.root+btRootNode, b.child(n, 0))
			tx.Free(n, bnSize)
		}
		tx.WriteU64(b.root+btCount, b.ru(b.root+btCount)-1)
		return nil
	})
	return err == nil, err
}

// deleteFrom removes key from the subtree rooted at n; n is guaranteed to
// have ≥ t keys (or be the root) when called.
func (b *BTree) deleteFrom(tx *pmobj.Tx, n uint64, key []byte) error {
	num := b.keyN(n)
	i := 0
	for i < num && b.cmpKey(key, n, i) > 0 {
		i++
	}
	if i < num && b.cmpKey(key, n, i) == 0 {
		if b.isLeaf(n) {
			// Case 1: remove from leaf.
			it := b.item(n, i)
			freeString(tx, it.kOff, it.kLen)
			freeString(tx, it.vOff, it.vLen)
			for j := i; j < num-1; j++ {
				setItem(tx, n, j, b.item(n, j+1))
			}
			tx.WriteU64(n+bnN, uint64(num-1))
			return nil
		}
		// Case 2: internal node.
		left, right := b.child(n, i), b.child(n, i+1)
		switch {
		case b.keyN(left) >= btT:
			// 2a: replace with predecessor, delete it recursively.
			pred := b.maxItem(left)
			old := b.item(n, i)
			freeString(tx, old.kOff, old.kLen)
			freeString(tx, old.vOff, old.vLen)
			setItem(tx, n, i, pred)
			// Remove the predecessor item from the left subtree WITHOUT
			// freeing its strings (they now live in n). Its key is viewed in
			// place for the whole descent: the transaction's stores stay
			// buffered, the device is not written before Commit.
			return b.deleteShallow(tx, left, viewString(b.a, pred.kOff, pred.kLen))
		case b.keyN(right) >= btT:
			succ := b.minItem(right)
			old := b.item(n, i)
			freeString(tx, old.kOff, old.kLen)
			freeString(tx, old.vOff, old.vLen)
			setItem(tx, n, i, succ)
			return b.deleteShallow(tx, right, viewString(b.a, succ.kOff, succ.kLen))
		default:
			// 2c: merge left + median + right, then recurse.
			if err := b.merge(tx, n, i); err != nil {
				return err
			}
			return b.deleteFrom(tx, left, key)
		}
	}
	if b.isLeaf(n) {
		return fmt.Errorf("btree: key vanished during delete")
	}
	// Case 3: ensure the child we descend into has ≥ t keys.
	child := b.child(n, i)
	if b.keyN(child) == btT-1 {
		var err error
		child, i, err = b.fill(tx, n, i)
		if err != nil {
			return err
		}
	}
	return b.deleteFrom(tx, child, key)
}

// deleteShallow removes key from the subtree without freeing its string
// blocks (used when the item was moved to an ancestor).
func (b *BTree) deleteShallow(tx *pmobj.Tx, n uint64, key []byte) error {
	num := b.keyN(n)
	i := 0
	for i < num && b.cmpKey(key, n, i) > 0 {
		i++
	}
	if i < num && b.cmpKey(key, n, i) == 0 {
		if b.isLeaf(n) {
			for j := i; j < num-1; j++ {
				setItem(tx, n, j, b.item(n, j+1))
			}
			tx.WriteU64(n+bnN, uint64(num-1))
			return nil
		}
		left, right := b.child(n, i), b.child(n, i+1)
		switch {
		case b.keyN(left) >= btT:
			pred := b.maxItem(left)
			setItem(tx, n, i, pred)
			return b.deleteShallow(tx, left, viewString(b.a, pred.kOff, pred.kLen))
		case b.keyN(right) >= btT:
			succ := b.minItem(right)
			setItem(tx, n, i, succ)
			return b.deleteShallow(tx, right, viewString(b.a, succ.kOff, succ.kLen))
		default:
			if err := b.merge(tx, n, i); err != nil {
				return err
			}
			return b.deleteShallow(tx, left, key)
		}
	}
	if b.isLeaf(n) {
		return fmt.Errorf("btree: shallow-delete key missing")
	}
	child := b.child(n, i)
	if b.keyN(child) == btT-1 {
		var err error
		child, i, err = b.fill(tx, n, i)
		if err != nil {
			return err
		}
	}
	return b.deleteShallow(tx, child, key)
}

// maxItem returns the rightmost item of the subtree at n.
func (b *BTree) maxItem(n uint64) btItem {
	for !b.isLeaf(n) {
		n = b.child(n, b.keyN(n))
	}
	return b.item(n, b.keyN(n)-1)
}

// minItem returns the leftmost item of the subtree at n.
func (b *BTree) minItem(n uint64) btItem {
	for !b.isLeaf(n) {
		n = b.child(n, 0)
	}
	return b.item(n, 0)
}

// fill guarantees child i of n has ≥ t keys by borrowing or merging;
// returns the (possibly different) child to descend into and its index.
func (b *BTree) fill(tx *pmobj.Tx, n uint64, i int) (uint64, int, error) {
	num := b.keyN(n)
	child := b.child(n, i)
	if i > 0 && b.keyN(b.child(n, i-1)) >= btT {
		// Borrow from the left sibling through the separator.
		left := b.child(n, i-1)
		ln := b.keyN(left)
		cn := b.keyN(child)
		for j := cn - 1; j >= 0; j-- {
			setItem(tx, child, j+1, b.item(child, j))
		}
		if !b.isLeaf(child) {
			for j := cn; j >= 0; j-- {
				tx.WriteU64(childOff(child, j+1), b.child(child, j))
			}
			tx.WriteU64(childOff(child, 0), b.child(left, ln))
		}
		setItem(tx, child, 0, b.item(n, i-1))
		setItem(tx, n, i-1, b.item(left, ln-1))
		tx.WriteU64(left+bnN, uint64(ln-1))
		tx.WriteU64(child+bnN, uint64(cn+1))
		return child, i, nil
	}
	if i < num && b.keyN(b.child(n, i+1)) >= btT {
		// Borrow from the right sibling.
		right := b.child(n, i+1)
		rn := b.keyN(right)
		cn := b.keyN(child)
		setItem(tx, child, cn, b.item(n, i))
		if !b.isLeaf(child) {
			tx.WriteU64(childOff(child, cn+1), b.child(right, 0))
			for j := 0; j < rn; j++ {
				tx.WriteU64(childOff(right, j), b.child(right, j+1))
			}
		}
		setItem(tx, n, i, b.item(right, 0))
		for j := 0; j < rn-1; j++ {
			setItem(tx, right, j, b.item(right, j+1))
		}
		tx.WriteU64(right+bnN, uint64(rn-1))
		tx.WriteU64(child+bnN, uint64(cn+1))
		return child, i, nil
	}
	// Merge with a sibling.
	if i == num {
		i--
	}
	if err := b.merge(tx, n, i); err != nil {
		return 0, 0, err
	}
	return b.child(n, i), i, nil
}

// merge folds child i+1 and the separator item into child i and removes
// them from n. Both children have t-1 keys.
func (b *BTree) merge(tx *pmobj.Tx, n uint64, i int) error {
	left, right := b.child(n, i), b.child(n, i+1)
	ln, rn := b.keyN(left), b.keyN(right)
	setItem(tx, left, ln, b.item(n, i))
	for j := 0; j < rn; j++ {
		setItem(tx, left, ln+1+j, b.item(right, j))
	}
	if !b.isLeaf(left) {
		for j := 0; j <= rn; j++ {
			tx.WriteU64(childOff(left, ln+1+j), b.child(right, j))
		}
	}
	tx.WriteU64(left+bnN, uint64(ln+1+rn))
	num := b.keyN(n)
	for j := i; j < num-1; j++ {
		setItem(tx, n, j, b.item(n, j+1))
	}
	for j := i + 1; j < num; j++ {
		tx.WriteU64(childOff(n, j), b.child(n, j+1))
	}
	tx.WriteU64(n+bnN, uint64(num-1))
	tx.Free(right, bnSize)
	return nil
}

// Keys implements Engine (ascending in-order walk).
func (b *BTree) Keys() [][]byte {
	var out [][]byte
	var walk func(n uint64)
	walk = func(n uint64) {
		num := b.keyN(n)
		if b.isLeaf(n) {
			for i := 0; i < num; i++ {
				out = append(out, b.itemKey(n, i))
			}
			return
		}
		for i := 0; i < num; i++ {
			walk(b.child(n, i))
			out = append(out, b.itemKey(n, i))
		}
		walk(b.child(n, num))
	}
	walk(b.a.ReadU64(b.root + btRootNode))
	return out
}

// Verify implements Engine: sorted order, key-count bounds, uniform leaf
// depth, and count agreement.
func (b *BTree) Verify() error {
	rootNode := b.a.ReadU64(b.root + btRootNode)
	leafDepth := -1
	count := 0
	var prev []byte
	var walk func(n uint64, depth int, isRoot bool) error
	walk = func(n uint64, depth int, isRoot bool) error {
		num := b.keyN(n)
		if !isRoot && (num < btT-1 || num > btMaxKeys) {
			return fmt.Errorf("btree: node with %d keys", num)
		}
		if b.isLeaf(n) {
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				return fmt.Errorf("btree: leaves at depths %d and %d", leafDepth, depth)
			}
		}
		for i := 0; i < num; i++ {
			if !b.isLeaf(n) {
				if err := walk(b.child(n, i), depth+1, false); err != nil {
					return err
				}
			}
			k := b.itemKey(n, i)
			if prev != nil && string(prev) >= string(k) {
				return fmt.Errorf("btree: order violation at %q", k)
			}
			prev = k
			count++
		}
		if !b.isLeaf(n) {
			return walk(b.child(n, num), depth+1, false)
		}
		return nil
	}
	if err := walk(rootNode, 0, true); err != nil {
		return err
	}
	if count != b.Len() {
		return fmt.Errorf("btree: count %d, tree holds %d", b.Len(), count)
	}
	return nil
}
