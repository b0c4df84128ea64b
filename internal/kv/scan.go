package kv

import (
	"bytes"
	"errors"
)

// Pair is one key-value result of a range scan.
type Pair struct {
	Key   []byte
	Value []byte
}

// ErrUnordered is returned by Scan on engines without an ordered iteration
// capability (the hashmap, like PMDK's hashmap engines).
var ErrUnordered = errors.New("kv: engine does not support ordered scans")

// Scanner is implemented by engines that support ordered range scans
// (B-Tree, RB-Tree, Skip list in byte order; C-Tree in its length-first
// crit-bit order). Used by the YCSB-E style scan workload.
type Scanner interface {
	// Scan returns up to limit pairs with key ≥ start, in the engine's
	// iteration order.
	Scan(start []byte, limit int) ([]Pair, error)
}

// Scan dispatches to the engine's Scanner implementation, or ErrUnordered.
func Scan(e Engine, start []byte, limit int) ([]Pair, error) {
	if s, ok := e.(Scanner); ok {
		return s.Scan(start, limit)
	}
	return nil, ErrUnordered
}

// Skiplist scan: walk level 0 from the first node ≥ start.
func (s *Skiplist) Scan(start []byte, limit int) ([]Pair, error) {
	if limit <= 0 {
		return nil, nil
	}
	var update [slMaxLevel]uint64
	s.findUpdate(start, &update)
	n := s.a.ReadU64(update[0] + snNext)
	var out []Pair
	for n != 0 && len(out) < limit {
		out = append(out, Pair{
			Key:   s.nodeKey(n),
			Value: getString(s.a, s.a.ReadU64(n+snVOff), s.a.ReadU64(n+snVLen)),
		})
		n = s.a.ReadU64(n + snNext)
	}
	return out, nil
}

// BTree scan: bounded in-order walk.
func (b *BTree) Scan(start []byte, limit int) ([]Pair, error) {
	if limit <= 0 {
		return nil, nil
	}
	var out []Pair
	var walk func(n uint64) bool // false = stop
	walk = func(n uint64) bool {
		num := b.keyN(n)
		for i := 0; i < num; i++ {
			if !b.isLeaf(n) {
				if !walk(b.child(n, i)) {
					return false
				}
			}
			if len(out) >= limit {
				return false
			}
			it := b.item(n, i)
			key := getString(b.a, it.kOff, it.kLen)
			if bytes.Compare(key, start) >= 0 {
				out = append(out, Pair{Key: key, Value: getString(b.a, it.vOff, it.vLen)})
				if len(out) >= limit {
					return false
				}
			}
		}
		if !b.isLeaf(n) {
			return walk(b.child(n, num))
		}
		return true
	}
	walk(b.a.ReadU64(b.root + btRootNode))
	return out, nil
}

// RBTree scan: in-order walk with an early start bound.
func (t *RBTree) Scan(start []byte, limit int) ([]Pair, error) {
	if limit <= 0 {
		return nil, nil
	}
	nilN := t.nilNode()
	var out []Pair
	var walk func(n uint64) bool
	walk = func(n uint64) bool {
		if n == nilN {
			return true
		}
		key := t.nodeKey(n)
		// Prune left subtrees entirely below the start bound.
		if bytes.Compare(key, start) >= 0 {
			if !walk(t.left(n)) {
				return false
			}
			if len(out) >= limit {
				return false
			}
			out = append(out, Pair{Key: key,
				Value: getString(t.a, t.ru(n+rnVOff), t.ru(n+rnVLen))})
			if len(out) >= limit {
				return false
			}
		}
		return walk(t.right(n))
	}
	walk(t.a.ReadU64(t.root + rbRoot))
	return out, nil
}

// CTree scan: in-order walk of the crit-bit tree. Iteration order is the
// ikey order (length first, then bytes); for fixed-length keyspaces — like
// the YCSB keys — this coincides with byte order.
func (c *CTree) Scan(start []byte, limit int) ([]Pair, error) {
	if limit <= 0 {
		return nil, nil
	}
	ikStart := c.ikey(start)
	var out []Pair
	var walk func(p uint64) bool
	walk = func(p uint64) bool {
		if p == 0 {
			return true
		}
		if isInternal(p) {
			n := offOf(p)
			if !walk(c.ru(n + ciChild)) {
				return false
			}
			return walk(c.ru(n + ciChild + 8))
		}
		leaf := offOf(p)
		ik := c.leafKey(leaf)
		if bytes.Compare(ik, ikStart) >= 0 {
			out = append(out, Pair{Key: append([]byte(nil), ik[8:]...),
				Value: getString(c.a, c.ru(leaf+clVOff), c.ru(leaf+clVLen))})
			if len(out) >= limit {
				return false
			}
		}
		return true
	}
	walk(c.a.ReadU64(c.root + ctRoot))
	return out, nil
}
