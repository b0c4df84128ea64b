// Package rediskv implements a Redis-like persistent store — the analogue
// of the paper's PM-optimized Redis (§VI-A2) — on the pmobj arena. It
// supports the command subset the Twitter (Retwis) workload and the YCSB
// driver need: strings, counters, lists and sets, each value stored
// crash-atomically in a persistent hashmap.
package rediskv

import (
	"encoding/binary"
	"errors"
	"fmt"

	"pmnet/internal/kv"
	"pmnet/internal/pmobj"
)

// Value type tags (first byte of every stored value).
const (
	tString  byte = 'S'
	tCounter byte = 'C'
	tList    byte = 'L'
	tSet     byte = 'Z'
)

// Errors.
var (
	ErrWrongType = errors.New("rediskv: operation against a key holding the wrong kind of value")
)

// Store is a Redis-like store. Each command is crash-atomic: it performs at
// most one engine Put, which commits in a single pmobj transaction.
//
// A command reads the stored value in place (kv.Engine.View) and builds the
// value it writes in buf, so it allocates nothing once buf and items have
// grown to the store's largest value. What a command returns — Get's value,
// the items of LRange and SMembers and the array holding them — is therefore
// the store's and the arena's own memory: valid until the store's next
// command, for a caller that encodes, compares or copies it first.
type Store struct {
	hm    kv.Engine
	buf   []byte   // the value being written, tag first
	items [][]byte // the array LRange and SMembers answer in
}

// Open creates or reopens a store on the arena.
func Open(a *pmobj.Arena) (*Store, error) {
	hm, err := kv.OpenHashmap(a)
	if err != nil {
		return nil, err
	}
	return &Store{hm: hm}, nil
}

// Len returns the number of keys.
func (s *Store) Len() int { return s.hm.Len() }

// view reads the value at key in place and checks its type tag; body is the
// value after the tag, nil when the key is absent.
func (s *Store) view(key []byte, tag byte) (body []byte, ok bool, err error) {
	raw, ok := s.hm.View(key)
	if !ok {
		return nil, false, nil
	}
	if raw[0] != tag {
		return nil, false, typeErr(key, tag, raw[0])
	}
	return raw[1:], true, nil
}

// put stores buf, a value built on s.buf[:0], and keeps its array for the
// next command.
func (s *Store) put(key, buf []byte) error {
	s.buf = buf
	return s.hm.Put(key, buf)
}

// strings -------------------------------------------------------------------

// Set stores a string value.
func (s *Store) Set(key, value []byte) error {
	return s.put(key, append(append(s.buf[:0], tString), value...))
}

// Get fetches a string value.
func (s *Store) Get(key []byte) ([]byte, bool, error) {
	return s.view(key, tString)
}

// Del removes a key of any type.
func (s *Store) Del(key []byte) (bool, error) { return s.hm.Delete(key) }

// Exists reports whether key is present.
func (s *Store) Exists(key []byte) bool {
	_, ok := s.hm.View(key)
	return ok
}

// counters -------------------------------------------------------------------

// Incr atomically increments a counter, creating it at 1.
func (s *Store) Incr(key []byte) (int64, error) {
	cur, err := s.GetCounter(key)
	if err != nil {
		return 0, err
	}
	cur++
	if err := s.put(key, binary.BigEndian.AppendUint64(append(s.buf[:0], tCounter), uint64(cur))); err != nil {
		return 0, err
	}
	return cur, nil
}

// GetCounter reads a counter (0 when absent).
func (s *Store) GetCounter(key []byte) (int64, error) {
	body, ok, err := s.view(key, tCounter)
	if err != nil || !ok {
		return 0, err
	}
	return int64(binary.BigEndian.Uint64(body)), nil
}

// lists and sets -------------------------------------------------------------

// A list or a set is stored as its tag, the item count as a uvarint, then
// each item as a uvarint length and its bytes. Commands walk that encoding
// where it lies; none decodes it into a slice of items first.

// load views the list or set at key: its item count and the encoded items
// after it. An absent key reads as no items.
func (s *Store) load(key []byte, tag byte) (n int, enc []byte, err error) {
	body, ok, err := s.view(key, tag)
	if err != nil || !ok {
		return 0, nil, err
	}
	c, w := binary.Uvarint(body)
	return int(c), body[w:], nil
}

// cut splits the first item off enc.
func cut(enc []byte) (item, rest []byte) {
	l, w := binary.Uvarint(enc)
	return enc[w : w+int(l)], enc[w+int(l):]
}

// appendItem appends item in its stored form.
func appendItem(buf, item []byte) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(item))), item...)
}

// contains reports whether member is one of the items encoded in enc.
func contains(enc, member []byte) bool {
	for len(enc) > 0 {
		var it []byte
		if it, enc = cut(enc); string(it) == string(member) {
			return true
		}
	}
	return false
}

// LPush prepends value to the list at key, optionally trimming to maxLen
// (0 = unbounded). Returns the new length.
func (s *Store) LPush(key, value []byte, maxLen int) (int, error) {
	n, enc, err := s.load(key, tList)
	if err != nil {
		return 0, err
	}
	if maxLen > 0 && n >= maxLen {
		// Trim: keep the first maxLen-1 items, found by walking their lengths.
		n = maxLen - 1
		rest := enc
		for i := 0; i < n; i++ {
			_, rest = cut(rest)
		}
		enc = enc[:len(enc)-len(rest)]
	}
	// The new count and item, then the items kept, copied as they are stored.
	buf := binary.AppendUvarint(append(s.buf[:0], tList), uint64(n+1))
	buf = append(appendItem(buf, value), enc...)
	if err := s.put(key, buf); err != nil {
		return 0, err
	}
	return n + 1, nil
}

// LRange returns items [start, stop] (inclusive, like Redis; stop = -1
// means "to the end").
func (s *Store) LRange(key []byte, start, stop int) ([][]byte, error) {
	n, enc, err := s.load(key, tList)
	if err != nil {
		return nil, err
	}
	if stop < 0 {
		stop = n + stop
	}
	if start < 0 {
		start = 0
	}
	if stop >= n {
		stop = n - 1
	}
	if start > stop {
		return nil, nil
	}
	return s.collect(enc, start, stop), nil
}

// collect gathers items [start, stop] of enc in the store's item array.
func (s *Store) collect(enc []byte, start, stop int) [][]byte {
	s.items = s.items[:0]
	for i := 0; i <= stop; i++ {
		var it []byte
		if it, enc = cut(enc); i >= start {
			s.items = append(s.items, it)
		}
	}
	return s.items
}

// LLen returns the list length.
func (s *Store) LLen(key []byte) (int, error) {
	n, _, err := s.load(key, tList)
	return n, err
}

// SAdd inserts member into the set at key; reports whether it was new.
func (s *Store) SAdd(key, member []byte) (bool, error) {
	n, enc, err := s.load(key, tSet)
	if err != nil || contains(enc, member) {
		return false, err
	}
	buf := binary.AppendUvarint(append(s.buf[:0], tSet), uint64(n+1))
	buf = appendItem(append(buf, enc...), member)
	if err := s.put(key, buf); err != nil {
		return false, err
	}
	return true, nil
}

// SIsMember reports set membership.
func (s *Store) SIsMember(key, member []byte) (bool, error) {
	_, enc, err := s.load(key, tSet)
	return err == nil && contains(enc, member), err
}

// SCard returns the set cardinality.
func (s *Store) SCard(key []byte) (int, error) {
	n, _, err := s.load(key, tSet)
	return n, err
}

// SMembers returns every member.
func (s *Store) SMembers(key []byte) ([][]byte, error) {
	n, enc, err := s.load(key, tSet)
	if err != nil {
		return nil, err
	}
	return s.collect(enc, 0, n-1), nil
}

func typeErr(key []byte, want, got byte) error {
	return fmt.Errorf("%w: key %q holds %c, want %c", ErrWrongType, key, got, want)
}
