package rediskv

// The reference model of the store: the Store as it stood before values were
// spliced from the PM view — every list and set decoded whole into [][]byte
// by decodeItems, changed, and re-encoded whole by encodeItems, every value
// read through the copying Engine.Get — kept verbatim as refStore. The store
// must agree with it on every result, every error, every stored byte and
// every PM access (server CPU time is charged per access, so a count that
// moved would move simulated latency). FuzzStoreMatchesModel searches for a
// command sequence on which they differ; its f.Add seeds replay under plain
// `go test`.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"pmnet/internal/kv"
	"pmnet/internal/pmobj"
)

type refStore struct {
	hm kv.Engine
}

func openRef(a *pmobj.Arena) (*refStore, error) {
	hm, err := kv.OpenHashmap(a)
	if err != nil {
		return nil, err
	}
	return &refStore{hm: hm}, nil
}

// Len returns the number of keys.
func (s *refStore) Len() int { return s.hm.Len() }

// strings -------------------------------------------------------------------

// Set stores a string value.
func (s *refStore) Set(key, value []byte) error {
	return s.hm.Put(key, append([]byte{tString}, value...))
}

// Get fetches a string value.
func (s *refStore) Get(key []byte) ([]byte, bool, error) {
	raw, ok := s.hm.Get(key)
	if !ok {
		return nil, false, nil
	}
	if raw[0] != tString {
		return nil, false, typeErr(key, tString, raw[0])
	}
	return raw[1:], true, nil
}

// Del removes a key of any type.
func (s *refStore) Del(key []byte) (bool, error) { return s.hm.Delete(key) }

// Exists reports whether key is present.
func (s *refStore) Exists(key []byte) bool {
	_, ok := s.hm.Get(key)
	return ok
}

// counters -------------------------------------------------------------------

// Incr atomically increments a counter, creating it at 1.
func (s *refStore) Incr(key []byte) (int64, error) {
	raw, ok := s.hm.Get(key)
	var cur int64
	if ok {
		if raw[0] != tCounter {
			return 0, typeErr(key, tCounter, raw[0])
		}
		cur = int64(binary.BigEndian.Uint64(raw[1:]))
	}
	cur++
	buf := make([]byte, 9)
	buf[0] = tCounter
	binary.BigEndian.PutUint64(buf[1:], uint64(cur))
	if err := s.hm.Put(key, buf); err != nil {
		return 0, err
	}
	return cur, nil
}

// GetCounter reads a counter (0 when absent).
func (s *refStore) GetCounter(key []byte) (int64, error) {
	raw, ok := s.hm.Get(key)
	if !ok {
		return 0, nil
	}
	if raw[0] != tCounter {
		return 0, typeErr(key, tCounter, raw[0])
	}
	return int64(binary.BigEndian.Uint64(raw[1:])), nil
}

// lists ----------------------------------------------------------------------

func decodeItems(raw []byte) [][]byte {
	n, off := binary.Uvarint(raw)
	items := make([][]byte, 0, n)
	for i := uint64(0); i < n; i++ {
		l, m := binary.Uvarint(raw[off:])
		off += m
		items = append(items, raw[off:off+int(l)])
		off += int(l)
	}
	return items
}

func encodeItems(tag byte, items [][]byte) []byte {
	out := make([]byte, 1, 64)
	out[0] = tag
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(items)))
	out = append(out, tmp[:n]...)
	for _, it := range items {
		n = binary.PutUvarint(tmp[:], uint64(len(it)))
		out = append(out, tmp[:n]...)
		out = append(out, it...)
	}
	return out
}

func (s *refStore) loadItems(key []byte, tag byte) ([][]byte, bool, error) {
	raw, ok := s.hm.Get(key)
	if !ok {
		return nil, false, nil
	}
	if raw[0] != tag {
		return nil, false, typeErr(key, tag, raw[0])
	}
	return decodeItems(raw[1:]), true, nil
}

// LPush prepends value to the list at key, optionally trimming to maxLen
// (0 = unbounded). Returns the new length.
func (s *refStore) LPush(key, value []byte, maxLen int) (int, error) {
	items, _, err := s.loadItems(key, tList)
	if err != nil {
		return 0, err
	}
	items = append([][]byte{value}, items...)
	if maxLen > 0 && len(items) > maxLen {
		items = items[:maxLen]
	}
	if err := s.hm.Put(key, encodeItems(tList, items)); err != nil {
		return 0, err
	}
	return len(items), nil
}

// LRange returns items [start, stop] (inclusive, like Redis; stop = -1
// means "to the end").
func (s *refStore) LRange(key []byte, start, stop int) ([][]byte, error) {
	items, ok, err := s.loadItems(key, tList)
	if err != nil || !ok {
		return nil, err
	}
	n := len(items)
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
	out := make([][]byte, stop-start+1)
	copy(out, items[start:stop+1])
	return out, nil
}

// LLen returns the list length.
func (s *refStore) LLen(key []byte) (int, error) {
	items, _, err := s.loadItems(key, tList)
	return len(items), err
}

// sets -----------------------------------------------------------------------

// SAdd inserts member into the set at key; reports whether it was new.
func (s *refStore) SAdd(key, member []byte) (bool, error) {
	items, _, err := s.loadItems(key, tSet)
	if err != nil {
		return false, err
	}
	for _, it := range items {
		if string(it) == string(member) {
			return false, nil
		}
	}
	items = append(items, member)
	if err := s.hm.Put(key, encodeItems(tSet, items)); err != nil {
		return false, err
	}
	return true, nil
}

// SIsMember reports set membership.
func (s *refStore) SIsMember(key, member []byte) (bool, error) {
	items, _, err := s.loadItems(key, tSet)
	if err != nil {
		return false, err
	}
	for _, it := range items {
		if string(it) == string(member) {
			return true, nil
		}
	}
	return false, nil
}

// SCard returns the set cardinality.
func (s *refStore) SCard(key []byte) (int, error) {
	items, _, err := s.loadItems(key, tSet)
	return len(items), err
}

// SMembers returns every member.
func (s *refStore) SMembers(key []byte) ([][]byte, error) {
	items, _, err := s.loadItems(key, tSet)
	return items, err
}

// The fuzz program: four bytes a step — command, key, and two operands the
// command reads as it needs (a value length and fill, a trim bound, range
// ends). Keys come from a space of six, so a key meets commands of every type
// and the wrong-type paths are walked as a matter of course.
const (
	cSet = iota
	cGet
	cIncr
	cLPush
	cLRange
	cSAdd
	cSIsMember
	cSCard
	cLLen
	cDel
	cExists
	cGetCounter
	cSMembers
	cPowerFail
	nCmds

	fuzzKeys     = 6
	fuzzMaxSteps = 600
	fuzzArena    = 1 << 20
)

var fuzzMaxLens = [...]int{0, 1, 3, 100}

// fuzzValue is n bytes that depend on fill, so items are told apart.
func fuzzValue(n int, fill byte) []byte {
	v := make([]byte, n)
	for i := range v {
		v[i] = fill + byte(i)
	}
	return v
}

// prog builds a fuzz input a step at a time, for the seeds.
type prog []byte

func (p prog) step(cmd, key, a, b int) prog { return append(p, byte(cmd), byte(key), byte(a), byte(b)) }
func (p prog) times(n int, f func(p prog, i int) prog) prog {
	for i := 0; i < n; i++ {
		p = f(p, i)
	}
	return p
}

// pair is the store and its model, each on an arena of its own.
type pair struct {
	t        *testing.T
	arena    [2]*pmobj.Arena
	store    *Store
	ref      *refStore
	reopened int
}

func newPair(t *testing.T) *pair {
	p := &pair{t: t}
	for i := range p.arena {
		p.arena[i] = kv.NewArena(fuzzArena)
	}
	p.open()
	return p
}

func (p *pair) open() {
	var err, rerr error
	p.store, err = Open(p.arena[0])
	p.ref, rerr = openRef(p.arena[1])
	if err != nil || rerr != nil {
		p.t.Fatalf("open: store %v, model %v", err, rerr)
	}
}

// powerFail loses what was not persisted — nothing of a finished command —
// recovers both arenas and reattaches both stores.
func (p *pair) powerFail() {
	for _, a := range p.arena {
		if err := a.Reopen(); err != nil {
			p.t.Fatalf("reopen: %v", err)
		}
	}
	p.open()
}

func (p *pair) release() {
	for _, a := range p.arena {
		a.Device().Release()
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// show renders a command's result: byte strings quoted (nil and empty alike),
// numbers and booleans plain.
func show(v any) string {
	switch v.(type) {
	case []byte, [][]byte, []any:
		return fmt.Sprintf("%q", v)
	}
	return fmt.Sprint(v)
}

// agree fails the test unless the command just run gave the same result and
// error on both sides, left the same bytes stored under key, and cost the
// same PM accesses since the stores were made.
func (p *pair) agree(step string, key []byte, got, want any, err, rerr error) {
	p.t.Helper()
	if g, w := show(got), show(want); g != w || errString(err) != errString(rerr) {
		p.t.Fatalf("%s: store %s, %q; model %s, %q", step, g, errString(err), w, errString(rerr))
	}
	raw, ok := p.store.hm.Get(key)
	rraw, rok := p.ref.hm.Get(key)
	if ok != rok || !bytes.Equal(raw, rraw) {
		p.t.Fatalf("%s: stored under %q: store %q %v, model %q %v", step, key, raw, ok, rraw, rok)
	}
	if g, w := p.arena[0].Device().Stats(), p.arena[1].Device().Stats(); g != w {
		p.t.Fatalf("%s: PM accesses: store %+v, model %+v", step, g, w)
	}
}

// items renders an item list for comparison: nil and empty are the same
// answer (the model's LRange and SMembers differ between themselves on it).
func items(its [][]byte) any {
	if len(its) == 0 {
		return nil
	}
	return its
}

// run plays one fuzz program on a fresh pair.
func run(t *testing.T, data []byte) {
	p := newPair(t)
	defer p.release()
	for i := 0; len(data) >= 4 && i < fuzzMaxSteps; i, data = i+1, data[4:] {
		cmd, a, b := int(data[0])%nCmds, int(data[2]), int(data[3])
		key := []byte(fmt.Sprintf("k%d", int(data[1])%fuzzKeys))
		step := fmt.Sprintf("step %d (cmd %d %s %d %d)", i, cmd, key, a, b)
		s, r := p.store, p.ref
		switch cmd {
		case cSet:
			v := fuzzValue(a%40, byte(b))
			p.agree(step, key, nil, nil, s.Set(key, v), r.Set(key, v))
		case cGet:
			v, ok, err := s.Get(key)
			rv, rok, rerr := r.Get(key)
			p.agree(step, key, []any{v, ok}, []any{rv, rok}, err, rerr)
		case cIncr:
			n, err := s.Incr(key)
			rn, rerr := r.Incr(key)
			p.agree(step, key, n, rn, err, rerr)
		case cLPush:
			// Lengths to 510: past 127 an item's length takes a second byte.
			v, maxLen := fuzzValue(2*b, byte(a)), fuzzMaxLens[a%len(fuzzMaxLens)]
			n, err := s.LPush(key, v, maxLen)
			rn, rerr := r.LPush(key, v, maxLen)
			p.agree(step, key, n, rn, err, rerr)
		case cLRange:
			start, stop := int(int8(a)), int(int8(b))
			its, err := s.LRange(key, start, stop)
			rits, rerr := r.LRange(key, start, stop)
			p.agree(step, key, items(its), items(rits), err, rerr)
		case cSAdd:
			m := fuzzValue(b%8, byte(b))
			added, err := s.SAdd(key, m)
			radded, rerr := r.SAdd(key, m)
			p.agree(step, key, added, radded, err, rerr)
		case cSIsMember:
			m := fuzzValue(b%8, byte(b))
			is, err := s.SIsMember(key, m)
			ris, rerr := r.SIsMember(key, m)
			p.agree(step, key, is, ris, err, rerr)
		case cSCard:
			n, err := s.SCard(key)
			rn, rerr := r.SCard(key)
			p.agree(step, key, n, rn, err, rerr)
		case cLLen:
			n, err := s.LLen(key)
			rn, rerr := r.LLen(key)
			p.agree(step, key, n, rn, err, rerr)
		case cDel:
			ok, err := s.Del(key)
			rok, rerr := r.Del(key)
			p.agree(step, key, ok, rok, err, rerr)
		case cExists:
			p.agree(step, key, s.Exists(key), r.Exists(key), nil, nil)
		case cGetCounter:
			n, err := s.GetCounter(key)
			rn, rerr := r.GetCounter(key)
			p.agree(step, key, n, rn, err, rerr)
		case cSMembers:
			its, err := s.SMembers(key)
			rits, rerr := r.SMembers(key)
			p.agree(step, key, items(its), items(rits), err, rerr)
		case cPowerFail:
			p.powerFail()
			p.agree(step, key, p.store.Len(), p.ref.Len(), nil, nil)
		}
	}
	// Every stored byte, not only those under the keys the steps named.
	var img [2][]byte
	for i, a := range p.arena {
		var err error
		if img[i], err = a.Device().View(0, a.Device().Len()); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(img[0], img[1]) {
		t.Fatal("arena images differ")
	}
}

func FuzzStoreMatchesModel(f *testing.F) {
	// One retwis post and one timeline read onto a timeline the pushes fill
	// past its 100-item bound: the trim boundary is walked on every push
	// after the hundredth.
	f.Add([]byte(prog{}.times(104, func(p prog, i int) prog {
		return p.step(cIncr, 0, 0, 0).step(cSet, 1, 30, i).step(cLPush, 2, 3, 4+i%3)
	}).step(cLRange, 2, 0, 9).step(cGet, 1, 0, 0).step(cLLen, 2, 0, 0)))
	// Every trim bound against a list longer than it: unbounded pushes, then
	// 3 (keeps two old items), 1 (keeps none), 100 (keeps all), 0 again.
	f.Add([]byte(prog{}.times(6, func(p prog, i int) prog { return p.step(cLPush, 0, 0, i) }).
		step(cLPush, 0, 2, 7).step(cLRange, 0, 0, 0xff).step(cLPush, 0, 1, 8).step(cLRange, 0, 0, 0xff).
		step(cLPush, 0, 3, 9).step(cLPush, 0, 0, 10).step(cLRange, 0, 0, 0xff)))
	// LRANGE bounds: negative start, stop before the start, stop far below
	// -len, both past the end, an empty and an absent list.
	f.Add([]byte(prog{}.times(5, func(p prog, i int) prog { return p.step(cLPush, 0, 0, i) }).
		step(cLRange, 0, 0xfd, 2).step(cLRange, 0, 3, 1).step(cLRange, 0, 0, 0x80).step(cLRange, 0, 1, 0xfe).
		step(cLRange, 0, 50, 60).step(cLRange, 0, 4, 4).step(cLRange, 1, 0, 9).step(cLLen, 1, 0, 0)))
	// Sets: new members, a duplicate, the empty member, membership and
	// cardinality of a set, of an absent key.
	f.Add([]byte(prog{}.step(cSAdd, 0, 0, 1).step(cSAdd, 0, 0, 2).step(cSAdd, 0, 0, 1).step(cSAdd, 0, 0, 8).
		step(cSAdd, 0, 0, 8).step(cSIsMember, 0, 0, 2).step(cSIsMember, 0, 0, 3).step(cSCard, 0, 0, 0).
		step(cSMembers, 0, 0, 0).step(cSCard, 1, 0, 0).step(cSIsMember, 1, 0, 1).step(cSMembers, 1, 0, 0)))
	// Every command against a key of every other type, then DEL and reuse of
	// the key as another type.
	f.Add([]byte(prog{}.step(cSet, 0, 5, 1).step(cIncr, 1, 0, 0).step(cLPush, 2, 0, 3).step(cSAdd, 3, 0, 1).
		times(4, func(p prog, k int) prog {
			for cmd := 0; cmd < cPowerFail; cmd++ {
				if cmd != cDel {
					p = p.step(cmd, k, 1, 2)
				}
			}
			return p
		}).step(cDel, 0, 0, 0).step(cLPush, 0, 0, 2).step(cDel, 2, 0, 0).step(cDel, 2, 0, 0).step(cIncr, 2, 0, 0)))
	// Power failure between commands: every finished command is durable.
	f.Add([]byte(prog{}.step(cSet, 0, 9, 1).step(cLPush, 1, 0, 5).step(cPowerFail, 0, 0, 0).step(cGet, 0, 0, 0).
		step(cLPush, 1, 2, 6).step(cSAdd, 2, 0, 4).step(cIncr, 3, 0, 0).step(cPowerFail, 1, 0, 0).
		step(cLRange, 1, 0, 0xff).step(cSMembers, 2, 0, 0).step(cIncr, 3, 0, 0).step(cSet, 0, 0, 0).step(cGet, 0, 0, 0)))
	// Two-byte varints: 160 items in a list and 141 in a set (the count),
	// items of 128 bytes and more (the length), then trims across them.
	f.Add([]byte(prog{}.times(160, func(p prog, i int) prog {
		return p.step(cLPush, 0, 0, i%3).step(cSAdd, 1, 0, i)
	}).step(cLPush, 0, 0, 64).step(cLPush, 0, 0, 255).step(cLRange, 0, 0, 1).step(cLPush, 0, 3, 200).
		step(cLPush, 0, 2, 70).step(cLRange, 0, 0, 0xff).step(cSCard, 1, 0, 0).step(cSAdd, 1, 0, 3)))

	f.Fuzz(run)
}
