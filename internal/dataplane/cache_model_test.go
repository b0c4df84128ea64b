package dataplane

// Reference model for the read cache: the string-keyed map and LRU list it
// replaced, with the device's old HashVal → key-string map beside it.
// FuzzCacheMatchesModel drives both with one op stream and compares them
// after every op: each resident key's state and value in LRU order (so an
// eviction's victim), the counters, what a lookup serves and the bytes a hit
// sends.

import (
	"bytes"
	"fmt"
	"testing"

	"pmnet/internal/protocol"
)

type refEntry struct {
	key   string
	state CacheState
	value []byte
}

type refCache struct {
	capacity int
	lru      []*refEntry // most recently used first
	hashKey  map[uint32]string
	stats    CacheStats
}

func newRefCache(capacity int) *refCache {
	return &refCache{capacity: capacity, hashKey: make(map[uint32]string)}
}

func (m *refCache) find(key string) (int, *refEntry) {
	for i, e := range m.lru {
		if e.key == key {
			return i, e
		}
	}
	return -1, nil
}

func (m *refCache) touch(i int) {
	e := m.lru[i]
	copy(m.lru[1:i+1], m.lru[:i])
	m.lru[0] = e
}

func (m *refCache) insert(key string, state CacheState, value []byte) bool {
	if len(m.lru) >= m.capacity {
		victim := -1
		for i := len(m.lru) - 1; i >= 0; i-- {
			if s := m.lru[i].state; s != CachePending && s != CacheStale {
				victim = i
				break
			}
		}
		if victim < 0 {
			return false
		}
		m.lru = append(m.lru[:victim], m.lru[victim+1:]...)
		m.stats.Evictions++
	}
	m.lru = append([]*refEntry{{key: key, state: state, value: value}}, m.lru...)
	return true
}

func (m *refCache) loggedUpdate(hash uint32, key string, value []byte) {
	m.hashKey[hash] = key
	i, e := m.find(key)
	if e == nil {
		m.insert(key, CachePending, value)
		return
	}
	switch e.state {
	case CacheInvalid, CachePersisted:
		e.state, e.value = CachePending, value
		m.touch(i)
	case CachePending:
		e.state, e.value = CacheStale, nil
	}
}

func (m *refCache) supersede(key string) {
	if _, e := m.find(key); e != nil {
		switch e.state {
		case CachePersisted:
			e.state, e.value = CacheInvalid, nil
		case CachePending:
			e.state, e.value = CacheStale, nil
		}
	}
}

func (m *refCache) serverAck(hash uint32) {
	key, ok := m.hashKey[hash]
	if !ok {
		return
	}
	delete(m.hashKey, hash)
	if _, e := m.find(key); e != nil {
		switch e.state {
		case CachePending:
			e.state = CachePersisted
		case CacheStale:
			e.state, e.value = CacheInvalid, nil
		}
	}
}

func (m *refCache) readResponse(key string, value []byte) {
	i, e := m.find(key)
	if e == nil {
		if m.insert(key, CachePersisted, value) {
			m.stats.Fills++
		}
	} else if e.state == CacheInvalid {
		e.state, e.value = CachePersisted, value
		m.touch(i)
		m.stats.Fills++
	}
}

func (m *refCache) lookup(key string) ([]byte, bool) {
	i, e := m.find(key)
	if e == nil || !e.state.servable() {
		m.stats.Misses++
		return nil, false
	}
	m.stats.Hits++
	m.touch(i)
	return e.value, true
}

// checkCache compares c with m entry by entry in LRU order, and checks the
// cache's own bookkeeping: the index finds every resident entry and nothing
// else, and each entry's refs is the number of server-ACK mappings naming it.
func checkCache(c *Cache, m *refCache) error {
	if c.Len() != len(m.lru) || c.Stats() != m.stats {
		return fmt.Errorf("len %d stats %+v, model len %d stats %+v", c.Len(), c.Stats(), len(m.lru), m.stats)
	}
	i := 0
	for e := c.lru.next; e != &c.lru; e = e.next {
		if i >= len(m.lru) {
			return fmt.Errorf("ring longer than the model's %d entries", len(m.lru))
		}
		r := m.lru[i]
		if string(e.key) != r.key || e.state != r.state || !bytes.Equal(e.value, r.value) ||
			(e.value == nil) != (r.value == nil) {
			return fmt.Errorf("LRU position %d: %q %v %q, model %q %v %q", i, e.key, e.state, e.value, r.key, r.state, r.value)
		}
		if !e.resident || c.find(e.key) != e {
			return fmt.Errorf("entry %q not indexed", e.key)
		}
		i++
	}
	occupied := 0
	for _, e := range c.slots {
		if e != nil {
			occupied++
		}
	}
	if occupied != c.n {
		return fmt.Errorf("%d index slots occupied for %d entries", occupied, c.n)
	}
	refs := make(map[*cacheEntry]int)
	for hash, e := range c.acks {
		refs[e]++
		if string(e.key) != m.hashKey[hash] {
			return fmt.Errorf("hash %d names %q, model %q", hash, e.key, m.hashKey[hash])
		}
	}
	if len(c.acks) != len(m.hashKey) {
		return fmt.Errorf("%d server-ACK mappings, model %d", len(c.acks), len(m.hashKey))
	}
	for e, n := range refs {
		if e.refs != n {
			return fmt.Errorf("entry %q: refs %d, named by %d mappings", e.key, e.refs, n)
		}
	}
	for _, e := range c.free {
		if e.resident || e.refs != 0 {
			return fmt.Errorf("free entry %q resident %v refs %d", e.key, e.resident, e.refs)
		}
	}
	return nil
}

// fuzzKeys is a small alphabet of varied lengths, so entries are reused for
// keys longer and shorter than their last.
var fuzzKeys = []string{"a", "", "key-02", "a-rather-longer-key-03", "k4", "kk5"}

// FuzzCacheMatchesModel steps the cache and the reference model through the
// same ops. The first byte sets the capacity (1–4); each op after it is three
// bytes: kind, key, and a hash from an alphabet of eight, so mappings are
// overwritten and ACKs arrive late, twice, or for keys long evicted.
func FuzzCacheMatchesModel(f *testing.F) {
	f.Add([]byte{1, 0, 0, 1, 0, 0, 2, 2, 0, 1, 5, 1, 3})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 2, 2, 0, 1, 0, 1, 0, 2, 0, 1, 0, 1, 0, 2, 0, 2, 4, 0, 0})
	f.Add([]byte{2, 0, 1, 1, 0, 2, 2, 3, 1, 0, 3, 3, 4, 1, 0, 5, 4, 0, 2, 1, 1, 4, 2, 0, 3, 1, 6})
	f.Add([]byte{3, 3, 0, 0, 3, 1, 0, 3, 2, 1, 4, 1, 0, 5, 2, 4, 0, 0, 2, 5, 1, 4, 3, 0, 1, 0, 7, 3, 5, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		capacity := 1 + int(ops[0]%4)
		c, m := NewCache(capacity), newRefCache(capacity)
		for n, i := 0, 1; i+2 < len(ops); n, i = n+1, i+3 {
			key := fuzzKeys[int(ops[i+1])%len(fuzzKeys)]
			hash := uint32(ops[i+2] % 8)
			value := []byte(fmt.Sprintf("v%d", n)) // distinct per op
			var what string
			switch ops[i] % 7 {
			case 0:
				what = "logged update"
				in := bytes.Clone(value) // the update's packet, recycled below
				c.onLoggedUpdate(hash, []byte(key), in)
				m.loggedUpdate(hash, key, value)
				clear(in)
			case 1:
				what = "unlogged update"
				c.supersede([]byte(key))
				m.supersede(key)
			case 2:
				what = "server-ACK"
				c.onServerAck(hash)
				m.serverAck(hash)
			case 3, 4:
				what = "read response"
				payload := protocol.Response{Status: protocol.StatusOK, Args: [][]byte{[]byte(key), value}}.Encode()
				if ops[i]%7 == 4 {
					payload = append(payload, 0) // trailing byte: not what a hit sends
				}
				resp, err := protocol.DecodeResponse(payload)
				if err != nil {
					t.Fatal(err)
				}
				c.onReadResponse(resp.Args[0], resp.Args[1])
				m.readResponse(key, value)
				clear(payload) // the response packet is recycled: the cache keeps a copy
			case 5:
				what = "lookup"
				e := c.lookup([]byte(key))
				want, hit := m.lookup(key)
				if (e != nil) != hit {
					t.Fatalf("op %d: lookup %q hit %v, model %v", n, key, e != nil, hit)
				}
				if hit {
					wantResp := protocol.Response{Status: protocol.StatusOK, Args: [][]byte{[]byte(key), want}}.Encode()
					if !bytes.Equal(e.value, want) || !bytes.Equal(e.resp, wantResp) {
						t.Fatalf("op %d: lookup %q served %q as %x, model %q as %x", n, key, e.value, e.resp, want, wantResp)
					}
				}
			case 6:
				what = "eviction pressure"
				for k := 0; k <= capacity; k++ {
					fill := fuzzKeys[(int(ops[i+1])+k)%len(fuzzKeys)]
					c.onReadResponse([]byte(fill), value)
					m.readResponse(fill, value)
				}
			}
			if err := checkCache(c, m); err != nil {
				t.Fatalf("op %d (%s %q hash %d): %v", n, what, key, hash, err)
			}
		}
	})
}

// TestLateServerAckAfterReuse: an entry's key is evicted and its struct
// taken by another key, and then a server-ACK for an update logged while the
// entry held the old key arrives. It must not settle the new key.
func TestLateServerAckAfterReuse(t *testing.T) {
	a, b, v := []byte("a"), []byte("b"), []byte("v")

	// Pending → Persisted, evicted, reused: the duplicate ACK finds nothing.
	for _, next := range [][]byte{b, a} {
		c := NewCache(1)
		c.onLoggedUpdate(1, a, v)
		first := c.find(a)
		c.onServerAck(1) // Pending → Persisted
		c.onReadResponse([]byte("x"), v)
		c.onLoggedUpdate(2, next, v)
		if c.find(next) != first {
			t.Fatalf("%q: evicted entry not reused", next)
		}
		c.onServerAck(1) // late duplicate of the first update's ACK
		if st := c.State(string(next)); st != CachePending {
			t.Fatalf("%q after a late duplicate ACK: %v, want pending", next, st)
		}
	}

	// Pending → Stale → Invalid with the second update's mapping still
	// standing when the entry is evicted: the entry is held for that mapping,
	// so the new key gets another and stays Pending when the ACK comes. Like
	// the key-string map this replaces, the ACK settles whichever entry holds
	// its key when it arrives: a re-inserted old key takes it.
	for _, tc := range []struct {
		next []byte
		want CacheState
	}{{b, CachePending}, {a, CachePersisted}} {
		c := NewCache(1)
		c.onLoggedUpdate(1, a, v)
		c.onLoggedUpdate(2, a, v) // Pending → Stale
		old := c.find(a)
		c.onServerAck(1) // Stale → Invalid; hash 2 still names the entry
		c.onReadResponse([]byte("x"), v)
		c.onLoggedUpdate(3, tc.next, v)
		if c.find(tc.next) == old || old.resident || old.refs != 1 {
			t.Fatalf("%q: entry named by a mapping was reused", tc.next)
		}
		c.onServerAck(2)
		if st := c.State(string(tc.next)); st != tc.want {
			t.Fatalf("%q after the late ACK: %v, want %v", tc.next, st, tc.want)
		}
		if len(c.free) != 1 || c.free[0] != old {
			t.Fatalf("%q: released entry not returned to the free list", tc.next)
		}
	}
}
