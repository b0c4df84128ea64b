package dataplane

import (
	"bytes"
	"math/bits"

	"pmnet/internal/protocol"
)

// CacheState is the per-entry state of the integrated read cache
// (Figure 11 of the paper).
type CacheState uint8

const (
	// CacheInvalid: entry unused (initial state).
	CacheInvalid CacheState = iota
	// CachePending: the latest update to this key is logged in PMNet but
	// not yet persisted by the server. Serves reads.
	CachePending
	// CachePersisted: the server has persisted the logged request. Serves
	// reads.
	CachePersisted
	// CacheStale: a newer in-flight update superseded the logged entry; it
	// must not serve reads and becomes Invalid once the old update's
	// server-ACK arrives.
	CacheStale
)

func (s CacheState) String() string {
	switch s {
	case CacheInvalid:
		return "invalid"
	case CachePending:
		return "pending"
	case CachePersisted:
		return "persisted"
	case CacheStale:
		return "stale"
	default:
		return "?"
	}
}

// servable reports whether an entry in this state may answer reads
// ("When the state is Pending or Persisted, the entry can serve for read
// cache", §IV-D).
func (s CacheState) servable() bool { return s == CachePending || s == CachePersisted }

// cacheEntry is one key's protocol state and a link of the LRU ring. An
// evicted entry is recycled for the next new key, key buffer included.
type cacheEntry struct {
	key   []byte // the entry's own copy, reused by each key it holds
	hash  uint64 // keyHash(key)
	state CacheState
	value []byte
	// resp is Response{StatusOK, [key, value]} encoded, nil until built.
	// Like any payload it is never written in place: packets in flight may
	// still alias it after the value changes.
	resp []byte
	// refs counts the server-ACK mappings naming the entry. An evicted
	// entry that still has some is not reused until they are gone, so a
	// late server-ACK always finds the key it was logged for.
	refs       int
	resident   bool        // indexed and on the LRU ring
	prev, next *cacheEntry // toward most / least recently used
}

// CacheStats counts read-cache activity.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Fills     uint64 // insertions from server read responses
	Evictions uint64
}

// Cache is the PMNet read cache layered on the persistent log (§IV-D). It
// maps application keys to values with the four-state protocol of Figure 11,
// bounded by an LRU policy that never evicts entries holding protocol state
// for in-flight updates (Pending/Stale). Keys are indexed by a fixed hash of
// their bytes in an open-addressed table sized from the capacity, so nothing
// depends on a per-process seed and a new key costs no allocation once an
// evicted entry is there to take it.
type Cache struct {
	capacity int
	n        int           // resident entries
	slots    []*cacheEntry // open-addressed index, linear probing, ≤ half full
	mask     uint64
	lru      cacheEntry    // ring sentinel: lru.next is the most recent entry, lru.prev the least
	free     []*cacheEntry // evicted entries awaiting reuse
	// acks maps a logged update's HashVal to the entry its key was in when
	// it was logged, so its server-ACK can apply T2/T6 (SRAM metadata; a
	// restart starts it empty, which only costs cache warmth).
	acks  map[uint32]*cacheEntry
	stats CacheStats
}

// NewCache creates a cache bounded to capacity entries. capacity must be
// positive.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		panic("dataplane: cache capacity must be positive")
	}
	size := 8
	for size < 2*capacity {
		size <<= 1
	}
	c := &Cache{capacity: capacity, slots: make([]*cacheEntry, size), mask: uint64(size - 1),
		acks: make(map[uint32]*cacheEntry)}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// Stats returns a copy of the cache counters.
func (c *Cache) Stats() CacheStats { return c.stats }

// Len returns the number of entries (any state).
func (c *Cache) Len() int { return c.n }

// State returns the protocol state of key (CacheInvalid if absent).
func (c *Cache) State(key string) CacheState {
	if e := c.find([]byte(key)); e != nil {
		return e.state
	}
	return CacheInvalid
}

// keyHash is 64-bit FNV-1a: fixed, so the index's layout is the same in
// every process.
func keyHash(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// find returns key's resident entry, or nil.
func (c *Cache) find(key []byte) *cacheEntry {
	h := keyHash(key)
	//pmnetlint:ignore boundedwork probe run is capped by the table size, at most half of which is occupied
	for i := h & c.mask; ; i = (i + 1) & c.mask {
		e := c.slots[i]
		if e == nil {
			return nil
		}
		if e.hash == h && bytes.Equal(e.key, key) {
			return e
		}
	}
}

func (c *Cache) index(e *cacheEntry) {
	i := e.hash & c.mask
	//pmnetlint:ignore boundedwork probe run is capped by the table size, at most half of which is occupied
	for c.slots[i] != nil {
		i = (i + 1) & c.mask
	}
	c.slots[i] = e
}

// unindex removes e by backward shift: each later entry of the probe run
// that may move into the hole does, so no tombstones are left.
func (c *Cache) unindex(e *cacheEntry) {
	i := e.hash & c.mask
	//pmnetlint:ignore boundedwork probe run is capped by the table size, at most half of which is occupied
	for c.slots[i] != e {
		i = (i + 1) & c.mask
	}
	//pmnetlint:ignore boundedwork probe run is capped by the table size, at most half of which is occupied
	for j := (i + 1) & c.mask; c.slots[j] != nil; j = (j + 1) & c.mask {
		// The entry at j may fill hole i unless its home lies cyclically in (i, j].
		if home := c.slots[j].hash & c.mask; (j-home)&c.mask >= (j-i)&c.mask {
			c.slots[i] = c.slots[j]
			i = j
		}
	}
	c.slots[i] = nil
}

func (e *cacheEntry) unlink() {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (c *Cache) pushFront(e *cacheEntry) {
	e.prev, e.next = &c.lru, c.lru.next
	e.prev.next, e.next.prev = e, e
}

func (c *Cache) touch(e *cacheEntry) {
	e.unlink()
	c.pushFront(e)
}

// set installs value (nil drops it) in state s, with its encoded response
// when the caller has it.
func (e *cacheEntry) set(s CacheState, value, resp []byte) {
	e.state, e.value, e.resp = s, value, resp
}

// evictOne removes the least recently used entry whose state permits
// eviction. Returns false if every entry is protocol-pinned.
func (c *Cache) evictOne() bool {
	//pmnetlint:ignore boundedwork walk is capped by the cache capacity (the ring holds <= c.capacity entries, a fixed table size)
	for e := c.lru.prev; e != &c.lru; e = e.prev {
		if e.state == CachePending || e.state == CacheStale {
			continue // pinned: holds in-flight protocol state
		}
		e.unlink()
		c.unindex(e)
		c.n--
		e.resident = false
		e.set(CacheInvalid, nil, nil)
		c.release(e, 0)
		c.stats.Evictions++
		return true
	}
	return false
}

// release drops n of e's server-ACK mappings (none for an eviction) and
// returns e to the free list once it is neither resident nor named by one.
func (c *Cache) release(e *cacheEntry, n int) {
	e.refs -= n
	if e.refs == 0 && !e.resident {
		c.free = append(c.free, e)
	}
}

// alloc takes a free entry, or a new one, holding a copy of key.
func (c *Cache) alloc(key []byte, h uint64) *cacheEntry {
	var e *cacheEntry
	if k := len(c.free) - 1; k >= 0 {
		e, c.free = c.free[k], c.free[:k]
	} else {
		e = new(cacheEntry)
	}
	e.key, e.hash = append(e.key[:0], key...), h
	return e
}

func (c *Cache) insert(key []byte, state CacheState, value, resp []byte) *cacheEntry {
	if c.n >= c.capacity {
		if !c.evictOne() {
			return nil // cache full of pinned entries
		}
	}
	e := c.alloc(key, keyHash(key))
	e.set(state, value, resp)
	e.resident = true
	c.pushFront(e)
	c.index(e)
	c.n++
	return e
}

// Lookup serves a read: on a hit (entry Pending or Persisted) it returns the
// value. The miss counter includes unservable (Stale/Invalid) entries.
func (c *Cache) Lookup(key string) ([]byte, bool) {
	if e := c.lookup([]byte(key)); e != nil {
		return e.value, true
	}
	return nil, false
}

// lookup is Lookup for a key still in its packet, returning the serving
// entry (nil on a miss).
func (c *Cache) lookup(key []byte) *cacheEntry {
	e := c.find(key)
	if e == nil || !e.state.servable() {
		c.stats.Misses++
		return nil
	}
	c.stats.Hits++
	c.touch(e)
	return e
}

// response returns the encoded answer to a read served by e. A value a fill
// installed came with its server's bytes; one an update installed is
// encoded on its first hit, into fresh memory, and kept for the next.
func (e *cacheEntry) response() []byte {
	if e.resp == nil {
		args := [2][]byte{e.key, e.value}
		e.resp = protocol.Response{Status: protocol.StatusOK, Args: args[:]}.Encode()
	}
	return e.resp
}

// OnUpdate applies the state transitions for an update-req to key carrying
// value (T1, T3, T4, T5 in Figure 11).
func (c *Cache) OnUpdate(key string, value []byte) { c.onUpdate([]byte(key), value) }

// onUpdate is OnUpdate for a key still in its packet. It returns the key's
// entry, nil when every entry is pinned and the key could not be inserted.
func (c *Cache) onUpdate(key, value []byte) *cacheEntry {
	if e := c.find(key); e != nil {
		c.update(e, value)
		return e
	}
	return c.insert(key, CachePending, value, nil) // T1
}

// onLoggedUpdate is onUpdate for an update the device logged under hash: its
// server-ACK, matched by hash, will settle the key's entry. A key the cache
// could not take still gets a mapping — to a detached entry holding only the
// key — as the ACK applies to whichever entry holds the key when it arrives.
func (c *Cache) onLoggedUpdate(hash uint32, key, value []byte) {
	e := c.onUpdate(key, value)
	if e == nil {
		e = c.alloc(key, keyHash(key))
	}
	e.refs++
	if old, ok := c.acks[hash]; ok {
		c.release(old, 1)
	}
	c.acks[hash] = e
}

func (c *Cache) update(e *cacheEntry, value []byte) {
	switch e.state {
	case CacheInvalid, CachePersisted:
		e.set(CachePending, value, nil) // T1, T3
		c.touch(e)
	case CachePending:
		e.set(CacheStale, nil, nil) // T4: superseded before the server persisted
	case CacheStale:
		// T5: remains stale.
	}
}

// supersede records an update-req to key that will not become its Pending
// value — one the device could not log, a delete, a PUT spread over fragments.
// The server applies it all the same, so whatever the entry holds is no
// longer the key's latest value and must stop serving: Persisted → Invalid;
// Pending → Stale, which keeps the entry for the logged update's server-ACK
// to retire (T6).
func (c *Cache) supersede(key []byte) {
	e := c.find(key)
	if e == nil {
		return
	}
	switch e.state {
	case CachePersisted:
		e.set(CacheInvalid, nil, nil)
	case CachePending:
		e.set(CacheStale, nil, nil)
	}
}

// OnServerAck applies the transitions for the server-ACK of an update to key
// (T2, T6 in Figure 11).
func (c *Cache) OnServerAck(key string) { c.ack(c.find([]byte(key))) }

// onServerAck is OnServerAck for the logged update with hash. Its key is the
// one its entry held then: if that entry has since been evicted, the ACK
// goes to the key's current entry, if any.
func (c *Cache) onServerAck(hash uint32) {
	e, ok := c.acks[hash]
	if !ok {
		return
	}
	delete(c.acks, hash)
	target := e
	if !e.resident {
		target = c.find(e.key)
	}
	c.release(e, 1)
	c.ack(target)
}

func (c *Cache) ack(e *cacheEntry) {
	if e == nil {
		return
	}
	switch e.state {
	case CachePending:
		e.state = CachePersisted // T2
	case CacheStale:
		e.set(CacheInvalid, nil, nil) // T6
	}
}

// OnReadResponse fills the cache from a server read response (step 5 in
// Figure 10). It only installs the value when no in-flight update owns the
// entry — overwriting a Pending/Stale entry with a possibly older server
// value would break consistency.
func (c *Cache) OnReadResponse(key string, value []byte) { c.onReadResponse([]byte(key), value, nil) }

// onReadResponse is OnReadResponse for a key still in its packet. payload is
// the response the pair was decoded from: when it is exactly what a hit
// would encode, hits send it as it is.
func (c *Cache) onReadResponse(key, value, payload []byte) {
	if len(payload) != 2+uvarintLen(len(key))+len(key)+uvarintLen(len(value))+len(value) {
		payload = nil // more arguments, trailing bytes or a padded length
	}
	if e := c.find(key); e != nil {
		if e.state == CacheInvalid {
			e.set(CachePersisted, value, payload)
			c.touch(e)
			c.stats.Fills++
		}
	} else if c.insert(key, CachePersisted, value, payload) != nil {
		c.stats.Fills++
	}
}

// uvarintLen is the size of n's uvarint encoding.
func uvarintLen(n int) int { return (bits.Len64(uint64(n)|1) + 6) / 7 }
