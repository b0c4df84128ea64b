package dataplane

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
// evicted entry is recycled for the next new key.
type cacheEntry struct {
	key        string
	state      CacheState
	value      []byte
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
// for in-flight updates (Pending/Stale).
type Cache struct {
	capacity int
	entries  map[string]*cacheEntry
	lru      cacheEntry    // ring sentinel: lru.next is the most recent entry, lru.prev the least
	free     []*cacheEntry // evicted entries awaiting reuse
	stats    CacheStats
}

// NewCache creates a cache bounded to capacity entries. capacity must be
// positive.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		panic("dataplane: cache capacity must be positive")
	}
	c := &Cache{capacity: capacity, entries: make(map[string]*cacheEntry, capacity)}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// Stats returns a copy of the cache counters.
func (c *Cache) Stats() CacheStats { return c.stats }

// Len returns the number of entries (any state).
func (c *Cache) Len() int { return len(c.entries) }

// State returns the protocol state of key (CacheInvalid if absent).
func (c *Cache) State(key string) CacheState {
	if e, ok := c.entries[key]; ok {
		return e.state
	}
	return CacheInvalid
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

// evictOne removes the least recently used entry whose state permits
// eviction. Returns false if every entry is protocol-pinned.
func (c *Cache) evictOne() bool {
	//pmnetlint:ignore boundedwork walk is capped by the cache capacity (the ring holds <= c.capacity entries, a fixed table size)
	for e := c.lru.prev; e != &c.lru; e = e.prev {
		if e.state == CachePending || e.state == CacheStale {
			continue // pinned: holds in-flight protocol state
		}
		e.unlink()
		delete(c.entries, e.key)
		*e = cacheEntry{}
		c.free = append(c.free, e)
		c.stats.Evictions++
		return true
	}
	return false
}

func (c *Cache) insert(key string, state CacheState, value []byte) *cacheEntry {
	if len(c.entries) >= c.capacity {
		if !c.evictOne() {
			return nil // cache full of pinned entries
		}
	}
	var e *cacheEntry
	if k := len(c.free) - 1; k >= 0 {
		e, c.free = c.free[k], c.free[:k]
	} else {
		e = new(cacheEntry)
	}
	e.key, e.state, e.value = key, state, value
	c.pushFront(e)
	c.entries[key] = e
	return e
}

// Lookup serves a read: on a hit (entry Pending or Persisted) it returns the
// value. The miss counter includes unservable (Stale/Invalid) entries.
func (c *Cache) Lookup(key string) ([]byte, bool) { return c.serve(c.entries[key]) }

// lookup is Lookup for a key still in its packet: no string is built.
func (c *Cache) lookup(key []byte) ([]byte, bool) { return c.serve(c.entries[string(key)]) }

func (c *Cache) serve(e *cacheEntry) ([]byte, bool) {
	if e == nil || !e.state.servable() {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	c.touch(e)
	return e.value, true
}

// OnUpdate applies the state transitions for an update-req to key carrying
// value (T1, T3, T4, T5 in Figure 11).
func (c *Cache) OnUpdate(key string, value []byte) {
	if e := c.entries[key]; e != nil {
		c.update(e, value)
		return
	}
	c.insert(key, CachePending, value) // T1
}

// onUpdate is OnUpdate for a key still in its packet. It returns the key as
// a string for the device's hash→key map: the entry's own when the key is
// resident, so only a new key costs a string.
func (c *Cache) onUpdate(key, value []byte) string {
	if e := c.entries[string(key)]; e != nil {
		c.update(e, value)
		return e.key
	}
	k := string(key)
	c.insert(k, CachePending, value) // T1
	return k
}

func (c *Cache) update(e *cacheEntry, value []byte) {
	switch e.state {
	case CacheInvalid:
		e.state = CachePending // T1
		e.value = value
		c.touch(e)
	case CachePersisted:
		e.state = CachePending // T3
		e.value = value
		c.touch(e)
	case CachePending:
		e.state = CacheStale // T4: superseded before the server persisted
		e.value = nil
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
	e := c.entries[string(key)]
	if e == nil {
		return
	}
	switch e.state {
	case CachePersisted:
		e.state = CacheInvalid
		e.value = nil
	case CachePending:
		e.state = CacheStale
		e.value = nil
	}
}

// OnServerAck applies the transitions for the server-ACK of an update to key
// (T2, T6 in Figure 11).
func (c *Cache) OnServerAck(key string) {
	e, ok := c.entries[key]
	if !ok {
		return
	}
	switch e.state {
	case CachePending:
		e.state = CachePersisted // T2
	case CacheStale:
		e.state = CacheInvalid // T6
		e.value = nil
	}
}

// OnReadResponse fills the cache from a server read response (step 5 in
// Figure 10). It only installs the value when no in-flight update owns the
// entry — overwriting a Pending/Stale entry with a possibly older server
// value would break consistency.
func (c *Cache) OnReadResponse(key string, value []byte) {
	if e := c.entries[key]; e != nil {
		c.fill(e, value)
	} else if c.insert(key, CachePersisted, value) != nil {
		c.stats.Fills++
	}
}

// onReadResponse is OnReadResponse for a key still in its packet.
func (c *Cache) onReadResponse(key, value []byte) {
	if e := c.entries[string(key)]; e != nil {
		c.fill(e, value)
	} else if c.insert(string(key), CachePersisted, value) != nil {
		c.stats.Fills++
	}
}

func (c *Cache) fill(e *cacheEntry, value []byte) {
	if e.state == CacheInvalid {
		e.state = CachePersisted
		e.value = value
		c.touch(e)
		c.stats.Fills++
	}
}
