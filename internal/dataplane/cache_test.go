package dataplane

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestCacheT1InsertPending(t *testing.T) {
	c := NewCache(8)
	c.OnUpdate("k", []byte("v1"))
	if c.State("k") != CachePending {
		t.Fatalf("state = %v, want pending", c.State("k"))
	}
	v, hit := c.Lookup("k")
	if !hit || string(v) != "v1" {
		t.Fatalf("Pending entry must serve reads: %q %v", v, hit)
	}
}

func TestCacheT2AckToPersisted(t *testing.T) {
	c := NewCache(8)
	c.OnUpdate("k", []byte("v1"))
	c.OnServerAck("k")
	if c.State("k") != CachePersisted {
		t.Fatalf("state = %v, want persisted", c.State("k"))
	}
	if v, hit := c.Lookup("k"); !hit || string(v) != "v1" {
		t.Fatal("Persisted entry must serve reads")
	}
}

func TestCacheT3PersistedUpdateBackToPending(t *testing.T) {
	c := NewCache(8)
	c.OnUpdate("k", []byte("v1"))
	c.OnServerAck("k")
	c.OnUpdate("k", []byte("v2"))
	if c.State("k") != CachePending {
		t.Fatalf("state = %v, want pending (T3)", c.State("k"))
	}
	if v, _ := c.Lookup("k"); string(v) != "v2" {
		t.Fatalf("T3 must install the new value, got %q", v)
	}
}

func TestCacheT4PendingUpdateGoesStale(t *testing.T) {
	c := NewCache(8)
	c.OnUpdate("k", []byte("v1"))
	c.OnUpdate("k", []byte("v2")) // second in-flight update
	if c.State("k") != CacheStale {
		t.Fatalf("state = %v, want stale (T4)", c.State("k"))
	}
	if _, hit := c.Lookup("k"); hit {
		t.Fatal("Stale entry must not serve reads")
	}
}

func TestCacheT5StaleStaysStale(t *testing.T) {
	c := NewCache(8)
	c.OnUpdate("k", []byte("v1"))
	c.OnUpdate("k", []byte("v2"))
	c.OnUpdate("k", []byte("v3"))
	if c.State("k") != CacheStale {
		t.Fatalf("state = %v, want stale (T5)", c.State("k"))
	}
}

func TestCacheT6StaleAckToInvalid(t *testing.T) {
	c := NewCache(8)
	c.OnUpdate("k", []byte("v1"))
	c.OnUpdate("k", []byte("v2"))
	c.OnServerAck("k") // first update's ACK
	if c.State("k") != CacheInvalid {
		t.Fatalf("state = %v, want invalid (T6)", c.State("k"))
	}
	if _, hit := c.Lookup("k"); hit {
		t.Fatal("Invalid entry must not serve reads")
	}
}

// TestCacheSupersede: the transition for an update that will not become the
// key's Pending value, from each of the four states.
func TestCacheSupersede(t *testing.T) {
	c := NewCache(8)
	c.supersede([]byte("k"))
	if c.Len() != 0 {
		t.Fatal("superseding an absent key created an entry")
	}
	c.OnReadResponse("k", []byte("v0"))
	c.supersede([]byte("k"))
	if _, hit := c.Lookup("k"); hit || c.State("k") != CacheInvalid {
		t.Fatalf("persisted → %v, want invalid and unservable", c.State("k"))
	}
	c.supersede([]byte("k"))
	if c.State("k") != CacheInvalid {
		t.Fatalf("invalid → %v, want invalid", c.State("k"))
	}
	c.OnUpdate("k", []byte("v1"))
	c.supersede([]byte("k"))
	if _, hit := c.Lookup("k"); hit || c.State("k") != CacheStale {
		t.Fatalf("pending → %v, want stale and unservable", c.State("k"))
	}
	c.supersede([]byte("k"))
	c.OnReadResponse("k", []byte("old")) // a stale entry still refuses fills
	if c.State("k") != CacheStale {
		t.Fatalf("stale → %v, want stale", c.State("k"))
	}
	c.OnServerAck("k") // the pending update's ACK retires it (T6)
	if c.State("k") != CacheInvalid {
		t.Fatalf("stale + server-ACK → %v, want invalid", c.State("k"))
	}
}

func TestCacheReadResponseFill(t *testing.T) {
	c := NewCache(8)
	c.OnReadResponse("k", []byte("server-value"))
	if c.State("k") != CachePersisted {
		t.Fatalf("state = %v, want persisted", c.State("k"))
	}
	if v, hit := c.Lookup("k"); !hit || string(v) != "server-value" {
		t.Fatal("fill must serve reads")
	}
	if c.Stats().Fills != 1 {
		t.Fatal("fill not counted")
	}
}

func TestCacheReadResponseMustNotClobberPending(t *testing.T) {
	c := NewCache(8)
	c.OnUpdate("k", []byte("new"))
	c.OnReadResponse("k", []byte("old-server-value"))
	if v, _ := c.Lookup("k"); string(v) != "new" {
		t.Fatalf("stale fill clobbered pending value: %q", v)
	}
	// Stale entries must not be resurrected either.
	c.OnUpdate("k", []byte("newer"))
	c.OnReadResponse("k", []byte("old"))
	if c.State("k") != CacheStale {
		t.Fatal("fill resurrected a stale entry")
	}
	// Invalid entries may be refilled.
	c.OnServerAck("k")
	c.OnReadResponse("k", []byte("fresh"))
	if v, hit := c.Lookup("k"); !hit || string(v) != "fresh" {
		t.Fatal("invalid entry not refilled")
	}
}

func TestCacheEvictionLRUPersistedOnly(t *testing.T) {
	c := NewCache(2)
	c.OnReadResponse("a", []byte("1"))
	c.OnReadResponse("b", []byte("2"))
	_, _ = c.Lookup("a") // make "b" the LRU
	c.OnReadResponse("c", []byte("3"))
	if _, hit := c.Lookup("b"); hit {
		t.Fatal("LRU entry b should have been evicted")
	}
	if _, hit := c.Lookup("a"); !hit {
		t.Fatal("recently used entry a was evicted")
	}
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d", c.Stats().Evictions)
	}
}

func TestCachePinnedEntriesNotEvicted(t *testing.T) {
	c := NewCache(2)
	c.OnUpdate("p1", []byte("x")) // Pending: pinned
	c.OnUpdate("p2", []byte("y")) // Pending: pinned
	c.OnReadResponse("q", []byte("z"))
	if c.State("p1") != CachePending || c.State("p2") != CachePending {
		t.Fatal("pinned entries were evicted")
	}
	if _, hit := c.Lookup("q"); hit {
		t.Fatal("insert should have failed with all entries pinned")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestCacheMissCounting(t *testing.T) {
	c := NewCache(4)
	_, _ = c.Lookup("nope")
	c.OnUpdate("k", []byte("v"))
	_, _ = c.Lookup("k")
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestCachePanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewCache(0) did not panic")
		}
	}()
	NewCache(0)
}

// Property: the cache never serves a value that was not the most recent
// update or a fill while no update was in flight. We model a single key's
// protocol with a reference implementation of Figure 11.
func TestQuickCacheStateMachine(t *testing.T) {
	type step struct {
		Kind uint8 // 0 update, 1 ack, 2 read-resp, 3 lookup
		Val  uint8
	}
	f := func(steps []step) bool {
		c := NewCache(4)
		state := CacheInvalid
		var value []byte
		exists := false
		for _, s := range steps {
			switch s.Kind % 4 {
			case 0:
				v := []byte{s.Val}
				c.OnUpdate("k", v)
				switch state {
				case CacheInvalid:
					state, value = CachePending, v
				case CachePersisted:
					state, value = CachePending, v
				case CachePending:
					state, value = CacheStale, nil
				}
				exists = true
			case 1:
				c.OnServerAck("k")
				switch state {
				case CachePending:
					state = CachePersisted
				case CacheStale:
					state, value = CacheInvalid, nil
				}
			case 2:
				v := []byte{s.Val}
				c.OnReadResponse("k", v)
				if !exists || state == CacheInvalid {
					state, value = CachePersisted, v
					exists = true
				}
			case 3:
				got, hit := c.Lookup("k")
				wantHit := state == CachePending || state == CachePersisted
				if hit != wantHit {
					return false
				}
				if hit && fmt.Sprintf("%v", got) != fmt.Sprintf("%v", value) {
					return false
				}
			}
			if exists && c.State("k") != state {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
