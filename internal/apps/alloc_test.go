package apps

import (
	"fmt"
	"strconv"
	"testing"

	"pmnet/internal/kv"
	"pmnet/internal/protocol"
	"pmnet/internal/raceflag"
)

// TestRedisCommandAllocs pins Handle on each retwis command to zero
// allocations in steady state: the store reads and builds values in place
// (rediskv's test of the same name), the response's arguments go in the
// handler's scratch array, and a number is formatted into the handler's own
// buffer. What a request costs the heap is then its payloads, in the client
// and the server library — not the application.
func TestRedisCommandAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	h := newRedisHandler(t)
	ok := func(req protocol.Request) {
		if resp, _ := h.Handle(req); resp.Status != protocol.StatusOK {
			t.Fatalf("%q: %v %q", req.Args, resp.Status, resp.Args)
		}
	}
	for i := 0; i < 100; i++ { // a timeline at its bound: every push trims
		ok(cmd("LPUSH", "timeline:7", fmt.Sprintf("u999999-%d", 1000000+i)))
	}
	ok(cmd("SET", "big", string(make([]byte, 8<<10)))) // the store's buffer has grown
	sadd, n := cmd("SADD", "followers:7", "0"), 0
	member := make([]byte, 0, 20)
	for _, c := range []struct {
		name string
		req  protocol.Request
		prep func()
	}{
		{"SET", cmd("SET", "post:u7-1", string(make([]byte, 100))), nil},
		{"INCR", cmd("INCR", "next_post_id"), nil},
		{"LPUSH onto a full timeline", cmd("LPUSH", "timeline:7", "u999999-1000000"), nil},
		{"SADD of a new member", sadd, func() {
			n++
			member = strconv.AppendInt(member[:0], int64(n), 10)
			sadd.Args[2] = member
		}},
		{"SADD of a duplicate", sadd, nil},
		{"LRANGE 0..9", cmd("LRANGE", "timeline:7", "0", "9"), nil},
		{"GET", cmd("GET", "post:u7-1"), nil},
		{"LLEN", cmd("LLEN", "timeline:7"), nil},
		{"SCARD", cmd("SCARD", "followers:7"), nil},
	} {
		run := func() {
			if c.prep != nil {
				c.prep()
			}
			ok(c.req)
		}
		run()
		if got := testing.AllocsPerRun(200, run); got != 0 {
			t.Errorf("%s allocated %.2f objects, want 0", c.name, got)
		}
	}
}

// TestKVGetAllocs pins a KV GET that hits to zero allocations on every
// engine: the value in the response is the arena's own bytes (Engine.View),
// which the server library encodes before anything writes the arena.
func TestKVGetAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	for _, engine := range kv.EngineNames {
		h := newKVHandler(t, engine)
		keys := make([]protocol.Request, 500)
		for i := range keys {
			key := []byte(fmt.Sprintf("key%05d", i))
			h.Handle(protocol.PutReq(key, []byte("0123456789abcdef0123456789abcdef")))
			keys[i] = protocol.GetReq(key)
		}
		i := 0
		got := testing.AllocsPerRun(500, func() {
			resp, _ := h.Handle(keys[i%len(keys)])
			if resp.Status != protocol.StatusOK || len(resp.Args[1]) != 32 {
				t.Fatalf("%s: GET answered %v %q", engine, resp.Status, resp.Args)
			}
			i += 7
		})
		if got != 0 {
			t.Errorf("%s: GET allocated %.2f objects, want 0", engine, got)
		}
	}
}
