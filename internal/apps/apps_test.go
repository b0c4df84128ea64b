package apps

import (
	"fmt"
	"testing"

	"pmnet/internal/kv"
	"pmnet/internal/protocol"
	"pmnet/internal/rediskv"
	"pmnet/internal/sim"
)

func newKVHandler(t *testing.T, engine string) *KVHandler {
	t.Helper()
	a := kv.NewArena(8 << 20)
	e, err := kv.Factories[engine](a)
	if err != nil {
		t.Fatal(err)
	}
	return NewKVHandler(e, a)
}

func TestKVHandlerPutGetDelete(t *testing.T) {
	h := newKVHandler(t, "btree")
	resp, cost := h.Handle(protocol.PutReq([]byte("k"), []byte("v")))
	if resp.Status != protocol.StatusOK {
		t.Fatalf("put: %+v", resp)
	}
	if cost <= h.Cost.Base {
		t.Fatalf("put cost %v should exceed base %v (PM work)", cost, h.Cost.Base)
	}
	resp, _ = h.Handle(protocol.GetReq([]byte("k")))
	if resp.Status != protocol.StatusOK || string(resp.Args[0]) != "k" || string(resp.Args[1]) != "v" {
		t.Fatalf("get: %+v", resp)
	}
	resp, _ = h.Handle(protocol.GetReq([]byte("missing")))
	if resp.Status != protocol.StatusNotFound {
		t.Fatalf("miss: %+v", resp)
	}
	resp, _ = h.Handle(protocol.DeleteReq([]byte("k")))
	if resp.Status != protocol.StatusOK {
		t.Fatalf("delete: %+v", resp)
	}
	resp, _ = h.Handle(protocol.DeleteReq([]byte("k")))
	if resp.Status != protocol.StatusNotFound {
		t.Fatalf("double delete: %+v", resp)
	}
}

func TestKVHandlerAllEngines(t *testing.T) {
	for _, name := range kv.EngineNames {
		h := newKVHandler(t, name)
		if resp, _ := h.Handle(protocol.PutReq([]byte("a"), []byte("1"))); resp.Status != protocol.StatusOK {
			t.Fatalf("%s put failed", name)
		}
		if resp, _ := h.Handle(protocol.GetReq([]byte("a"))); string(resp.Args[1]) != "1" {
			t.Fatalf("%s get failed", name)
		}
	}
}

func lockReq(op protocol.Op, name, owner string) protocol.Request {
	return protocol.Request{Op: op, Args: [][]byte{[]byte(name), []byte(owner)}}
}

func TestKVHandlerLockSemantics(t *testing.T) {
	h := newKVHandler(t, "hashmap")
	// First client acquires.
	if resp, _ := h.Handle(lockReq(protocol.OpLockAcquire, "stock:1", "c1")); resp.Status != protocol.StatusOK {
		t.Fatal("c1 acquire failed")
	}
	// Second client blocked.
	if resp, _ := h.Handle(lockReq(protocol.OpLockAcquire, "stock:1", "c2")); resp.Status != protocol.StatusLocked {
		t.Fatal("c2 acquired a held lock")
	}
	// Re-entrant for the owner.
	if resp, _ := h.Handle(lockReq(protocol.OpLockAcquire, "stock:1", "c1")); resp.Status != protocol.StatusOK {
		t.Fatal("owner re-acquire failed")
	}
	// Release by a non-owner is a no-op.
	_, _ = h.Handle(lockReq(protocol.OpLockRelease, "stock:1", "c2"))
	if resp, _ := h.Handle(lockReq(protocol.OpLockAcquire, "stock:1", "c2")); resp.Status != protocol.StatusLocked {
		t.Fatal("non-owner release freed the lock")
	}
	// Owner release frees it.
	_, _ = h.Handle(lockReq(protocol.OpLockRelease, "stock:1", "c1"))
	if resp, _ := h.Handle(lockReq(protocol.OpLockAcquire, "stock:1", "c2")); resp.Status != protocol.StatusOK {
		t.Fatal("lock not released")
	}
	// ResetLocks (crash) releases everything.
	h.ResetLocks()
	if resp, _ := h.Handle(lockReq(protocol.OpLockAcquire, "stock:1", "c3")); resp.Status != protocol.StatusOK {
		t.Fatal("locks survived reset")
	}
}

func newRedisHandler(t *testing.T) *RedisHandler {
	t.Helper()
	a := kv.NewArena(8 << 20)
	s, err := rediskv.Open(a)
	if err != nil {
		t.Fatal(err)
	}
	return NewRedisHandler(s, a)
}

func cmd(name string, args ...string) protocol.Request {
	bs := make([][]byte, 0, len(args))
	for _, a := range args {
		bs = append(bs, []byte(a))
	}
	return protocol.TxnReq([]byte(name), bs...)
}

func TestRedisHandlerCommands(t *testing.T) {
	h := newRedisHandler(t)
	if resp, _ := h.Handle(cmd("SET", "k", "v")); resp.Status != protocol.StatusOK {
		t.Fatal("SET failed")
	}
	if resp, _ := h.Handle(cmd("GET", "k")); string(resp.Args[1]) != "v" {
		t.Fatalf("GET: %+v", resp)
	}
	if resp, _ := h.Handle(cmd("GET", "absent")); resp.Status != protocol.StatusNotFound {
		t.Fatal("GET absent")
	}
	if resp, _ := h.Handle(cmd("INCR", "ctr")); string(resp.Args[0]) != "1" {
		t.Fatalf("INCR: %+v", resp)
	}
	if resp, _ := h.Handle(cmd("INCR", "ctr")); string(resp.Args[0]) != "2" {
		t.Fatal("INCR twice")
	}
	_, _ = h.Handle(cmd("LPUSH", "tl", "p1"))
	_, _ = h.Handle(cmd("LPUSH", "tl", "p2"))
	resp, _ := h.Handle(cmd("LRANGE", "tl", "0", "9"))
	if resp.Status != protocol.StatusOK || len(resp.Args) != 2 || string(resp.Args[0]) != "p2" {
		t.Fatalf("LRANGE: %+v", resp)
	}
	if resp, _ := h.Handle(cmd("SADD", "s", "m")); resp.Status != protocol.StatusOK {
		t.Fatal("SADD")
	}
	if resp, _ := h.Handle(cmd("SISMEMBER", "s", "m")); resp.Status != protocol.StatusOK {
		t.Fatal("SISMEMBER hit")
	}
	if resp, _ := h.Handle(cmd("SISMEMBER", "s", "x")); resp.Status != protocol.StatusNotFound {
		t.Fatal("SISMEMBER miss")
	}
	if resp, _ := h.Handle(cmd("SCARD", "s")); string(resp.Args[0]) != "1" {
		t.Fatal("SCARD")
	}
	if resp, _ := h.Handle(cmd("BOGUS", "x")); resp.Status != protocol.StatusError {
		t.Fatal("unknown command accepted")
	}
	if resp, _ := h.Handle(cmd("LLEN", "tl")); string(resp.Args[0]) != "2" {
		t.Fatal("LLEN")
	}
	if resp, _ := h.Handle(cmd("EXISTS", "k")); resp.Status != protocol.StatusOK {
		t.Fatal("EXISTS hit")
	}
	if resp, _ := h.Handle(cmd("DEL", "k")); resp.Status != protocol.StatusOK {
		t.Fatal("DEL")
	}
	if resp, _ := h.Handle(cmd("EXISTS", "k")); resp.Status != protocol.StatusNotFound {
		t.Fatal("EXISTS after DEL")
	}
	if resp, _ := h.Handle(cmd("DEL", "k")); resp.Status != protocol.StatusNotFound {
		t.Fatal("double DEL")
	}
}

func TestRedisHandlerPlainKVOps(t *testing.T) {
	h := newRedisHandler(t)
	if resp, _ := h.Handle(protocol.PutReq([]byte("yk"), []byte("yv"))); resp.Status != protocol.StatusOK {
		t.Fatal("plain PUT")
	}
	resp, _ := h.Handle(protocol.GetReq([]byte("yk")))
	if string(resp.Args[1]) != "yv" {
		t.Fatal("plain GET")
	}
}

// TestShortRequestsAnswerError: requests reach a handler decoded from the
// wire, so one with fewer arguments than its command reads is outside input.
// Both handlers must answer StatusError, not index past the arguments.
func TestShortRequestsAnswerError(t *testing.T) {
	type handler interface {
		Handle(protocol.Request) (protocol.Response, sim.Time)
	}
	k := []byte("k")
	cases := []struct {
		name string
		h    handler
		req  protocol.Request
	}{
		{"kv GET no key", newKVHandler(t, "btree"), protocol.Request{Op: protocol.OpGet}},
		{"kv PUT no value", newKVHandler(t, "btree"), protocol.Request{Op: protocol.OpPut, Args: [][]byte{k}}},
		{"kv DELETE no key", newKVHandler(t, "btree"), protocol.Request{Op: protocol.OpDelete}},
		{"kv SCAN no limit", newKVHandler(t, "btree"), protocol.Request{Op: protocol.OpScan, Args: [][]byte{k}}},
		{"redis GET op no key", newRedisHandler(t), protocol.Request{Op: protocol.OpGet}},
		{"redis PUT op no value", newRedisHandler(t), protocol.Request{Op: protocol.OpPut, Args: [][]byte{k}}},
		{"redis TXN no command", newRedisHandler(t), protocol.Request{Op: protocol.OpTxn}},
	}
	for name, arity := range redisArity {
		for n := 0; n < arity; n++ {
			args := []string{"k", "0", "9"}[:n]
			cases = append(cases, struct {
				name string
				h    handler
				req  protocol.Request
			}{fmt.Sprintf("redis %s with %d of %d", name, n, arity), newRedisHandler(t), cmd(name, args...)})
		}
	}
	for _, c := range cases {
		resp, _ := c.h.Handle(c.req) // a panic here is the regression
		if resp.Status != protocol.StatusError {
			t.Errorf("%s: status %v, want StatusError", c.name, resp.Status)
		}
	}
}

func TestRedisHandlerWrongType(t *testing.T) {
	h := newRedisHandler(t)
	_, _ = h.Handle(cmd("SET", "k", "v"))
	if resp, _ := h.Handle(cmd("INCR", "k")); resp.Status != protocol.StatusError {
		t.Fatal("INCR on string must error")
	}
}

func TestCostModelCharging(t *testing.T) {
	m := DefaultCost()
	h := newKVHandler(t, "btree")
	// A deeper structure costs more: insert 500 keys then measure a get.
	for i := 0; i < 500; i++ {
		key := []byte{byte(i >> 8), byte(i), 'k'}
		h.Handle(protocol.PutReq(key, []byte("v")))
	}
	_, getCost := h.Handle(protocol.GetReq([]byte{0, 250, 'k'}))
	if getCost <= m.Base {
		t.Fatalf("get cost %v must include PM read work", getCost)
	}
	_, putCost := h.Handle(protocol.PutReq([]byte{0, 251, 'k'}, []byte("v2")))
	if putCost <= getCost {
		t.Fatalf("put (%v) should cost more than get (%v): commit persists", putCost, getCost)
	}
}

func TestAtoi(t *testing.T) {
	for _, c := range []struct {
		in   string
		want int
	}{{"0", 0}, {"42", 42}, {"-1", -1}, {"9abc", 9}, {"", 0}} {
		if got := atoi([]byte(c.in)); got != c.want {
			t.Errorf("atoi(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestKVHandlerScan(t *testing.T) {
	h := newKVHandler(t, "btree")
	for i := 0; i < 20; i++ {
		h.Handle(protocol.PutReq([]byte(fmt.Sprintf("key%03d", i)), []byte(fmt.Sprintf("v%d", i))))
	}
	resp, cost := h.Handle(protocol.ScanReq([]byte("key005"), 4))
	if resp.Status != protocol.StatusOK {
		t.Fatalf("scan: %+v", resp)
	}
	if len(resp.Args) != 8 { // 4 key/value pairs
		t.Fatalf("scan returned %d args", len(resp.Args))
	}
	if string(resp.Args[0]) != "key005" || string(resp.Args[6]) != "key008" {
		t.Fatalf("scan keys %q..%q", resp.Args[0], resp.Args[6])
	}
	if cost <= h.Cost.Base {
		t.Fatal("scan cost must include PM reads")
	}
	// Hashmap rejects scans.
	hm := newKVHandler(t, "hashmap")
	hm.Handle(protocol.PutReq([]byte("k"), []byte("v")))
	if resp, _ := hm.Handle(protocol.ScanReq([]byte("a"), 3)); resp.Status != protocol.StatusError {
		t.Fatal("hashmap scan accepted")
	}
}
