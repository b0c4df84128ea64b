package apps

// A reference model of the Redis handler and the fuzz target that holds the
// handler to it. The model keeps every value in Go maps and slices — no PM,
// no stored encoding, no views — and answers each request the way the
// handler's contract says: the same status, the same arguments, the same
// error text. FuzzRedisHandler feeds both whatever decodes as a request;
// rediskv's FuzzStoreMatchesModel is the layer below (stored bytes and PM
// accesses against the old whole-value encoder).

import (
	"bytes"
	"fmt"
	"strconv"
	"testing"

	"pmnet/internal/kv"
	"pmnet/internal/protocol"
	"pmnet/internal/rediskv"
)

type modelValue struct {
	tag   byte // 'S' string, 'C' counter, 'L' list, 'Z' set: rediskv's tags, quoted in its errors
	str   []byte
	n     int64
	items [][]byte
}

type modelRedis map[string]*modelValue

// modelTags is the type of value each typed command works on.
var modelTags = map[string]byte{"INCR": 'C', "LPUSH": 'L', "LRANGE": 'L', "LLEN": 'L',
	"SADD": 'Z', "SISMEMBER": 'Z', "SCARD": 'Z'}

func reply(st protocol.Status, args ...[]byte) protocol.Response {
	return protocol.Response{Status: st, Args: args}
}

func replyNumber(n int) protocol.Response {
	return reply(protocol.StatusOK, []byte(strconv.Itoa(n)))
}

// typed finds key's value for a command on values tagged want. A value of
// another type is the error response rediskv's ErrWrongType produces.
func (m modelRedis) typed(key []byte, want byte) (*modelValue, *protocol.Response) {
	v := m[string(key)]
	if v != nil && v.tag != want {
		r := reply(protocol.StatusError, []byte(fmt.Sprintf("%v: key %q holds %c, want %c", rediskv.ErrWrongType, key, v.tag, want)))
		return nil, &r
	}
	return v, nil
}

func (m modelRedis) get(key []byte) protocol.Response {
	v, bad := m.typed(key, 'S')
	switch {
	case bad != nil:
		return *bad
	case v == nil:
		return reply(protocol.StatusNotFound, key)
	}
	return reply(protocol.StatusOK, key, v.str)
}

func (m modelRedis) set(key, value []byte) protocol.Response {
	m[string(key)] = &modelValue{tag: 'S', str: bytes.Clone(value)}
	return reply(protocol.StatusOK)
}

func (m modelRedis) handle(req protocol.Request) protocol.Response {
	switch {
	case req.Op == protocol.OpGet && len(req.Args) >= 1:
		return m.get(req.Args[0])
	case req.Op == protocol.OpPut && len(req.Args) >= 2:
		return m.set(req.Args[0], req.Args[1])
	case req.Op != protocol.OpTxn || len(req.Args) < 1:
		return reply(protocol.StatusError)
	}
	cmd, args := string(req.Args[0]), req.Args[1:]
	if len(args) < redisArity[cmd] {
		return reply(protocol.StatusError, []byte("too few arguments for "+cmd))
	}
	tag, known := modelTags[cmd]
	var v *modelValue
	if known {
		var bad *protocol.Response
		if v, bad = m.typed(args[0], tag); bad != nil {
			return *bad
		}
		if v == nil {
			v = &modelValue{tag: tag} // stored below only by the commands that write
		}
	}
	isMember := func(member []byte) bool {
		for _, it := range v.items {
			if bytes.Equal(it, member) {
				return true
			}
		}
		return false
	}
	switch cmd {
	case "SET":
		return m.set(args[0], args[1])
	case "GET":
		return m.get(args[0])
	case "INCR":
		v.n++
		m[string(args[0])] = v
		return replyNumber(int(v.n))
	case "LPUSH":
		v.items = append([][]byte{bytes.Clone(args[1])}, v.items...)
		if len(v.items) > 100 {
			v.items = v.items[:100]
		}
		m[string(args[0])] = v
		return reply(protocol.StatusOK)
	case "LRANGE":
		start, stop, n := atoi(args[1]), atoi(args[2]), len(v.items)
		if stop < 0 {
			stop += n
		}
		start, stop = max(start, 0), min(stop, n-1)
		if start > stop {
			return reply(protocol.StatusOK)
		}
		return reply(protocol.StatusOK, v.items[start:stop+1]...)
	case "LLEN", "SCARD":
		return replyNumber(len(v.items))
	case "SADD":
		if !isMember(args[1]) {
			v.items = append(v.items, bytes.Clone(args[1]))
			m[string(args[0])] = v
		}
		return reply(protocol.StatusOK)
	case "SISMEMBER":
		if !isMember(args[1]) {
			return reply(protocol.StatusNotFound)
		}
		return reply(protocol.StatusOK)
	case "DEL", "EXISTS":
		if m[string(args[0])] == nil {
			return reply(protocol.StatusNotFound)
		}
		if cmd == "DEL" {
			delete(m, string(args[0]))
		}
		return reply(protocol.StatusOK)
	}
	return reply(protocol.StatusError, []byte("unknown command "+cmd))
}

// fuzzSetup is what the handler and the model hold before the fuzzed request:
// a key of every type, and a timeline at its 100-item bound.
func fuzzSetup() []protocol.Request {
	reqs := []protocol.Request{
		cmd("SET", "s", "string value"), cmd("SET", "e", ""), cmd("INCR", "c"), cmd("INCR", "c"),
		cmd("LPUSH", "l", "one"), cmd("LPUSH", "l", ""), cmd("LPUSH", "l", "three"),
		cmd("SADD", "z", "m1"), cmd("SADD", "z", ""), cmd("SADD", "z", "m3"),
	}
	for i := 0; i < 100; i++ {
		reqs = append(reqs, cmd("LPUSH", "full", fmt.Sprintf("u%d-%d", i%7, i)))
	}
	return reqs
}

func FuzzRedisHandler(f *testing.F) {
	for _, name := range []string{"SET", "GET", "INCR", "LPUSH", "LRANGE", "SADD", "SISMEMBER", "SCARD",
		"DEL", "EXISTS", "LLEN", "BOGUS", ""} {
		for _, key := range []string{"s", "e", "c", "l", "z", "full", "absent"} {
			f.Add(cmd(name, key, "m1", "2").Encode())
			f.Add(cmd(name, key, "-3", "-1").Encode())
			f.Add(cmd(name, key).Encode())
		}
		f.Add(cmd(name).Encode())
	}
	for _, key := range []string{"s", "c", "absent"} {
		f.Add(protocol.GetReq([]byte(key)).Encode())
		f.Add(protocol.PutReq([]byte(key), []byte("v")).Encode())
		f.Add(protocol.DeleteReq([]byte(key)).Encode())
		f.Add(protocol.LockReq([]byte(key)).Encode())
	}
	f.Add(protocol.Request{Op: protocol.OpGet}.Encode())
	f.Add(protocol.Request{Op: protocol.OpPut, Args: [][]byte{[]byte("k")}}.Encode())
	f.Add(protocol.Request{Op: protocol.OpTxn}.Encode())
	f.Add(cmd("LRANGE", "full", "0", "9").Encode())
	f.Add(cmd("LRANGE", "full", "95", "200").Encode())
	f.Add(cmd("LRANGE", "l", "x", "-").Encode())

	setup := fuzzSetup()
	f.Fuzz(func(t *testing.T, payload []byte) {
		// The model has no arena to fill: keep values well inside the store's.
		req, err := protocol.DecodeRequest(payload)
		if err != nil || len(payload) > 4<<10 {
			return
		}
		arena := kv.NewArena(1 << 20)
		defer arena.Device().Release()
		store, err := rediskv.Open(arena)
		if err != nil {
			t.Fatal(err)
		}
		h, m := NewRedisHandler(store, arena), modelRedis{}
		// The request goes in twice: the second meets what the first wrote.
		for i, r := range append(setup[:len(setup):len(setup)], req, req) {
			resp, _ := h.Handle(r) // a panic here is a finding
			got, want := resp.Encode(), m.handle(r).Encode()
			if !bytes.Equal(got, want) {
				t.Fatalf("request %d (%v %q): handler answers %q, model %q", i, r.Op, r.Args, got, want)
			}
		}
	})
}
