// Package apps provides the server-side request handlers that bind the
// PMNet server library to the persistent storage engines: a KV handler for
// the five PMDK-style engines (with server-side locks for TPCC's critical
// sections) and a Redis handler for the Retwis/Twitter workload. Each
// handler charges CPU time derived from the actual PM work the engine
// performed, so "server processing time" in the experiments is an emergent
// property of the data structures, as on the paper's testbed.
package apps

import (
	"strconv"

	"pmnet/internal/kv"
	"pmnet/internal/pmem"
	"pmnet/internal/pmobj"
	"pmnet/internal/protocol"
	"pmnet/internal/rediskv"
	"pmnet/internal/sim"
)

// CostModel converts engine PM activity into simulated CPU time.
type CostModel struct {
	Base       sim.Time // fixed dispatch/parse cost per request
	PerRead    sim.Time // per PM read access
	PerWrite   sim.Time // per PM write access
	PerPersist sim.Time // per persist barrier (clwb+fence)
}

// DefaultCost is calibrated so a typical engine request costs 10–15 µs —
// the request-processing share of Figure 2's breakdown (user-space wakeup,
// parsing and dispatch on top of the engine's PM work).
func DefaultCost() CostModel {
	return CostModel{
		Base:       8000, // ns: socket wakeup + dispatch + reply
		PerRead:    60,
		PerWrite:   80,
		PerPersist: 273,
	}
}

// Charge computes the cost of the work between two device snapshots.
func (m CostModel) Charge(before, after pmem.Stats) sim.Time {
	c := m.Base
	c += sim.Time(after.Reads-before.Reads) * m.PerRead
	c += sim.Time(after.Writes-before.Writes) * m.PerWrite
	c += sim.Time(after.Persists-before.Persists) * m.PerPersist
	return c
}

// lockTable implements the server-side synchronization primitive of §III-C.
// It is volatile: after a server crash all locks are implicitly released
// (their owners' critical sections are re-driven by client retries).
type lockTable struct {
	locks map[string]string // lock name → owner
}

func newLockTable() *lockTable { return &lockTable{locks: make(map[string]string)} }

func (lt *lockTable) acquire(name, owner string) protocol.Status {
	if cur, held := lt.locks[name]; held && cur != owner {
		return protocol.StatusLocked
	}
	lt.locks[name] = owner
	return protocol.StatusOK
}

func (lt *lockTable) release(name, owner string) protocol.Status {
	if cur, held := lt.locks[name]; held && cur == owner {
		delete(lt.locks, name)
	}
	return protocol.StatusOK
}

func lockArgs(req protocol.Request) (name, owner string) {
	if len(req.Args) > 0 {
		name = string(req.Args[0])
	}
	if len(req.Args) > 1 {
		owner = string(req.Args[1])
	}
	return
}

// respArgs is a handler's response-argument scratch: the array behind the
// Args of the response it last returned, reused by the next. The bytes the
// array points at need live no longer: a value read in place from the arena,
// the store's item array, a number formatted into the handler's own buffer.
// The contract on server.Handler lets a handler do both — the caller encodes
// the response before anything writes the store or calls Handle again.
type respArgs [][]byte

func (r *respArgs) of(args ...[]byte) [][]byte {
	*r = append((*r)[:0], args...)
	return *r
}

// KVHandler serves GET/PUT/DELETE and lock requests on one storage engine.
type KVHandler struct {
	Engine kv.Engine
	Cost   CostModel
	arena  *pmobj.Arena
	dev    *pmem.Device
	locks  *lockTable
	args   respArgs
}

// NewKVHandler builds a handler over an engine living on arena.
func NewKVHandler(engine kv.Engine, arena *pmobj.Arena) *KVHandler {
	return &KVHandler{
		Engine: engine,
		Cost:   DefaultCost(),
		arena:  arena,
		dev:    arena.Device(),
		locks:  newLockTable(),
	}
}

// ResetLocks drops all locks (called from the server's OnRestart hook).
func (h *KVHandler) ResetLocks() { h.locks = newLockTable() }

// Crash loses the handler's volatile state in lockstep with its server: the
// locks are released. The engine's PM needs nothing, since every write is
// durable on return; a commit cut short is Restart's to replay or discard.
func (h *KVHandler) Crash() { h.locks = newLockTable() }

// Restart replays any in-flight engine transaction from the redo log and
// reattaches the engine handle.
func (h *KVHandler) Restart() {
	if err := h.arena.Reopen(); err != nil {
		panic("apps: arena recovery failed: " + err.Error())
	}
	e, err := kv.Factories[h.Engine.Name()](h.arena)
	if err != nil {
		panic("apps: engine reattach failed: " + err.Error())
	}
	h.Engine = e
}

// Handle implements server.Handler.
func (h *KVHandler) Handle(req protocol.Request) (protocol.Response, sim.Time) {
	before := h.dev.Stats()
	resp := h.apply(req)
	return resp, h.Cost.Charge(before, h.dev.Stats())
}

func (h *KVHandler) apply(req protocol.Request) protocol.Response {
	switch req.Op {
	case protocol.OpGet:
		if len(req.Args) < 1 {
			return protocol.Response{Status: protocol.StatusError}
		}
		v, ok := h.Engine.View(req.Args[0])
		if !ok {
			return protocol.Response{Status: protocol.StatusNotFound, Args: h.args.of(req.Args[0])}
		}
		// [key, value] so the in-network cache can index the response.
		return protocol.Response{Status: protocol.StatusOK, Args: h.args.of(req.Args[0], v)}
	case protocol.OpPut:
		if len(req.Args) < 2 {
			return protocol.Response{Status: protocol.StatusError}
		}
		if err := h.Engine.Put(req.Args[0], req.Args[1]); err != nil {
			return protocol.Response{Status: protocol.StatusError, Args: [][]byte{[]byte(err.Error())}}
		}
		return protocol.Response{Status: protocol.StatusOK}
	case protocol.OpDelete:
		if len(req.Args) < 1 {
			return protocol.Response{Status: protocol.StatusError}
		}
		ok, err := h.Engine.Delete(req.Args[0])
		if err != nil {
			return protocol.Response{Status: protocol.StatusError}
		}
		if !ok {
			return protocol.Response{Status: protocol.StatusNotFound}
		}
		return protocol.Response{Status: protocol.StatusOK}
	case protocol.OpScan:
		if len(req.Args) < 2 {
			return protocol.Response{Status: protocol.StatusError}
		}
		pairs, err := kv.Scan(h.Engine, req.Args[0], atoi(req.Args[1]))
		if err != nil {
			return protocol.Response{Status: protocol.StatusError, Args: [][]byte{[]byte(err.Error())}}
		}
		args := make([][]byte, 0, 2*len(pairs))
		for _, p := range pairs {
			args = append(args, p.Key, p.Value)
		}
		return protocol.Response{Status: protocol.StatusOK, Args: args}
	case protocol.OpLockAcquire:
		name, owner := lockArgs(req)
		return protocol.Response{Status: h.locks.acquire(name, owner)}
	case protocol.OpLockRelease:
		name, owner := lockArgs(req)
		return protocol.Response{Status: h.locks.release(name, owner)}
	default:
		return protocol.Response{Status: protocol.StatusError}
	}
}

// RedisHandler serves the Redis command subset over a rediskv.Store.
// Commands arrive as OpTxn requests: Args[0] = command, then arguments.
type RedisHandler struct {
	Store *rediskv.Store
	Cost  CostModel
	arena *pmobj.Arena
	dev   *pmem.Device
	args  respArgs
	num   [20]byte // the digits of the number last answered
}

// NewRedisHandler builds a handler over a store living on arena.
func NewRedisHandler(store *rediskv.Store, arena *pmobj.Arena) *RedisHandler {
	return &RedisHandler{Store: store, Cost: DefaultCost(), arena: arena, dev: arena.Device()}
}

// Crash does nothing: the store keeps no volatile state, and its PM writes
// are durable on return. It exists because Restart, which recovers the arena,
// comes as a pair with it (pmnet.CrashFaultHandler).
func (h *RedisHandler) Crash() {}

// Restart recovers the arena and reattaches the store.
func (h *RedisHandler) Restart() {
	if err := h.arena.Reopen(); err != nil {
		panic("apps: arena recovery failed: " + err.Error())
	}
	s, err := rediskv.Open(h.arena)
	if err != nil {
		panic("apps: store reattach failed: " + err.Error())
	}
	h.Store = s
}

// Handle implements server.Handler.
func (h *RedisHandler) Handle(req protocol.Request) (protocol.Response, sim.Time) {
	before := h.dev.Stats()
	resp := h.apply(req)
	return resp, h.Cost.Charge(before, h.dev.Stats())
}

// number answers OK with n in decimal.
func (h *RedisHandler) number(n int64) protocol.Response {
	return protocol.Response{Status: protocol.StatusOK, Args: h.args.of(strconv.AppendInt(h.num[:0], n, 10))}
}

// redisArity is the number of arguments each command reads after its name.
// Requests arrive decoded from the wire, so a short one is outside input and
// is answered StatusError, never indexed.
var redisArity = map[string]int{
	"SET": 2, "GET": 1, "INCR": 1, "LPUSH": 2, "LRANGE": 3, "SADD": 2,
	"SISMEMBER": 2, "SCARD": 1, "DEL": 1, "EXISTS": 1, "LLEN": 1,
}

func (h *RedisHandler) apply(req protocol.Request) protocol.Response {
	okResp := protocol.Response{Status: protocol.StatusOK}
	errResp := func(err error) protocol.Response {
		return protocol.Response{Status: protocol.StatusError, Args: [][]byte{[]byte(err.Error())}}
	}
	// Plain KV ops map onto string commands (lets YCSB run against Redis).
	switch req.Op {
	case protocol.OpGet:
		if len(req.Args) < 1 {
			return protocol.Response{Status: protocol.StatusError}
		}
		v, ok, err := h.Store.Get(req.Args[0])
		if err != nil {
			return errResp(err)
		}
		if !ok {
			return protocol.Response{Status: protocol.StatusNotFound, Args: h.args.of(req.Args[0])}
		}
		return protocol.Response{Status: protocol.StatusOK, Args: h.args.of(req.Args[0], v)}
	case protocol.OpPut:
		if len(req.Args) < 2 {
			return protocol.Response{Status: protocol.StatusError}
		}
		if err := h.Store.Set(req.Args[0], req.Args[1]); err != nil {
			return errResp(err)
		}
		return okResp
	case protocol.OpTxn:
		// Redis command.
	default:
		return protocol.Response{Status: protocol.StatusError}
	}
	if len(req.Args) < 1 {
		return protocol.Response{Status: protocol.StatusError}
	}
	cmd := string(req.Args[0])
	args := req.Args[1:]
	if len(args) < redisArity[cmd] {
		return protocol.Response{Status: protocol.StatusError,
			Args: [][]byte{[]byte("too few arguments for " + cmd)}}
	}
	switch cmd {
	case "SET":
		if err := h.Store.Set(args[0], args[1]); err != nil {
			return errResp(err)
		}
		return okResp
	case "GET":
		v, ok, err := h.Store.Get(args[0])
		if err != nil {
			return errResp(err)
		}
		if !ok {
			return protocol.Response{Status: protocol.StatusNotFound, Args: h.args.of(args[0])}
		}
		return protocol.Response{Status: protocol.StatusOK, Args: h.args.of(args[0], v)}
	case "INCR":
		v, err := h.Store.Incr(args[0])
		if err != nil {
			return errResp(err)
		}
		return h.number(v)
	case "LPUSH":
		// Timelines are trimmed retwis-style to bound value growth.
		if _, err := h.Store.LPush(args[0], args[1], 100); err != nil {
			return errResp(err)
		}
		return okResp
	case "LRANGE":
		items, err := h.Store.LRange(args[0], atoi(args[1]), atoi(args[2]))
		if err != nil {
			return errResp(err)
		}
		return protocol.Response{Status: protocol.StatusOK, Args: items}
	case "SADD":
		if _, err := h.Store.SAdd(args[0], args[1]); err != nil {
			return errResp(err)
		}
		return okResp
	case "SISMEMBER":
		m, err := h.Store.SIsMember(args[0], args[1])
		if err != nil {
			return errResp(err)
		}
		if !m {
			return protocol.Response{Status: protocol.StatusNotFound}
		}
		return okResp
	case "SCARD":
		n, err := h.Store.SCard(args[0])
		if err != nil {
			return errResp(err)
		}
		return h.number(int64(n))
	case "DEL":
		ok, err := h.Store.Del(args[0])
		if err != nil {
			return errResp(err)
		}
		if !ok {
			return protocol.Response{Status: protocol.StatusNotFound}
		}
		return okResp
	case "EXISTS":
		if !h.Store.Exists(args[0]) {
			return protocol.Response{Status: protocol.StatusNotFound}
		}
		return okResp
	case "LLEN":
		n, err := h.Store.LLen(args[0])
		if err != nil {
			return errResp(err)
		}
		return h.number(int64(n))
	default:
		return protocol.Response{Status: protocol.StatusError,
			Args: [][]byte{[]byte("unknown command " + cmd)}}
	}
}

func atoi(b []byte) int {
	n := 0
	neg := false
	for i, c := range b {
		if i == 0 && c == '-' {
			neg = true
			continue
		}
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
	}
	if neg {
		return -n
	}
	return n
}
