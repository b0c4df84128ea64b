package pmnet

import (
	"fmt"

	"pmnet/internal/apps"
	"pmnet/internal/kv"
	"pmnet/internal/rediskv"
)

// EngineNames lists the five PMDK-style storage engines, in the paper's
// order: btree, ctree, rbtree, hashmap, skiplist.
var EngineNames = append([]string(nil), kv.EngineNames...)

// NewKVHandler creates a server request handler backed by one of the five
// persistent index engines (§VI-A2) on a fresh simulated PM arena of
// arenaBytes (0 = 64 MiB). The handler serves OpGet/OpPut/OpDelete and the
// server-side locking primitives of §III-C, charging CPU time derived from
// the engine's actual PM work. Its read responses carry the request's own
// key bytes (Response{Args: {req.Args[0], value}}): legal under the Handler
// contract, which lends a handler the Args array only for the call but lets
// it keep the payload bytes the array points at. The response is the
// handler's scratch, rebuilt by its next Handle — the same contract read the
// other way: the value in it is the engine's own PM bytes (kv.Engine.View),
// which the next update may overwrite, so a caller of Handle that keeps a
// value copies it.
func NewKVHandler(engine string, arenaBytes int) (Handler, error) {
	factory, ok := kv.Factories[engine]
	if !ok {
		return nil, fmt.Errorf("pmnet: unknown engine %q (have %v)", engine, EngineNames)
	}
	if arenaBytes <= 0 {
		arenaBytes = 64 << 20
	}
	arena := kv.NewArena(arenaBytes)
	e, err := factory(arena)
	if err != nil {
		return nil, err
	}
	return apps.NewKVHandler(e, arena), nil
}

// NewRedisHandler creates a server request handler backed by the Redis-like
// persistent store (the paper's PM-optimized Redis analogue). Commands ride
// in TxnReq requests: TxnReq([]byte("SET"), key, value), and so on for GET,
// INCR, LPUSH, LRANGE, SADD, SISMEMBER, SCARD. Plain PutReq/GetReq map to
// string SET/GET. Its responses are valid until its next Handle, like
// NewKVHandler's: values and list items are read in place from the store.
func NewRedisHandler(arenaBytes int) (Handler, error) {
	if arenaBytes <= 0 {
		arenaBytes = 64 << 20
	}
	arena := kv.NewArena(arenaBytes)
	store, err := rediskv.Open(arena)
	if err != nil {
		return nil, err
	}
	return apps.NewRedisHandler(store, arena), nil
}
