package main

import (
	"fmt"

	"pmnet"
	"pmnet/internal/apps"
	"pmnet/internal/harness"
	"pmnet/internal/kv"
	"pmnet/internal/openloop"
	"pmnet/internal/rediskv"
	"pmnet/internal/sim"
	"pmnet/internal/workload"
)

// app is the server application of a workload, built the way harness.Run
// builds it (harness.buildHandler is unexported, and the traced run and the
// probes need the pieces it hides: the engine, the store, the prefill).
type app struct {
	handler pmnet.Handler
	prefill func()
	engine  kv.Engine      // kv workloads only
	store   *rediskv.Store // retwis only
}

func buildApp(cfg *harness.RunConfig) (*app, error) {
	switch cfg.Workload {
	case harness.WLIdeal:
		return &app{handler: pmnet.IdealHandler{}, prefill: func() {}}, nil
	case harness.WLTwitter:
		arena := kv.NewArena(64 << 20)
		store, err := rediskv.Open(arena)
		if err != nil {
			return nil, err
		}
		prefill := func() {
			for u := 0; u < 1000; u += 7 {
				_ = store.Set([]byte(fmt.Sprintf("post:c%d-1", u)), []byte("seed post"))
				_, _ = store.LPush([]byte(fmt.Sprintf("timeline:%d", u)), []byte(fmt.Sprintf("c%d-1", u)), 100)
			}
			_ = store.Set([]byte("post:latest"), []byte("latest"))
		}
		return &app{handler: apps.NewRedisHandler(store, arena), prefill: prefill, store: store}, nil
	}
	factory, ok := kv.Factories[string(cfg.Workload)]
	if !ok {
		return nil, fmt.Errorf("bench: no app for workload %q", cfg.Workload)
	}
	arena := kv.NewArena(128 << 20)
	engine, err := factory(arena)
	if err != nil {
		return nil, err
	}
	keys, size := cfg.Keys, cfg.ValueSize
	prefill := func() {
		for i := 0; i < keys; i++ {
			if err := engine.Put(workload.YCSBKey(i), make([]byte, size)); err != nil {
				panic(err)
			}
		}
	}
	return &app{handler: apps.NewKVHandler(engine, arena), prefill: prefill, engine: engine}, nil
}

// newGenerator is the closed-loop request generator harness.Run gives a
// client of a YCSB-style workload.
func newGenerator(cfg *harness.RunConfig, r *sim.Rand) workload.Generator {
	return workload.NewYCSB(r, workload.YCSBConfig{
		Keys: cfg.Keys, UpdateRatio: cfg.UpdateRatio, ValueSize: cfg.ValueSize, Zipfian: cfg.Zipfian})
}

// opStream draws n requests from the workload's own generator, so a probe
// sees the workload's value size, key distribution and op mix.
func opStream(w spec, cfg *harness.RunConfig, n int) []workload.Op {
	r := sim.NewRand(cfg.Seed + 77).Fork()
	ops := make([]workload.Op, 0, n)
	if w.open() {
		mix := openloop.NewTwitterMix(cfg.Users, cfg.UpdateRatio, cfg.ValueSize)
		for seq := uint64(0); len(ops) < n; seq++ {
			ops = mix.Action(r, r.Intn(cfg.Users), seq, ops)
		}
		return ops[:n]
	}
	gen := newGenerator(cfg, r)
	for len(ops) < n {
		ops = append(ops, gen.Next())
	}
	return ops
}
