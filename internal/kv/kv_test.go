package kv

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"pmnet/internal/pmobj"
	"pmnet/internal/sim"
)

const arenaSize = 8 << 20

// forEachEngine runs f once per engine on a fresh arena.
func forEachEngine(t *testing.T, f func(t *testing.T, e Engine, a *pmobj.Arena, reopen func() Engine)) {
	t.Helper()
	for _, name := range EngineNames {
		name := name
		t.Run(name, func(t *testing.T) {
			a := NewArena(arenaSize)
			e, err := Factories[name](a)
			if err != nil {
				t.Fatal(err)
			}
			reopen := func() Engine {
				if err := a.Reopen(); err != nil {
					t.Fatal(err)
				}
				e2, err := Factories[name](a)
				if err != nil {
					t.Fatal(err)
				}
				return e2
			}
			f(t, e, a, reopen)
		})
	}
}

func mustPut(t *testing.T, e Engine, k, v string) {
	t.Helper()
	if err := e.Put([]byte(k), []byte(v)); err != nil {
		t.Fatalf("%s: Put(%q): %v", e.Name(), k, err)
	}
}

func mustGet(t *testing.T, e Engine, k, want string) {
	t.Helper()
	got, ok := e.Get([]byte(k))
	if !ok {
		t.Fatalf("%s: Get(%q) missing", e.Name(), k)
	}
	if string(got) != want {
		t.Fatalf("%s: Get(%q) = %q, want %q", e.Name(), k, got, want)
	}
}

func mustMiss(t *testing.T, e Engine, k string) {
	t.Helper()
	if _, ok := e.Get([]byte(k)); ok {
		t.Fatalf("%s: Get(%q) unexpectedly present", e.Name(), k)
	}
}

func mustVerify(t *testing.T, e Engine) {
	t.Helper()
	if err := e.Verify(); err != nil {
		t.Fatalf("%s: Verify: %v", e.Name(), err)
	}
}

func TestEngineBasicOps(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e Engine, a *pmobj.Arena, reopen func() Engine) {
		mustMiss(t, e, "absent")
		mustPut(t, e, "alpha", "1")
		mustPut(t, e, "beta", "2")
		mustPut(t, e, "gamma", "3")
		mustGet(t, e, "alpha", "1")
		mustGet(t, e, "beta", "2")
		mustGet(t, e, "gamma", "3")
		if e.Len() != 3 {
			t.Fatalf("Len = %d", e.Len())
		}
		// Overwrite.
		mustPut(t, e, "beta", "two")
		mustGet(t, e, "beta", "two")
		if e.Len() != 3 {
			t.Fatalf("Len after overwrite = %d", e.Len())
		}
		// Delete.
		ok, err := e.Delete([]byte("alpha"))
		if err != nil || !ok {
			t.Fatalf("Delete: %v %v", ok, err)
		}
		mustMiss(t, e, "alpha")
		if ok, _ := e.Delete([]byte("alpha")); ok {
			t.Fatal("double delete succeeded")
		}
		if e.Len() != 2 {
			t.Fatalf("Len after delete = %d", e.Len())
		}
		mustVerify(t, e)
	})
}

func TestEngineBinaryAndEdgeKeys(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e Engine, a *pmobj.Arena, reopen func() Engine) {
		keys := []string{
			"", "a", "ab", "abc", "b",
			"a\x00", "a\x00b", "\x00", "\x00\x00", "\xff\xff",
			"prefix", "prefixlonger",
		}
		for i, k := range keys {
			mustPut(t, e, k, fmt.Sprintf("v%d", i))
		}
		for i, k := range keys {
			mustGet(t, e, k, fmt.Sprintf("v%d", i))
		}
		if e.Len() != len(keys) {
			t.Fatalf("Len = %d, want %d", e.Len(), len(keys))
		}
		mustVerify(t, e)
		// Delete the prefix-hazard keys specifically.
		for _, k := range []string{"a", "a\x00", "prefix", ""} {
			if ok, err := e.Delete([]byte(k)); !ok || err != nil {
				t.Fatalf("Delete(%q): %v %v", k, ok, err)
			}
		}
		mustMiss(t, e, "a")
		mustGet(t, e, "ab", "v2")
		mustGet(t, e, "a\x00b", "v6")
		mustGet(t, e, "prefixlonger", "v11")
		mustVerify(t, e)
	})
}

func TestEngineEmptyValue(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e Engine, a *pmobj.Arena, reopen func() Engine) {
		mustPut(t, e, "k", "")
		v, ok := e.Get([]byte("k"))
		if !ok || len(v) != 0 {
			t.Fatalf("empty value round trip: %q %v", v, ok)
		}
	})
}

func TestEngineBulkAndOrder(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e Engine, a *pmobj.Arena, reopen func() Engine) {
		r := sim.NewRand(42)
		want := map[string]string{}
		for i := 0; i < 500; i++ {
			k := fmt.Sprintf("key-%04d", r.Intn(300))
			v := fmt.Sprintf("val-%d", i)
			mustPut(t, e, k, v)
			want[k] = v
		}
		for k, v := range want {
			mustGet(t, e, k, v)
		}
		if e.Len() != len(want) {
			t.Fatalf("Len = %d, want %d", e.Len(), len(want))
		}
		mustVerify(t, e)

		keys := e.Keys()
		if len(keys) != len(want) {
			t.Fatalf("Keys() returned %d, want %d", len(keys), len(want))
		}
		set := map[string]bool{}
		for _, k := range keys {
			set[string(k)] = true
		}
		for k := range want {
			if !set[k] {
				t.Fatalf("Keys() missing %q", k)
			}
		}
		// Ordered engines iterate in sorted order. (All our keys here have
		// equal length, so even the ctree's length-first order is lexical.)
		switch e.Name() {
		case "btree", "rbtree", "skiplist", "ctree":
			if !sort.SliceIsSorted(keys, func(i, j int) bool {
				return bytes.Compare(keys[i], keys[j]) < 0
			}) {
				t.Fatalf("%s: Keys() not sorted", e.Name())
			}
		}
	})
}

func TestEngineBulkDelete(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e Engine, a *pmobj.Arena, reopen func() Engine) {
		r := sim.NewRand(7)
		live := map[string]string{}
		for i := 0; i < 400; i++ {
			k := fmt.Sprintf("k%03d", i)
			mustPut(t, e, k, "v")
			live[k] = "v"
		}
		// Random interleaved deletes and verifies.
		for i := 0; i < 350; i++ {
			k := fmt.Sprintf("k%03d", r.Intn(400))
			_, exists := live[k]
			ok, err := e.Delete([]byte(k))
			if err != nil {
				t.Fatalf("Delete(%q): %v", k, err)
			}
			if ok != exists {
				t.Fatalf("Delete(%q) = %v, map says %v", k, ok, exists)
			}
			delete(live, k)
			if i%50 == 0 {
				mustVerify(t, e)
			}
		}
		if e.Len() != len(live) {
			t.Fatalf("Len = %d, want %d", e.Len(), len(live))
		}
		for k := range live {
			mustGet(t, e, k, "v")
		}
		mustVerify(t, e)
	})
}

func TestEngineSurvivesPowerFail(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e Engine, a *pmobj.Arena, reopen func() Engine) {
		for i := 0; i < 100; i++ {
			mustPut(t, e, fmt.Sprintf("key%03d", i), fmt.Sprintf("val%03d", i))
		}
		_, _ = e.Delete([]byte("key050"))
		e2 := reopen()
		if e2.Len() != 99 {
			t.Fatalf("Len after power fail = %d", e2.Len())
		}
		for i := 0; i < 100; i++ {
			k := fmt.Sprintf("key%03d", i)
			if i == 50 {
				mustMiss(t, e2, k)
				continue
			}
			mustGet(t, e2, k, fmt.Sprintf("val%03d", i))
		}
		mustVerify(t, e2)
	})
}

// TestEngineTornCommitAtomicity crashes every engine inside commit at each
// stage and checks the op is all-or-nothing.
func TestEngineTornCommitAtomicity(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e Engine, a *pmobj.Arena, reopen func() Engine) {
		for i := 0; i < 50; i++ {
			mustPut(t, e, fmt.Sprintf("base%02d", i), "v")
		}
		for _, stage := range []int{1, 2, 3} {
			key := fmt.Sprintf("torn-stage%d", stage)
			a.CrashHook = func(s int) bool { return s == stage }
			_ = e.Put([]byte(key), []byte("tv"))
			a.CrashHook = nil
			e2 := reopen()
			_, present := e2.Get([]byte(key))
			if stage == 1 && present {
				t.Fatalf("stage 1 torn commit became visible for %q", key)
			}
			if stage >= 2 && !present {
				t.Fatalf("stage %d committed op lost for %q", stage, key)
			}
			mustVerify(t, e2)
			e = e2
		}
	})
}

// TestEngineOracle drives each engine against a map with a deterministic
// random op mix (a heavier-weight cousin of a quick.Check, with structural
// verification sprinkled in).
func TestEngineOracle(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e Engine, a *pmobj.Arena, reopen func() Engine) {
		r := sim.NewRand(uint64(len(e.Name())) * 77)
		oracle := map[string]string{}
		for step := 0; step < 3000; step++ {
			k := fmt.Sprintf("k%03d", r.Intn(250))
			switch r.Intn(10) {
			case 0, 1, 2, 3, 4: // put
				v := fmt.Sprintf("v%d", step)
				mustPut(t, e, k, v)
				oracle[k] = v
			case 5, 6: // delete
				_, want := oracle[k]
				ok, err := e.Delete([]byte(k))
				if err != nil || ok != want {
					t.Fatalf("step %d: Delete(%q) = %v,%v want %v", step, k, ok, err, want)
				}
				delete(oracle, k)
			default: // get
				v, ok := e.Get([]byte(k))
				want, wok := oracle[k]
				if ok != wok || (ok && string(v) != want) {
					t.Fatalf("step %d: Get(%q) = %q,%v want %q,%v", step, k, v, ok, want, wok)
				}
			}
			if step%500 == 499 {
				mustVerify(t, e)
				if e.Len() != len(oracle) {
					t.Fatalf("step %d: Len %d vs oracle %d", step, e.Len(), len(oracle))
				}
			}
		}
		// Power-fail at the end: all committed state must survive.
		e2 := reopen()
		for k, v := range oracle {
			mustGet(t, e2, k, v)
		}
		if e2.Len() != len(oracle) {
			t.Fatalf("post-crash Len %d vs %d", e2.Len(), len(oracle))
		}
		mustVerify(t, e2)
	})
}

// TestEngineRandomCrashPoints interleaves ops with torn commits at random
// stages, maintaining the oracle according to commit semantics.
func TestEngineRandomCrashPoints(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e Engine, a *pmobj.Arena, reopen func() Engine) {
		r := sim.NewRand(uint64(len(e.Name())) * 1234)
		oracle := map[string]string{}
		for step := 0; step < 400; step++ {
			k := fmt.Sprintf("k%02d", r.Intn(60))
			v := fmt.Sprintf("v%d", step)
			if r.Intn(5) == 0 {
				// Torn commit: stage 1 discards, stages 2-3 commit.
				stage := 1 + r.Intn(3)
				a.CrashHook = func(s int) bool { return s == stage }
				isDelete := r.Intn(3) == 0
				var existed bool
				if isDelete {
					_, existed = oracle[k]
					_, _ = e.Delete([]byte(k))
				} else {
					_ = e.Put([]byte(k), []byte(v))
				}
				a.CrashHook = nil
				e = reopen()
				if stage >= 2 {
					if isDelete {
						if existed {
							delete(oracle, k)
						}
					} else {
						oracle[k] = v
					}
				}
			} else {
				mustPut(t, e, k, v)
				oracle[k] = v
			}
		}
		for k, v := range oracle {
			mustGet(t, e, k, v)
		}
		if e.Len() != len(oracle) {
			t.Fatalf("Len %d vs oracle %d", e.Len(), len(oracle))
		}
		mustVerify(t, e)
	})
}

func TestFactoryRejectsForeignArena(t *testing.T) {
	a := NewArena(1 << 20)
	if _, err := OpenHashmap(a); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenBTree(a); err == nil {
		t.Fatal("btree opened a hashmap arena")
	}
}

func TestEngineNames(t *testing.T) {
	for _, name := range EngineNames {
		a := NewArena(1 << 20)
		e, err := Factories[name](a)
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() != name {
			t.Fatalf("engine %s reports name %s", name, e.Name())
		}
	}
}
