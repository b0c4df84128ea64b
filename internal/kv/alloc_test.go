package kv

import (
	"fmt"
	"testing"

	"pmnet/internal/pmobj"
	"pmnet/internal/raceflag"
)

// warmEngine fills e with n keys and returns them.
func warmEngine(t *testing.T, e Engine, n int) [][]byte {
	t.Helper()
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key%05d", i))
		if err := e.Put(keys[i], []byte("0123456789abcdef0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// TestEnginePutAllocs pins an overwrite on a warm tree to zero allocations:
// the descent compares keys in place, the transaction is the arena's own and
// its stores land in its scratch.
func TestEnginePutAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	forEachEngine(t, func(t *testing.T, e Engine, _ *pmobj.Arena, _ func() Engine) {
		keys := warmEngine(t, e, 2000)
		value := []byte("fedcba9876543210fedcba9876543210")
		i := 0
		got := testing.AllocsPerRun(500, func() {
			if err := e.Put(keys[i%len(keys)], value); err != nil {
				t.Fatal(err)
			}
			i += 7
		})
		if got != 0 {
			t.Errorf("%s: Put allocated %.2f objects, want 0", e.Name(), got)
		}
	})
}

// TestEngineGetAllocs pins a hit to one allocation: the value the caller
// keeps.
func TestEngineGetAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	forEachEngine(t, func(t *testing.T, e Engine, _ *pmobj.Arena, _ func() Engine) {
		keys := warmEngine(t, e, 2000)
		i := 0
		got := testing.AllocsPerRun(500, func() {
			if _, ok := e.Get(keys[i%len(keys)]); !ok {
				t.Fatal("missing key")
			}
			i += 7
		})
		if got > 1 {
			t.Errorf("%s: Get allocated %.2f objects, want <= 1", e.Name(), got)
		}
	})
}

// TestViewIsGetWithoutTheCopy: on every engine View finds what Get finds —
// a hit, a miss, an empty value — through the same device reads (server CPU
// time is charged per read, so a handler may answer from either), and costs
// the heap nothing.
func TestViewIsGetWithoutTheCopy(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e Engine, a *pmobj.Arena, _ func() Engine) {
		keys := warmEngine(t, e, 300)
		mustPut(t, e, "empty", "")
		keys = append(keys, []byte("empty"), []byte("absent"), []byte("key"))
		dev := a.Device()
		for _, k := range keys {
			s0 := dev.Stats()
			got, ok := e.Get(k)
			s1 := dev.Stats()
			view, vok := e.View(k)
			s2 := dev.Stats()
			if ok != vok || string(got) != string(view) {
				t.Fatalf("%s: %q: Get %q %v, View %q %v", e.Name(), k, got, ok, view, vok)
			}
			if s1.Reads-s0.Reads != s2.Reads-s1.Reads || s1.BytesRead-s0.BytesRead != s2.BytesRead-s1.BytesRead {
				t.Fatalf("%s: %q: Get read %+v -> %+v, View -> %+v", e.Name(), k, s0, s1, s2)
			}
		}
		if raceflag.Enabled {
			return // AllocsPerRun is unreliable under the race detector
		}
		i := 0
		if got := testing.AllocsPerRun(500, func() {
			e.View(keys[i%len(keys)])
			i += 7
		}); got != 0 {
			t.Errorf("%s: View allocated %.2f objects, want 0", e.Name(), got)
		}
	})
}

// TestGetResultSurvivesOverwrite: keys are compared in place, but the value
// Get returns is the caller's — rediskv and the tests hold one across later
// writes. Overwriting and deleting the key frees its block, and the Puts that
// follow recycle it; the bytes handed out earlier must not move.
func TestGetResultSurvivesOverwrite(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e Engine, _ *pmobj.Arena, _ func() Engine) {
		mustPut(t, e, "k", "the-first-value-of-k")
		got, ok := e.Get([]byte("k"))
		if !ok {
			t.Fatal("missing key")
		}
		mustPut(t, e, "k", "XXXXXXXXXXXXXXXXXXXX")
		mustPut(t, e, "other", "YYYYYYYYYYYYYYYYYYYY") // takes the freed block
		if _, err := e.Delete([]byte("k")); err != nil {
			t.Fatal(err)
		}
		mustPut(t, e, "third", "ZZZZZZZZZZZZZZZZZZZZ")
		if string(got) != "the-first-value-of-k" {
			t.Fatalf("%s: value returned by Get changed under later writes: %q", e.Name(), got)
		}
	})
}
