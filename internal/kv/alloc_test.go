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
