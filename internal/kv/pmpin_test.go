package kv

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"pmnet/internal/pmem"
	"pmnet/internal/pmobj"
)

// pmPin is what a fixed script leaves on the arena's device: the five access
// counters apps.CostModel.Charge turns into simulated server CPU time, and a
// digest of the volatile image.
type pmPin struct {
	stats pmem.Stats
	image string
}

// imageDigest hashes the device's volatile view. The read it takes is made
// after the counters were captured.
func imageDigest(t *testing.T, dev *pmem.Device) string {
	t.Helper()
	img := make([]byte, dev.Len())
	if err := dev.ReadAt(img, 0); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(img)
	return hex.EncodeToString(sum[:])
}

// pinScript plays 2 000 Put/Get/Delete operations over 300 keys, values of
// 0–120 bytes, drawn from a fixed LCG.
func pinScript(t *testing.T, e Engine) {
	t.Helper()
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x >> 33
	}
	value := make([]byte, 120)
	for i := range value {
		value[i] = byte('a' + i%26)
	}
	for i := 0; i < 2000; i++ {
		key := []byte(fmt.Sprintf("key%04d", next()%300))
		switch r := next() % 10; {
		case r < 5:
			if err := e.Put(key, value[:next()%121]); err != nil {
				t.Fatalf("op %d: Put(%q): %v", i, key, err)
			}
		case r < 8:
			e.Get(key)
		default:
			if _, err := e.Delete(key); err != nil {
				t.Fatalf("op %d: Delete(%q): %v", i, key, err)
			}
		}
	}
}

// TestPMAccessPin holds every engine to the PM accesses and arena bytes it
// produced at commit 21b97fb, before the zero-copy reads and the reusable
// transaction: server CPU time is charged per access, so a read form that
// counted differently would move every simulated latency.
func TestPMAccessPin(t *testing.T) {
	pin := func(reads, bytesRead, writes, bytesWritten, persists uint64, image string) pmPin {
		return pmPin{pmem.Stats{Reads: reads, BytesRead: bytesRead, Writes: writes,
			BytesWritten: bytesWritten, Persists: persists}, image}
	}
	want := map[string]pmPin{
		"btree":    pin(146581, 1183528, 73466, 885190, 26972, "eb2c36454ad1d551b84561d7ebc54e9cf22efd2014a0bdf450eee4d5dd3e8035"),
		"ctree":    pin(79291, 666638, 41159, 493706, 16203, "5f6c95435945c29eaa70ad237d7dfdf71487fda4d39ced2a49d5df9b796bb41f"),
		"rbtree":   pin(79791, 642430, 52529, 592802, 19993, "3b2eaa4414e0b76582bccd0231bda40f7fc7e41534dd917acec9226824fa5352"),
		"hashmap":  pin(21163, 186493, 37634, 519190, 15028, "c10878e7e7ccec092c30487a1d866e8b6698967240182286b3d2d6c827f29bd3"),
		"skiplist": pin(132361, 1052064, 41066, 486022, 16172, "6c115f77cf8373d14c197935f68660821671783e6288d18b085d2092f81e95ec"),
	}
	forEachEngine(t, func(t *testing.T, e Engine, a *pmobj.Arena, _ func() Engine) {
		pinScript(t, e)
		got := pmPin{stats: a.Device().Stats()}
		got.image = imageDigest(t, a.Device())
		if got != want[e.Name()] {
			t.Errorf("%s: got %+v, want %+v", e.Name(), got, want[e.Name()])
		}
		mustVerify(t, e)
	})
}
