package rediskv

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"pmnet/internal/kv"
	"pmnet/internal/pmem"
)

// TestPMAccessPin plays 2 000 SET/GET/INCR/LPUSH/SADD/LRANGE commands drawn
// from a fixed LCG and holds the device to the access counters and volatile
// image the script produced at commit 21b97fb (see the test of the same name
// in internal/kv: server CPU time is charged per PM access).
func TestPMAccessPin(t *testing.T) {
	a := kv.NewArena(8 << 20)
	s, err := Open(a)
	if err != nil {
		t.Fatal(err)
	}
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x >> 33
	}
	value := make([]byte, 100)
	for i := range value {
		value[i] = byte('a' + i%26)
	}
	for i := 0; i < 2000; i++ {
		id := next() % 60
		var err error
		switch next() % 6 {
		case 0:
			err = s.Set([]byte(fmt.Sprintf("str:%d", id)), value[:next()%101])
		case 1:
			_, _, err = s.Get([]byte(fmt.Sprintf("str:%d", id)))
		case 2:
			_, err = s.Incr([]byte(fmt.Sprintf("ctr:%d", id)))
		case 3:
			_, err = s.LPush([]byte(fmt.Sprintf("list:%d", id)), value[:1+next()%40], 100)
		case 4:
			_, err = s.SAdd([]byte(fmt.Sprintf("set:%d", id)), []byte(fmt.Sprintf("m%d", next()%50)))
		default:
			_, err = s.LRange([]byte(fmt.Sprintf("list:%d", id)), 0, 9)
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	dev := a.Device()
	got := dev.Stats()
	img := make([]byte, dev.Len())
	if err := dev.ReadAt(img, 0); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(img)
	want := pmem.Stats{Reads: 30341, BytesRead: 291601, Writes: 31877, BytesWritten: 439294, Persists: 13183}
	const wantImage = "7e7d427a746db6374b873ffaa59a6270ae1998d8dedf2d82f6a9d93ece31d65f"
	if got != want || hex.EncodeToString(sum[:]) != wantImage {
		t.Errorf("got %+v image %x, want %+v image %s", got, sum, want, wantImage)
	}
}
