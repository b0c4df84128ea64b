package pmnet

import (
	"fmt"
	"testing"

	"pmnet/internal/dataplane"
)

// TestRepairTimersTakeNoPooledNode pins the mechanism, not the speed: a
// saturated PMNet-switch cell (64 closed-loop clients, 1000 B updates, the
// ideal handler — ideal_sat's shape) keeps a repair timer standing for every
// update logged in the last EntryTTL, and each timer is its update record's
// own wheel node. So the engine's pool of nodes, which only closures
// scheduled with Engine.At draw from, comes out the same size whether each
// timer stands 5 ms or ten times as long; were the timers pooled, the pool
// would hold the standing population.
func TestRepairTimersTakeNoPooledNode(t *testing.T) {
	const clients, perClient = 64, 250
	cell := func(ttl Time) (pooled int, st dataplane.Stats) {
		tb := NewTestbed(Config{
			Design:  PMNetSwitch,
			Clients: clients,
			Seed:    1,
			Device:  dataplane.Config{EntryTTL: ttl},
		})
		val := make([]byte, 1000)
		for c := 0; c < clients; c++ {
			var issue func(k int)
			issue = func(k int) {
				if k < perClient {
					key := []byte(fmt.Sprintf("c%dk%d", c, k))
					tb.Session(c).SendUpdate(PutReq(key, val), func(Result) { issue(k + 1) })
				}
			}
			issue(0)
		}
		tb.Run()
		if len(tb.engines) != 1 {
			t.Fatalf("%d engines, want the one of the default route", len(tb.engines))
		}
		return tb.engines[0].PooledNodes(), tb.Devices[0].Stats()
	}
	short, shortSt := cell(5 * Millisecond)
	long, longSt := cell(50 * Millisecond)
	if shortSt.AcksSent < clients*perClient*9/10 || shortSt.AcksSent != longSt.AcksSent ||
		shortSt.TTLResends != 0 || longSt.TTLResends != 0 {
		t.Fatalf("device stats %+v at 5 ms, %+v at 50 ms: want nearly every update logged, the same ones, "+
			"and no timer firing on a live entry", shortSt, longSt)
	}
	if short != long {
		t.Fatalf("pooled engine nodes: %d at EntryTTL 5 ms, %d at 50 ms; standing repair timers must take none", short, long)
	}
	t.Logf("%d pooled engine nodes at either EntryTTL, %d updates logged", short, shortSt.AcksSent)
}
