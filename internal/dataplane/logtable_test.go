package dataplane

import (
	"testing"

	"pmnet/internal/pmem"
	"pmnet/internal/protocol"
	"pmnet/internal/sim"
)

// pmSlowConfig returns a PM model slow enough (1 ms writes) that a
// server-ACK always overtakes the in-flight log write.
func pmSlowConfig(capacity int) pmem.Config {
	cfg := pmem.DefaultConfig(capacity)
	cfg.WriteLatency = sim.Millisecond
	return cfg
}

func newTable(t *testing.T, slots, slotSize, queueBytes int) (*LogTable, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	dev := pmem.NewDevice(pmem.DefaultConfig(slots * slotSize))
	q := pmem.NewQueue(eng, dev, queueBytes)
	return NewLogTable(dev, q, slotSize), eng
}

func mkMsg(session uint16, seq uint32, payload string) protocol.Message {
	return protocol.Fragment(protocol.TypeUpdateReq, session, seq, []byte(payload), 0)[0]
}

func TestLogInsertAndPersistCallback(t *testing.T) {
	tab, eng := newTable(t, 16, 2048, 4096)
	var stats LogStats
	persisted := false
	res := tab.Insert(mkMsg(1, 1, "data"), 0, &stats, func() { persisted = true })
	if res != insertAccepted {
		t.Fatalf("insert result %d", res)
	}
	if persisted {
		t.Fatal("persist callback ran synchronously")
	}
	eng.Run()
	if !persisted {
		t.Fatal("persist callback never ran")
	}
	if tab.LiveEntries() != 1 || stats.Logged != 1 {
		t.Fatalf("live=%d stats=%+v", tab.LiveEntries(), stats)
	}
}

// keep copies a message a PM read handed to its callback: its payload is the
// queue's buffer, reused once the callback returns.
func keep(m protocol.Message) protocol.Message {
	m.Payload = append([]byte(nil), m.Payload...)
	return m
}

func TestLogLookupReturnsLoggedMessage(t *testing.T) {
	tab, eng := newTable(t, 16, 2048, 4096)
	var stats LogStats
	msg := mkMsg(3, 9, "payload-bytes")
	tab.Insert(msg, 0, &stats, nil)
	eng.Run()
	var got protocol.Message
	if !tab.Lookup(msg.Hdr.HashVal, &stats, func(m protocol.Message) { got = keep(m) }) {
		t.Fatal("lookup missed")
	}
	eng.Run()
	if got.Hdr != msg.Hdr || string(got.Payload) != string(msg.Payload) {
		t.Fatalf("read back %+v", got)
	}
	if stats.RetransHits != 1 {
		t.Fatal("hit not counted")
	}
}

func TestLogLookupMiss(t *testing.T) {
	tab, _ := newTable(t, 16, 2048, 4096)
	var stats LogStats
	if tab.Lookup(12345, &stats, func(protocol.Message) {}) {
		t.Fatal("lookup hit an empty table")
	}
	if stats.RetransMisses != 1 {
		t.Fatal("miss not counted")
	}
}

func TestLogInvalidateReclaims(t *testing.T) {
	tab, eng := newTable(t, 16, 2048, 4096)
	var stats LogStats
	msg := mkMsg(1, 1, "x")
	tab.Insert(msg, 0, &stats, nil)
	eng.Run()
	if !tab.Invalidate(msg.Hdr.HashVal, &stats) {
		t.Fatal("invalidate missed a live entry")
	}
	if tab.LiveEntries() != 0 || stats.Invalidated != 1 {
		t.Fatal("entry not reclaimed")
	}
	// Slot reusable afterwards.
	if tab.Insert(mkMsg(1, 1, "y"), 0, &stats, nil) != insertAccepted {
		t.Fatal("slot not reusable after invalidation")
	}
}

func TestLogInvalidateUnknownHash(t *testing.T) {
	tab, _ := newTable(t, 16, 2048, 4096)
	var stats LogStats
	if tab.Invalidate(777, &stats) {
		t.Fatal("invalidate hit on empty table")
	}
}

func TestLogAckRacesWriteSuppressed(t *testing.T) {
	eng := sim.NewEngine()
	dev := pmem.NewDevice(pmSlowConfig(16 * 2048))
	q := pmem.NewQueue(eng, dev, 4096)
	tab := NewLogTable(dev, q, 2048)
	var stats LogStats
	msg := mkMsg(1, 1, "slow")
	acked := false
	tab.Insert(msg, 0, &stats, func() { acked = true })
	// ACK arrives while the PM write is still queued.
	if !tab.Invalidate(msg.Hdr.HashVal, &stats) {
		t.Fatal("in-flight entry not matched")
	}
	eng.Run()
	if acked {
		t.Fatal("persist callback (ACK) ran despite racing server-ACK")
	}
	if tab.LiveEntries() != 0 {
		t.Fatal("racing entry not reclaimed")
	}
}

func TestLogRebuildIndexFromPM(t *testing.T) {
	tab, eng := newTable(t, 16, 2048, 4096)
	var stats LogStats
	m1 := mkMsg(1, 1, "one")
	m2 := mkMsg(1, 2, "two")
	tab.Insert(m1, 0, &stats, nil)
	tab.Insert(m2, 0, &stats, nil)
	eng.Run()
	tab.Invalidate(m1.Hdr.HashVal, &stats)

	// Wipe the mirror and rebuild from PM: only m2 must come back.
	for i := range tab.slots {
		tab.slots[i] = slotMeta{}
	}
	tab.RebuildIndex()
	if tab.LiveEntries() != 1 {
		t.Fatalf("rebuilt %d entries, want 1", tab.LiveEntries())
	}
	var got protocol.Message
	if !tab.Lookup(m2.Hdr.HashVal, &stats, func(m protocol.Message) { got = keep(m) }) {
		t.Fatal("rebuilt entry not found")
	}
	eng.Run()
	if string(got.Payload) != "two" {
		t.Fatalf("rebuilt entry payload %q", got.Payload)
	}
}

// TestLiveEntriesIncrementalMatchesScan pins the incremental live counter
// to the scan oracle across every lifecycle transition, including the race
// that once broke it: a retransmission re-logging an entry while its first
// PM write is still queued leaves TWO persist completions for one slot, and
// only the empty/writing → valid transition may be counted.
func TestLiveEntriesIncrementalMatchesScan(t *testing.T) {
	eng := sim.NewEngine()
	dev := pmem.NewDevice(pmSlowConfig(16 * 2048))
	q := pmem.NewQueue(eng, dev, 8192)
	tab := NewLogTable(dev, q, 2048)
	var stats LogStats
	check := func(step string) {
		t.Helper()
		if got, want := tab.LiveEntries(), tab.scanLiveEntries(); got != want {
			t.Fatalf("%s: incremental live=%d, scan=%d", step, got, want)
		}
	}

	m1 := mkMsg(1, 1, "one")
	tab.Insert(m1, 0, &stats, nil)
	tab.Insert(m1, 0, &stats, nil) // retransmission: second write queued behind the first
	check("two writes queued")
	eng.Run() // both completions fire on the same slot
	check("after double completion")
	if tab.LiveEntries() != 1 {
		t.Fatalf("double completion counted twice: live=%d", tab.LiveEntries())
	}

	// Re-log over the now-valid entry: it leaves the valid set until the
	// rewrite lands.
	tab.Insert(m1, 0, &stats, nil)
	check("re-log over valid entry")
	eng.Run()
	check("re-log persisted")

	// Server-ACK racing a queued write reclaims without a valid interlude.
	m2 := mkMsg(1, 2, "two")
	tab.Insert(m2, 0, &stats, nil)
	tab.Invalidate(m2.Hdr.HashVal, &stats)
	check("ack racing queued write")
	eng.Run()
	check("racing ack settled")

	tab.Invalidate(m1.Hdr.HashVal, &stats)
	check("after invalidate")
	if tab.LiveEntries() != 0 {
		t.Fatalf("live=%d after all entries reclaimed", tab.LiveEntries())
	}

	tab.Insert(m1, 0, &stats, nil)
	eng.Run()
	tab.RebuildIndex()
	check("after rebuild")
}

func TestLogOversizeRejected(t *testing.T) {
	tab, _ := newTable(t, 16, 64, 4096)
	var stats LogStats
	if tab.Insert(mkMsg(1, 1, string(make([]byte, 100))), 0, &stats, nil) != insertOversize {
		t.Fatal("oversize accepted")
	}
	if stats.BypassedOversize != 1 {
		t.Fatal("not counted")
	}
}

func TestNewLogTablePanics(t *testing.T) {
	dev := pmem.NewDevice(pmem.DefaultConfig(1024))
	q := pmem.NewQueue(sim.NewEngine(), dev, 128)
	for _, fn := range []func(){
		func() { NewLogTable(dev, q, slotMetaSize) }, // slot too small
		func() { NewLogTable(dev, q, 4096) },         // PM smaller than a slot
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
