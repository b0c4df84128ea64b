package trace

import (
	"bytes"
	"testing"

	"pmnet/internal/sim"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Bind(sim.NewEngine())
	tr.Emit(EvIssue, 1, 2, 3)
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Records() != nil {
		t.Fatal("nil tracer must be inert")
	}
	var reg *Registry
	if reg.Snapshot() != nil || reg.Len() != 0 {
		t.Fatal("nil registry must be inert")
	}
}

func TestRingOverflowCountsDrops(t *testing.T) {
	tr := NewTracer(4)
	tr.Bind(sim.NewEngine())
	for i := 0; i < 10; i++ {
		tr.Emit(EvIssue, uint64(i), 0, 0)
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", tr.Dropped())
	}
	// The ring keeps the oldest records (head of the run), which is where a
	// debugging session starts reading.
	if got := tr.Records()[0].A; got != 0 {
		t.Fatalf("first record A = %d, want 0", got)
	}
}

func TestBindTwicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("second Bind must panic")
		}
	}()
	tr := NewTracer(1)
	tr.Bind(sim.NewEngine())
	tr.Bind(sim.NewEngine())
}

func TestEmitUsesVirtualClock(t *testing.T) {
	eng := sim.NewEngine()
	tr := NewTracer(8)
	tr.Bind(eng)
	eng.After(42*sim.Nanosecond, func() { tr.Emit(EvPersist, 7, 8, 9) })
	eng.RunUntil(1 * sim.Microsecond)
	recs := tr.Records()
	if len(recs) != 1 || recs[0].At != 42 {
		t.Fatalf("records = %+v, want one at t=42", recs)
	}
}

// sampleStream emits one record of every kind so the exporter's per-kind
// branches are all exercised.
func sampleStream() *Tracer {
	eng := sim.NewEngine()
	tr := NewTracer(64)
	tr.Bind(eng)
	at := sim.Time(0)
	emit := func(k Kind, a, b, c uint64) {
		at += 100
		eng.At(at, func() { tr.Emit(k, a, b, c) })
	}
	span := SpanID(3, 17)
	emit(EvIssue, span, 2, 1)
	emit(EvStackTX, 1, 5, 0)
	emit(EvSwitchFwd, 1000, 5, 0)
	emit(EvPipeline, 2000, 5, span)
	emit(EvPersist, 2000, 0xbeef, span)
	emit(EvPMNetAck, 2000, 0, span)
	emit(EvStackRX, 1, 6, 0)
	emit(EvServerApply, 3000, 0, span)
	emit(EvServerAck, 3000, 0, span)
	emit(EvResend, span, 1, 0)
	emit(EvDrop, 1000, 7, DropFull)
	emit(EvDrop, 1000, 8, DropRand)
	emit(EvDrop, 1000, 9, DropDead)
	emit(EvComplete, span, 1, 0)
	emit(EvFail, SpanID(3, 99), 3, 0)
	emit(GaugeLinkQueue, LinkID(1, 1000), 1500, 0)
	emit(GaugeLogLive, 2000, 12, 0)
	emit(GaugeLogLive, 2000, 4, 0)
	emit(GaugeInFlight, 3, 2, 0)
	eng.RunUntil(1 * sim.Millisecond)
	return tr
}

func TestChromeJSONDeterministic(t *testing.T) {
	a := sampleStream().ChromeJSON(nil)
	b := sampleStream().ChromeJSON(nil)
	if !bytes.Equal(a, b) {
		t.Fatal("identical streams serialized differently")
	}
	for _, want := range []string{
		`"ph":"b"`, `"ph":"e"`, `"ph":"C"`, `"ph":"M"`, `"ph":"i"`,
		`"reason":"full"`, `"reason":"rand"`, `"reason":"dead"`,
		`"name":"pm-persist"`, `"ts":0.100`,
	} {
		if !bytes.Contains(a, []byte(want)) {
			t.Fatalf("trace missing %s:\n%s", want, a)
		}
	}
	// Metadata must lead in sorted pid order: 0 (requests) before node pids.
	if i, j := bytes.Index(a, []byte(`"pid":0,"tid":0,"args":{"name":"requests"}`)),
		bytes.Index(a, []byte(`"args":{"name":"node-3000"}`)); i < 0 || j < 0 || i > j {
		t.Fatalf("metadata order wrong (i=%d j=%d):\n%s", i, j, a)
	}
}

func TestSpanAndLinkPacking(t *testing.T) {
	if got := SpanID(0xabcd, 0x1234); got != 0xabcd00001234 {
		t.Fatalf("SpanID = %#x", got)
	}
	if got := LinkID(7, 9); got != 7<<32|9 {
		t.Fatalf("LinkID = %#x", got)
	}
}

func TestRegistrySnapshotSorted(t *testing.T) {
	var r Registry
	x := uint64(10)
	r.Add("z.last", func() uint64 { return 1 })
	r.Add("a.first", func() uint64 { return x })
	r.Add("m.mid", func() uint64 { return 3 })
	snap := r.Snapshot()
	if len(snap) != 3 || snap[0].Name != "a.first" || snap[1].Name != "m.mid" || snap[2].Name != "z.last" {
		t.Fatalf("snapshot order: %+v", snap)
	}
	if snap[0].Value != 10 {
		t.Fatalf("value = %d", snap[0].Value)
	}
	x = 99 // getters are lazy: a later snapshot sees the new value
	if got := r.Snapshot()[0].Value; got != 99 {
		t.Fatalf("lazy getter: got %d, want 99", got)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Add must panic")
		}
	}()
	var r Registry
	r.Add("dup", func() uint64 { return 0 })
	r.Add("dup", func() uint64 { return 0 })
}

func TestEmitDoesNotAllocate(t *testing.T) {
	tr := NewTracer(1 << 12)
	tr.Bind(sim.NewEngine())
	n := testing.AllocsPerRun(1000, func() {
		tr.Emit(EvPersist, 1, 2, 3)
	})
	if n != 0 {
		t.Fatalf("Emit allocates %v per call, want 0", n)
	}
}
