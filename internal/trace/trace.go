// Package trace is the deterministic observability layer of the simulator:
// per-request lifecycle spans (client issue → host stack → switch queue →
// device pipeline → PM persist → ACK / timeout-resend) and time-series
// gauges (link queue depth, log-table live entries, in-flight requests)
// recorded into a preallocated ring, plus a unified
// counter registry that snapshots every layer's activity counters under one
// sorted namespace.
//
// Every timestamp is read from the virtual clock, never the host clock, so
// a trace is a pure function of the run's Config: the serialized form is
// byte-identical across worker-pool sizes and under the race detector — the
// same discipline the experiment harness golden-tests for its tables.
//
// The off path is free: a nil *Tracer is a valid receiver for every Emit
// method and returns immediately, so instrumented hot paths stay zero-alloc
// and branch-cheap when tracing is disabled (pinned by the alloc tests next
// to the instrumented packages). The on path is also allocation-free in
// steady state: records land in a ring preallocated at Bind time, and once
// the ring fills, further records are counted as dropped rather than grown.
package trace

import (
	"pmnet/internal/sim"
)

// Kind classifies one trace record. The span kinds follow a request down the
// paper's latency breakdown (Figs. 8, 14, 16); the gauge kinds sample the
// occupancy series those breakdowns are explained by.
type Kind uint8

const (
	// EvIssue: a client session issued a request.
	// A = session<<32 | firstSeq, B = fragment count, C = 1 for updates.
	EvIssue Kind = iota
	// EvComplete: the request completed. A = session<<32|firstSeq,
	// B = resend count, C = 1 if the completion came from a cache.
	EvComplete
	// EvFail: the request failed terminally. A = session<<32|firstSeq,
	// B = retry count.
	EvFail
	// EvResend: a client timeout retransmission. A = session<<32|firstSeq,
	// B = retry number.
	EvResend
	// EvStackTX: a packet cleared a host's TX network stack.
	// A = host node id, B = packet id.
	EvStackTX
	// EvStackRX: a packet cleared a host's RX stack, about to hit the app.
	// A = host node id, B = packet id.
	EvStackRX
	// EvSwitchFwd: a plain switch forwarded a packet.
	// A = switch node id, B = packet id.
	EvSwitchFwd
	// EvPipeline: an update request entered a PMNet device's MAT pipeline.
	// A = device node id, B = packet id, C = session<<32|seq.
	EvPipeline
	// EvPersist: a log entry became durable in device PM — the moment the
	// paper's guarantee attaches. A = device node id, B = HashVal,
	// C = session<<32|seq.
	EvPersist
	// EvPMNetAck: the device emitted a PMNet-ACK. A = device node id,
	// C = session<<32|seq.
	EvPMNetAck
	// EvServerApply: the server applied an update (handler ran, watermark
	// persisted). A = server node id, C = session<<32|lastSeq.
	EvServerApply
	// EvServerAck: the server sent a server-ACK. A = server node id,
	// C = session<<32|seq.
	EvServerAck
	// EvDrop: the network dropped a packet. A = node id at the drop point,
	// B = packet id, C = drop reason (DropDead/DropFull/DropRand/DropBurst).
	EvDrop

	// GaugeLinkQueue: egress-queue occupancy of one link after a change.
	// A = from<<32|to (node ids), B = queued bytes.
	GaugeLinkQueue
	// GaugeLogLive: live entries in a device's PM log table.
	// A = device node id, B = live entries.
	GaugeLogLive
	// GaugeInFlight: outstanding requests of one client session.
	// A = session id, B = outstanding count.
	GaugeInFlight

	kindCount int = iota
)

// Drop reasons carried in EvDrop's C field.
const (
	DropDead  uint64 = iota + 1 // destination or next hop down/unroutable
	DropFull                    // drop-tail queue overflow
	DropRand                    // random loss
	DropBurst                   // impairment-model (Gilbert–Elliott) loss
)

// kindNames are the wire names used by the chrome exporter; indexed by Kind.
var kindNames = [kindCount]string{
	EvIssue:        "issue",
	EvComplete:     "complete",
	EvFail:         "fail",
	EvResend:       "resend",
	EvStackTX:      "stack-tx",
	EvStackRX:      "stack-rx",
	EvSwitchFwd:    "switch-fwd",
	EvPipeline:     "pipeline",
	EvPersist:      "pm-persist",
	EvPMNetAck:     "pmnet-ack",
	EvServerApply:  "server-apply",
	EvServerAck:    "server-ack",
	EvDrop:         "drop",
	GaugeLinkQueue: "link-queue",
	GaugeLogLive:   "log-live",
	GaugeInFlight:  "in-flight",
}

// String returns the exporter name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind(?)"
}

// Record is one ring entry: a virtual timestamp, a kind, and three generic
// arguments whose meaning the kind documents. Fixed-size and pointer-free so
// a ring of them is one allocation and no GC pressure.
type Record struct {
	At      sim.Time
	Kind    Kind
	A, B, C uint64
}

// DefaultCapacity is the ring size used when NewTracer is given none:
// 256 Ki records (~10 MB), comfortably a full harness cell.
const DefaultCapacity = 1 << 18

// Tracer records the observability stream of exactly one run. It is not
// safe for concurrent use — like every other piece of per-testbed state it
// lives on one virtual clock and one goroutine; distinct runs use distinct
// tracers. The zero *Tracer (nil) is a valid, disabled tracer: every method
// returns immediately.
type Tracer struct {
	eng  *sim.Engine
	ring []Record
	drop uint64
	cap  int
}

// NewTracer creates a tracer with the given ring capacity (records);
// capacity <= 0 selects DefaultCapacity. The ring itself is allocated when
// the tracer is bound to an engine, so an unused tracer costs nothing.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{cap: capacity}
}

// Bind attaches the tracer to the virtual clock it will timestamp from and
// preallocates the ring. A tracer observes exactly one run: binding twice
// panics rather than silently mixing two runs' records.
func (t *Tracer) Bind(eng *sim.Engine) {
	if t == nil {
		return
	}
	if t.eng != nil {
		panic("trace: tracer already bound (use one Tracer per run)")
	}
	t.eng = eng
	t.ring = make([]Record, 0, t.cap)
}

// Emit appends one record stamped with the current virtual time. When the
// ring is full the record is counted as dropped instead — recording must
// never allocate mid-run, or the on/off perf comparison would be meaningless.
func (t *Tracer) Emit(k Kind, a, b, c uint64) {
	if t == nil {
		return
	}
	if len(t.ring) == cap(t.ring) {
		t.drop++
		return
	}
	t.ring = append(t.ring, Record{At: t.eng.Now(), Kind: k, A: a, B: b, C: c})
}

// Records exposes the recorded ring in emission order.
func (t *Tracer) Records() []Record {
	if t == nil {
		return nil
	}
	return t.ring
}

// Dropped returns how many records did not fit in the ring.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.drop
}

// Len returns the number of recorded entries.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.ring)
}

// Capacity returns the configured ring capacity in records.
func (t *Tracer) Capacity() int {
	if t == nil {
		return 0
	}
	return t.cap
}

// AdoptMerged rebuilds t's ring as the ordered interleaving of the partition
// tracers' rings — the collection step of a sharded run, where each topology
// partition records into its own tracer (bound to its shard's engine) and
// the testbed folds them into the run's tracer afterwards.
//
// The merge key is (timestamp, partition index, emission order): each
// partition's ring is already time-sorted (its virtual clock is monotonic),
// and the partition list order is part of the topology, so the merged byte
// stream is identical in every shard configuration. Records beyond t's
// capacity are counted as dropped, exactly like Emit on a full ring; the
// parts' own drop counts carry over. Calling AdoptMerged again recomputes
// the same result, so re-running a testbed stays idempotent.
func (t *Tracer) AdoptMerged(parts []*Tracer) {
	if t == nil {
		return
	}
	if t.ring == nil {
		t.ring = make([]Record, 0, t.cap)
	}
	t.ring = t.ring[:0]
	t.drop = 0
	cursors := make([]int, len(parts))
	for _, p := range parts {
		t.drop += p.Dropped()
	}
	for {
		best := -1
		var bestAt sim.Time
		for i, p := range parts {
			if cursors[i] >= p.Len() {
				continue
			}
			at := p.ring[cursors[i]].At
			if best < 0 || at < bestAt {
				best, bestAt = i, at
			}
		}
		if best < 0 {
			return
		}
		rec := parts[best].ring[cursors[best]]
		cursors[best]++
		if len(t.ring) == cap(t.ring) {
			t.drop++
			continue
		}
		t.ring = append(t.ring, rec)
	}
}

// SpanID packs a session id and sequence number into the A/C argument form
// used by the request-lifecycle kinds.
func SpanID(session uint16, seq uint32) uint64 {
	return uint64(session)<<32 | uint64(seq)
}

// LinkID packs a directed link into GaugeLinkQueue's A argument.
func LinkID(from, to uint64) uint64 { return from<<32 | to&0xffffffff }
