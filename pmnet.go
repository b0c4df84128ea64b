// Package pmnet is a faithful reimplementation-as-simulation of
// "PMNet: In-Network Data Persistence" (ISCA 2021): a programmable network
// device augmented with persistent memory that logs in-flight update
// requests and acknowledges clients with sub-RTT latency, moving the server
// network stack and request processing off the critical path.
//
// The package exposes:
//
//   - The client/server software interface of the paper's Table I
//     (StartSession / Session.SendUpdate / Session.Bypass / EndSession on
//     the client; the Server library with PMNet_recv/PMNet_ack semantics).
//   - Testbed construction: build a simulated cluster (clients, switches,
//     PMNet devices as ToR switch or server NIC, replication chains, read
//     caching) on a deterministic virtual clock.
//   - Failure injection and recovery: power-fail the server or a PMNet
//     device and drive the paper's recovery protocol.
//
// Everything runs on a discrete-event simulation (internal/sim): latencies
// are modelled, deterministic, and calibrated against the paper's testbed,
// so experiments are bit-reproducible and immune to GC pauses or host
// scheduling. See DESIGN.md for the calibration and substitution notes.
package pmnet

import (
	"pmnet/internal/client"
	"pmnet/internal/protocol"
	"pmnet/internal/server"
	"pmnet/internal/sim"
)

// Re-exported aliases so applications need only import pmnet.

// Time is virtual time in nanoseconds (alias of the simulator's clock type).
type Time = sim.Time

// Common durations on the virtual clock.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Request is an application-level operation (GET/PUT/DELETE/LOCK/TXN).
type Request = protocol.Request

// Response is the server's application-level reply.
type Response = protocol.Response

// Status is the application-level result code.
type Status = protocol.Status

// Result reports a completed client request.
type Result = client.Result

// Handler executes application requests on the server, returning the
// response and the modelled CPU cost. The request's Args array is the
// server library's scratch, valid only during Handle — do not keep req.Args
// or return it as the response's Args; the byte slices it holds are payload
// and may be kept or returned. The response is the handler's own scratch in
// turn, the Args array and the bytes it points at alike — handler buffers, or
// a value read in place from the store's PM arena: the library encodes it
// before returning to the event loop, so a handler may build every response
// in memory it reuses, and whoever calls Handle directly may keep the
// response only until the next call, copying what it needs for longer (see
// server.Handler).
type Handler = server.Handler

// HandlerFunc adapts a function to Handler.
type HandlerFunc = server.HandlerFunc

// IdealHandler is the §VI-B1 microbenchmark handler: acknowledge without
// processing.
type IdealHandler = server.IdealHandler

// CrashFaultHandler is implemented by handlers whose state must crash and
// recover in lockstep with the server (the KV and Redis handlers do).
// NewTestbed wires these hooks automatically.
type CrashFaultHandler interface {
	// Crash drops the application's volatile state. Its PM loses nothing:
	// every PM write is durable on return.
	Crash()
	// Restart replays the application's redo log and reattaches handles.
	Restart()
}

// Status codes.
const (
	StatusOK       = protocol.StatusOK
	StatusNotFound = protocol.StatusNotFound
	StatusLocked   = protocol.StatusLocked
	StatusError    = protocol.StatusError
)

// Request constructors (see protocol package for details).
var (
	// GetReq builds a read request.
	GetReq = protocol.GetReq
	// PutReq builds an update request.
	PutReq = protocol.PutReq
	// DeleteReq builds a delete request.
	DeleteReq = protocol.DeleteReq
	// LockReq builds a lock-acquire request (always bypasses PMNet, §III-C).
	LockReq = protocol.LockReq
	// UnlockReq builds a lock-release request.
	UnlockReq = protocol.UnlockReq
	// TxnReq builds a composite transactional request.
	TxnReq = protocol.TxnReq
	// ScanReq builds an ordered range-scan request (YCSB-E style); ordered
	// engines (btree, rbtree, skiplist, ctree) serve it, the hashmap
	// rejects it.
	ScanReq = protocol.ScanReq
)

// Session is a client connection (Table I: PMNet_start_session /
// PMNet_send_update / PMNet_bypass / PMNet_end_session).
type Session = client.Session

// Design selects the system under test (§VI-A4's design points).
type Design uint8

const (
	// ClientServer is the baseline: every packet goes to the server; updates
	// complete on the server's acknowledgement.
	ClientServer Design = iota
	// PMNetSwitch places the PMNet device as the server rack's ToR switch.
	PMNetSwitch
	// PMNetNIC places the PMNet device as a bump-in-the-wire at the server's
	// NIC (the Microsoft SmartNIC-style deployment).
	PMNetNIC
)

func (d Design) String() string {
	switch d {
	case ClientServer:
		return "Client-Server"
	case PMNetSwitch:
		return "PMNet-Switch"
	case PMNetNIC:
		return "PMNet-NIC"
	default:
		return "Design(?)"
	}
}

// StackKind selects the host network-stack model (§VI-B7).
type StackKind uint8

const (
	// KernelStack is the default in-kernel UDP/TCP path.
	KernelStack StackKind = iota
	// BypassStack is the libVMA-style user-space path.
	BypassStack
)
