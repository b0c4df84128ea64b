package netsim

import (
	"math"

	"pmnet/internal/sim"
	"pmnet/internal/trace"
)

// StackModel samples per-packet network-stack latency for a host. The
// kernel path is modelled as a base cost plus lognormal jitter (tight body,
// long right tail — the well-documented shape of kernel I/O latency), the
// bypass path (libVMA-style, §VI-B7) as a much smaller base with light jitter.
type StackModel struct {
	Base         sim.Time // fixed per-packet cost
	JitterMedian sim.Time // median of the lognormal jitter term
	JitterSigma  float64  // sigma of the lognormal (0 disables jitter)
}

// Sample draws one stack traversal latency.
func (m StackModel) Sample(r *sim.Rand) sim.Time {
	return m.sample(r, m.logMedian())
}

// logMedian is the lognormal's mu, log(JitterMedian); 0 where sample draws
// no jitter.
func (m StackModel) logMedian() float64 {
	if m.JitterMedian > 0 && m.JitterSigma > 0 {
		return math.Log(float64(m.JitterMedian))
	}
	return 0
}

// sample is Sample with mu = m.logMedian() taken once by the caller.
func (m StackModel) sample(r *sim.Rand, mu float64) sim.Time {
	lat := m.Base
	if m.JitterMedian > 0 && m.JitterSigma > 0 {
		lat += sim.Time(r.LogNormal(mu, m.JitterSigma))
	} else {
		lat += m.JitterMedian
	}
	return lat
}

// Mean returns the analytic mean of the sampled latency (base + lognormal
// mean), used for calibration reporting.
func (m StackModel) Mean() sim.Time {
	if m.JitterMedian <= 0 {
		return m.Base
	}
	mean := float64(m.JitterMedian) * math.Exp(m.JitterSigma*m.JitterSigma/2)
	return m.Base + sim.Time(mean)
}

// Canonical stack models, calibrated against the paper's own numbers: the
// PMNet microbenchmark RTT of 21.5 µs implies ≈8.5 µs per client-stack
// traversal, and the ≈60 µs baseline RTT with a ≈70 % server-side share
// (Figure 2) implies ≈15 µs per server-stack traversal.
var (
	// ClientKernelStack: ≈8.5 µs mean per traversal.
	ClientKernelStack = StackModel{Base: 5 * sim.Microsecond, JitterMedian: 3 * sim.Microsecond, JitterSigma: 0.7}
	// ServerKernelStack: ≈15.5 µs mean with a heavy tail; the server
	// terminates many flows and suffers softirq/scheduling interference
	// (the paper's 99th-percentile update RTT reaches 350 µs).
	ServerKernelStack = StackModel{Base: 9 * sim.Microsecond, JitterMedian: 5 * sim.Microsecond, JitterSigma: 0.8}
	// BypassStack: user-space stack (libVMA), ≈1.2 µs, light tail.
	BypassStack = StackModel{Base: 900, JitterMedian: 300, JitterSigma: 0.3}
)

// CPU models a pool of worker cores with earliest-available-first dispatch;
// the server request handlers execute on it, so request processing both adds
// latency and saturates under load (the source of the paper's tail effects).
type CPU struct {
	eng     *sim.Engine
	busyAt  []sim.Time
	busySum sim.Time
	jobs    uint64
}

// NewCPU creates a pool of `workers` cores.
func NewCPU(eng *sim.Engine, workers int) *CPU {
	if workers <= 0 {
		panic("netsim: CPU needs at least one worker")
	}
	return &CPU{eng: eng, busyAt: make([]sim.Time, workers)}
}

// Submit schedules fn to run after cost of compute on the earliest-free
// worker, returning the completion time.
func (c *CPU) Submit(cost sim.Time, fn func()) sim.Time {
	done := c.Reserve(cost)
	c.eng.At(done, fn)
	return done
}

// Reserve books cost of compute on the earliest-free worker and returns the
// completion time, for a caller that waits it out itself (a packet, with At).
func (c *CPU) Reserve(cost sim.Time) sim.Time {
	best := 0
	for i, t := range c.busyAt {
		if t < c.busyAt[best] {
			best = i
		}
	}
	start := c.busyAt[best]
	if now := c.eng.Now(); start < now {
		start = now
	}
	done := start + cost
	c.busyAt[best] = done
	c.busySum += cost
	c.jobs++
	return done
}

// Jobs returns the number of submitted jobs.
func (c *CPU) Jobs() uint64 { return c.jobs }

// BusyTime returns the total compute time consumed.
func (c *CPU) BusyTime() sim.Time { return c.busySum }

// Reset clears queued work accounting (used when a host restarts after a
// failure; in-flight jobs are cancelled by the owner via engine events).
func (c *CPU) Reset() {
	for i := range c.busyAt {
		c.busyAt[i] = 0
	}
}

// Host is a generic endpoint machine: an application callback behind TX/RX
// network-stack latency models.
type Host struct {
	id    NodeID
	net   *Network
	eng   *sim.Engine
	rand  *sim.Rand
	stack StackModel
	mu    float64 // stack.logMedian(), taken once
	cpu   *CPU
	recv  func(pkt *Packet)
	down  bool
	gen   uint64 // restart generation: packets in the old stack are dropped

	// What a packet does when it emerges from the stack (Packet.After), one
	// per direction, bound once.
	txFn, rxFn func(*Packet)
}

// txDone fires when a packet clears the TX stack: onto the wire, unless the
// stack it entered is gone (host down, or restarted since — Stamp is the
// restart generation it entered under), in which case it is recycled.
func (h *Host) txDone(pkt *Packet) {
	if h.down || pkt.Stamp != h.gen {
		h.net.FreePacket(pkt)
		return
	}
	if tr := h.net.tracer; tr != nil {
		// Packet ids are normally minted on first Transmit; mint early so
		// the TX-stack instant and the wire hops share one id. Ids feed
		// nothing but the trace, so this does not perturb the simulation.
		if pkt.ID == 0 {
			pkt.ID = h.net.NewPacketID()
		}
		tr.Emit(trace.EvStackTX, uint64(h.id), pkt.ID, 0)
	}
	h.net.Transmit(pkt, h.id)
}

// rxDone fires when a packet clears the RX stack. A packet that dies here
// (stack gone as in txDone, no receiver) is recycled; a received one is
// recycled once the application callback returns — receivers must not retain
// the *Packet nor its bytes (see Packet), and copy what they keep.
func (h *Host) rxDone(pkt *Packet) {
	if h.down || pkt.Stamp != h.gen || h.recv == nil {
		h.net.FreePacket(pkt)
		return
	}
	if tr := h.net.tracer; tr != nil {
		tr.Emit(trace.EvStackRX, uint64(h.id), pkt.ID, 0)
	}
	h.recv(pkt)
	h.net.FreePacket(pkt)
}

// NewHost creates a host with the given stack model and worker count,
// registers it with the network under name, and returns it. The application
// attaches its receive callback with OnReceive.
func NewHost(net *Network, id NodeID, name string, stack StackModel, workers int, rand *sim.Rand) *Host {
	h := &Host{
		id:    id,
		net:   net,
		eng:   net.Engine(),
		rand:  rand,
		stack: stack,
		mu:    stack.logMedian(),
		cpu:   NewCPU(net.Engine(), workers),
	}
	h.txFn, h.rxFn = h.txDone, h.rxDone
	net.AddNode(h, name)
	return h
}

// ID implements Node.
func (h *Host) ID() NodeID { return h.id }

// CPU exposes the host's worker pool.
func (h *Host) CPU() *CPU { return h.cpu }

// Rand exposes the host's RNG stream (for application-level jitter).
func (h *Host) Rand() *sim.Rand { return h.rand }

// Engine exposes the virtual clock.
func (h *Host) Engine() *sim.Engine { return h.eng }

// Network exposes the network the host is attached to.
func (h *Host) Network() *Network { return h.net }

// OnReceive registers the application callback invoked for packets addressed
// to this host, after RX stack latency.
func (h *Host) OnReceive(fn func(pkt *Packet)) { h.recv = fn }

// stackDelay draws one traversal of the host's stack.
func (h *Host) stackDelay() sim.Time { return h.stack.sample(h.rand, h.mu) }

// Send pushes pkt through the TX stack and onto the wire. SentAt is stamped
// with the time the application called Send.
func (h *Host) Send(pkt *Packet) {
	if h.down {
		h.net.FreePacket(pkt)
		return
	}
	pkt.From = h.id
	pkt.SentAt = h.eng.Now()
	pkt.Stamp = h.gen
	pkt.After(h.eng, h.stackDelay(), h.txFn)
}

// HandlePacket implements Node: RX stack latency then the app callback.
func (h *Host) HandlePacket(pkt *Packet) {
	if h.down {
		h.net.FreePacket(pkt)
		return
	}
	pkt.Stamp = h.gen
	pkt.After(h.eng, h.stackDelay(), h.rxFn)
}

// Fail takes the host down: all in-flight stack traversals and future
// traffic are dropped until Restart.
func (h *Host) Fail() {
	h.down = true
	h.net.SetNodeDown(h.id, true)
}

// Restart brings the host back up with empty stacks and an idle CPU.
func (h *Host) Restart() {
	h.down = false
	h.gen++
	h.cpu.Reset()
	h.net.SetNodeDown(h.id, false)
}

// Down reports whether the host is failed.
func (h *Host) Down() bool { return h.down }
