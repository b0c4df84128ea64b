package pdes

import (
	"fmt"
	"testing"

	"pmnet/internal/sim"
)

// forceWorkers overrides the GOMAXPROCS clamp so the concurrent barrier path
// is exercised (under -race in CI) even on single-core hosts, where New would
// otherwise always select the inline single-worker path.
func forceWorkers(r *Runner, w int) { r.SetWorkers(w) }

// xmsg is one synthetic cross-shard message.
type xmsg struct {
	at   sim.Time
	from int // source shard
	seq  int // source emission order
}

// xside is one parity half of a synthetic handoff queue: the buffer plus the
// minimum queued time, reset by Begin before the parity is written again.
type xside struct {
	buf  []xmsg
	qmin sim.Time
}

// testNet is a miniature cross-shard model following the same discipline as
// netsim.Fabric under the single-barrier protocol: per ordered shard-pair
// single-producer queues, parity-double-buffered — during epoch k producers
// append to sides[k&1] while consumers drain sides[(k-1)&1] — with a
// pending-minimum per parity so undrained events stay visible to gmin.
// Every delivery is logged and re-sends to the next shard until the hop
// budget runs out.
type testNet struct {
	engs   []*sim.Engine
	queues [][]*[2]xside // [src][dst]
	par    []uint32      // per-shard current write parity (set by Begin)
	seqs   []int
	logs   [][]string
	la     sim.Time
}

func newTestNet(nshards int, la sim.Time) *testNet {
	tn := &testNet{la: la}
	tn.engs = make([]*sim.Engine, nshards)
	tn.queues = make([][]*[2]xside, nshards)
	tn.par = make([]uint32, nshards)
	tn.seqs = make([]int, nshards)
	tn.logs = make([][]string, nshards)
	for i := range tn.engs {
		tn.engs[i] = sim.NewEngine()
		tn.queues[i] = make([]*[2]xside, nshards)
		for j := 0; j < nshards; j++ {
			q := &[2]xside{}
			q[0].qmin = never
			q[1].qmin = never
			tn.queues[i][j] = q
		}
	}
	return tn
}

// send queues a message on the sender's current write parity. Must only be
// called from inside an engine callback (i.e. during an epoch), after Begin
// has set the parity — the same contract netsim.Transmit lives under.
func (tn *testNet) send(from, to int, at sim.Time) {
	tn.seqs[from]++
	side := &tn.queues[from][to][tn.par[from]]
	side.buf = append(side.buf, xmsg{at: at, from: from, seq: tn.seqs[from]})
	if at < side.qmin {
		side.qmin = at
	}
}

// begin flips shard s's outbound queues to the new write parity.
func (tn *testNet) begin(s int, parity uint32) {
	tn.par[s] = parity
	for _, q := range tn.queues[s] {
		q[parity].qmin = never
	}
}

// drain injects shard d's inbound messages at the read parity in the
// deterministic merge order.
func (tn *testNet) drain(d int, parity uint32) {
	for src := 0; src < len(tn.engs); src++ {
		side := &tn.queues[src][d][parity]
		if len(side.buf) == 0 {
			continue
		}
		// Injection in (source, emission) order: the engine heap orders by
		// time with insertion-order tiebreak, so this fixed order is the
		// deterministic merge key regardless of buffer sortedness.
		for _, m := range side.buf {
			m := m
			tn.engs[d].At(m.at, func() { tn.deliver(d, m) })
		}
		side.buf = side.buf[:0]
	}
}

// pendingOut is shard i's PendingOut hook: the minimum queued time across
// its outbound queues at the given parity, as netsim.Fabric.PendingOutFunc
// computes it.
func (tn *testNet) pendingOut(i int, parity uint32) sim.Time {
	min := never
	for _, q := range tn.queues[i] {
		if t := q[parity].qmin; t < min {
			min = t
		}
	}
	return min
}

// deliver logs the message and forwards it around the ring while the virtual
// clock is young — exercising multi-epoch chains of cross-shard traffic.
func (tn *testNet) deliver(d int, m xmsg) {
	now := tn.engs[d].Now()
	tn.logs[d] = append(tn.logs[d], fmt.Sprintf("t=%d %d->%d #%d", now, m.from, d, m.seq))
	if now < 100*tn.la {
		// Deterministic pseudo-jitter from the message identity alone.
		jitter := sim.Time((m.seq*7 + d*13) % 23)
		tn.send(d, (d+1)%len(tn.engs), now+tn.la+jitter)
	}
}

func (tn *testNet) shards() []Shard {
	out := make([]Shard, len(tn.engs))
	for i := range tn.engs {
		i := i
		out[i] = Shard{
			Eng:        tn.engs[i],
			Begin:      func(p uint32) { tn.begin(i, p) },
			Drain:      func(p uint32) { tn.drain(i, p) },
			PendingOut: func(p uint32) sim.Time { return tn.pendingOut(i, p) },
		}
	}
	return out
}

// runner builds a Runner wired to the testNet's parity hooks.
func (tn *testNet) runner(workers int) *Runner {
	r := New(tn.shards(), tn.la, workers)
	forceWorkers(r, workers)
	return r
}

// newRingNet seeds one message per shard; each walks the ring of shards until
// the forwarding horizon, so every shard stays busy.
func newRingNet(nshards int) *testNet {
	tn := newTestNet(nshards, 50)
	for i := range tn.engs {
		i := i
		tn.engs[i].At(1, func() { tn.deliver(i, xmsg{at: 1, from: i, seq: 0}) })
	}
	return tn
}

// newPhasedNet parks the activity on shard 0 for long phases — the idle-skip
// path's best case. Shard 0 runs 1500 local events 7 ns apart (to t≈10500)
// and sends into the ring on every 37th, which walks on while t < 100·la =
// 5000; from there to the lone far event on shard 2 at t=20000 the other
// shards have next to nothing to run.
func newPhasedNet() *testNet {
	tn := newTestNet(4, 50)
	eng := tn.engs[0]
	n := 0
	var tick func()
	tick = func() {
		n++
		now := eng.Now()
		tn.logs[0] = append(tn.logs[0], fmt.Sprintf("t=%d local %d", now, n))
		if n%37 == 0 {
			tn.send(0, 1, now+tn.la+sim.Time(n%11))
		}
		if n < 1500 {
			eng.At(now+7, tick)
		}
	}
	eng.At(1, tick)
	tn.engs[2].At(20000, func() {
		tn.logs[2] = append(tn.logs[2], fmt.Sprintf("t=%d far", tn.engs[2].Now()))
	})
	return tn
}

// sameLogs fails the test unless the per-shard logs match line for line.
func sameLogs(t *testing.T, label string, got, want [][]string) {
	t.Helper()
	for s := range want {
		if len(got[s]) != len(want[s]) {
			t.Fatalf("%s shard %d: %d events vs %d", label, s, len(got[s]), len(want[s]))
		}
		for i := range want[s] {
			if got[s][i] != want[s][i] {
				t.Fatalf("%s shard %d event %d: %q vs %q", label, s, i, got[s][i], want[s][i])
			}
		}
	}
}

// TestWorkerCountInvariance: per-shard event logs are identical no matter how
// many workers drive the shard set — the core determinism contract — and so
// are the epoch count (mirrored into the deterministic counter registry) and
// the idle skips, which depend on the shard structure alone. Run with -race
// to also prove the barrier publishes the queue handoffs.
func TestWorkerCountInvariance(t *testing.T) {
	for _, tc := range []struct {
		name    string
		net     func() *testNet
		workers []int
		idle    bool // most shard-epochs have nothing to run
	}{
		{"ring", func() *testNet { return newRingNet(5) }, []int{2, 3, 5}, false},
		{"phased", newPhasedNet, []int{2, 4}, true},
	} {
		run := func(workers int) ([][]string, PerfStats) {
			tn := tc.net()
			r := tn.runner(workers)
			r.Run()
			return tn.logs, r.Perf()
		}
		base, basePerf := run(1)
		if len(base[0]) == 0 {
			t.Fatalf("%s: shard 0 logged nothing", tc.name)
		}
		if tc.idle && basePerf.IdleSkips < basePerf.Epochs {
			t.Fatalf("%s: %d idle skips over %d epochs — the workload no longer parks on one shard",
				tc.name, basePerf.IdleSkips, basePerf.Epochs)
		}
		for _, w := range tc.workers {
			label := fmt.Sprintf("%s workers=%d", tc.name, w)
			got, perf := run(w)
			sameLogs(t, label, got, base)
			if perf.Epochs != basePerf.Epochs || perf.IdleSkips != basePerf.IdleSkips {
				t.Fatalf("%s: %d epochs, %d idle skips; one worker ran %d and %d",
					label, perf.Epochs, perf.IdleSkips, basePerf.Epochs, basePerf.IdleSkips)
			}
		}
	}
}

// TestRunLeavesClockAtLastEvent: an unbounded Run ends at the time of the last
// event on every worker count — an epoch window must not park a drained
// engine's clock at the window's end, which lies up to a lookahead later.
func TestRunLeavesClockAtLastEvent(t *testing.T) {
	for _, workers := range []int{1, 2} {
		tn := newTestNet(2, 1000)
		tn.engs[0].At(10, func() {})
		tn.engs[1].At(1234, func() {})
		r := tn.runner(workers)
		r.Run()
		if got := r.Now(); got != 1234 {
			t.Errorf("workers=%d: Now() = %d after Run, want the last event's time 1234", workers, got)
		}
		if got := tn.engs[0].Now(); got != 10 {
			t.Errorf("workers=%d: idle engine's clock at %d, want its last event's time 10", workers, got)
		}
	}
}

// TestRunUntilSemantics mirrors Engine.RunUntil: events past the deadline
// stay queued, clocks land exactly on the deadline, and a later call resumes.
func TestRunUntilSemantics(t *testing.T) {
	tn := newTestNet(3, 50)
	fired := 0
	tn.engs[0].At(10, func() { fired++ })
	tn.engs[1].At(500, func() { fired++ })
	tn.engs[2].At(1500, func() { fired++ })
	r := tn.runner(1)
	r.RunUntil(1000)
	if fired != 2 {
		t.Fatalf("fired %d of 2 events due by t=1000", fired)
	}
	if r.Now() != 1000 {
		t.Fatalf("Now() = %d, want deadline 1000", r.Now())
	}
	for i, e := range tn.engs {
		if e.Now() != 1000 {
			t.Fatalf("shard %d clock %d, want 1000", i, e.Now())
		}
	}
	r.RunUntil(2000)
	if fired != 3 {
		t.Fatalf("fired %d of 3 after resume", fired)
	}

	// A deadline that lands while only shard 0 has work: every worker must
	// leave every clock on it, idle shards included, and the resumed run must
	// match the uninterrupted one.
	whole := newPhasedNet()
	whole.runner(1).Run()
	for _, w := range []int{1, 2, 3} {
		tn := newPhasedNet()
		r := tn.runner(w)
		r.RunUntil(8000)
		for i, e := range tn.engs {
			if e.Now() != 8000 {
				t.Fatalf("workers=%d: shard %d clock %d after RunUntil(8000)", w, i, e.Now())
			}
		}
		r.Run()
		sameLogs(t, fmt.Sprintf("resumed workers=%d", w), tn.logs, whole.logs)
	}
}

// TestPerfSurvivesSetWorkers: Perf is accumulated over the runner's life, so
// resizing the worker pool between two RunUntil calls — what the testbed does
// whenever the shared worker budget grants a segment a different count — must
// not restart IdleSkips.
func TestPerfSurvivesSetWorkers(t *testing.T) {
	tn := newPhasedNet()
	r := tn.runner(2)
	r.RunUntil(8000)
	mid := r.Perf()
	if mid.IdleSkips == 0 {
		t.Fatal("no idle skips before the resize; the workload shape is broken")
	}
	r.SetWorkers(1)
	if got := r.Perf(); got != mid {
		t.Fatalf("SetWorkers changed Perf from %+v to %+v", mid, got)
	}
	r.Run()
	if end := r.Perf(); end.IdleSkips <= mid.IdleSkips || end.Epochs <= mid.Epochs {
		t.Fatalf("Perf did not keep accumulating: %+v after %+v", end, mid)
	}
}

// TestQueuedOnlyEventsKeepRunAlive: an event that exists ONLY in a handoff
// buffer (every engine drained) must still hold the run open and fire — the
// pending-minimum hook is what makes it visible to gmin under the
// single-barrier protocol. Also exercises the idle-shard fast path: between
// t=1 and t=1000 the sender shard has nothing to run.
func TestQueuedOnlyEventsKeepRunAlive(t *testing.T) {
	for _, w := range []int{1, 2} {
		tn := newTestNet(2, 50)
		// t=6000 is past deliver's forwarding horizon (100*la), so exactly
		// one delivery happens — after a long gmin jump across idle time.
		tn.engs[0].At(1, func() { tn.send(0, 1, 6000) })
		r := tn.runner(w)
		r.Run()
		if len(tn.logs[1]) != 1 {
			t.Fatalf("workers=%d: queued-only event never fired (log %v)", w, tn.logs[1])
		}
		if want := "t=6000 0->1 #1"; tn.logs[1][0] != want {
			t.Fatalf("workers=%d: got %q, want %q", w, tn.logs[1][0], want)
		}
		if r.Perf().Epochs < 2 {
			t.Fatalf("workers=%d: expected at least 2 epochs, got %d", w, r.Perf().Epochs)
		}
	}
}

// TestResumeAcrossDeadlineWithQueuedEvents: a cross-shard event beyond the
// deadline stays in the handoff buffer at exit and fires on the resumed
// call — the parity state must survive across RunUntil calls.
func TestResumeAcrossDeadlineWithQueuedEvents(t *testing.T) {
	tn := newTestNet(2, 50)
	tn.engs[0].At(1, func() { tn.send(0, 1, 5000) })
	r := tn.runner(1)
	r.RunUntil(2000)
	if len(tn.logs[1]) != 0 {
		t.Fatalf("event at t=5000 fired before deadline 2000: %v", tn.logs[1])
	}
	if r.Now() != 2000 {
		t.Fatalf("Now() = %d, want 2000", r.Now())
	}
	r.RunUntil(6000)
	if len(tn.logs[1]) != 1 {
		t.Fatalf("queued event lost across resume (log %v)", tn.logs[1])
	}
}

// TestCancelAcrossEpochs is the schedule/cancel stress of the sharded
// engine: each shard keeps scheduling pairs of timers several epochs ahead
// and cancels one of each pair from a later epoch. Cancelled timers must
// never fire, and the surviving-fire log must not depend on the worker
// count. (Cancels are shard-local — an Event may only be touched by the
// engine that minted it — matching the model-code discipline pmnetlint's
// sharedstate analyzer enforces.) With 200 rounds the run crosses the
// rebalanceEvery cadence many times, so the dynamic shard→worker
// reassignment is exercised under -race too.
func TestCancelAcrossEpochs(t *testing.T) {
	run := func(workers int) [][]string {
		tn := newTestNet(4, 50)
		for i := range tn.engs {
			i := i
			eng := tn.engs[i]
			var step func(round int)
			step = func(round int) {
				if round >= 200 {
					return
				}
				now := eng.Now()
				// Two timers several epochs out; the first is doomed.
				doomed := eng.At(now+sim.Time(120+round%7), func() {
					tn.logs[i] = append(tn.logs[i], fmt.Sprintf("DOOMED r%d", round))
				})
				eng.At(now+sim.Time(130+round%11), func() {
					tn.logs[i] = append(tn.logs[i], fmt.Sprintf("t=%d fire r%d", eng.Now(), round))
				})
				// Cancel from a different epoch than the schedule.
				eng.At(now+sim.Time(60+round%5), func() {
					doomed.Cancel()
					// And keep cross-shard traffic flowing so epochs stay busy.
					tn.send(i, (i+1)%len(tn.engs), eng.Now()+tn.la)
					step(round + 1)
				})
			}
			eng.At(1, func() { step(0) })
		}
		r := tn.runner(workers)
		r.Run()
		return tn.logs
	}

	base := run(1)
	for s := range base {
		if len(base[s]) == 0 {
			t.Fatalf("shard %d logged nothing", s)
		}
		for _, line := range base[s] {
			if len(line) >= 6 && line[:6] == "DOOMED" {
				t.Fatalf("shard %d: cancelled timer fired: %q", s, line)
			}
		}
	}
	for _, w := range []int{2, 4} {
		got := run(w)
		for s := range base {
			if len(got[s]) != len(base[s]) {
				t.Fatalf("workers=%d shard %d: %d lines vs %d", w, s, len(got[s]), len(base[s]))
			}
			for i := range base[s] {
				if got[s][i] != base[s][i] {
					t.Fatalf("workers=%d shard %d line %d: %q vs %q", w, s, i, got[s][i], base[s][i])
				}
			}
		}
	}
}

// TestEventsRunInvariant: the total event count is identical across worker
// counts (the perf block's events metric is deterministic), and so is the
// epoch count (mirrored into the deterministic counter registry).
func TestEventsRunInvariant(t *testing.T) {
	count := func(workers int) (uint64, uint64) {
		tn := newTestNet(4, 50)
		for i := range tn.engs {
			i := i
			tn.engs[i].At(1, func() { tn.deliver(i, xmsg{at: 1, from: i, seq: 0}) })
		}
		r := tn.runner(workers)
		r.Run()
		return r.EventsRun(), r.Perf().Epochs
	}
	base, baseEpochs := count(1)
	if base == 0 {
		t.Fatal("no events ran")
	}
	if baseEpochs == 0 {
		t.Fatal("no epochs ran")
	}
	for _, w := range []int{2, 4} {
		got, epochs := count(w)
		if got != base {
			t.Fatalf("workers=%d: EventsRun %d != %d", w, got, base)
		}
		if epochs != baseEpochs {
			t.Fatalf("workers=%d: Epochs %d != %d", w, epochs, baseEpochs)
		}
	}
}

// TestRebalanceConverges: under a deliberately skewed load (one hot shard,
// three idle ones) the deterministic LPT reassignment must move the hot
// shard without perturbing the logs — identical output at every worker
// count is already asserted elsewhere; here we assert the assignment
// actually changed from the initial s mod W stride.
func TestRebalanceConverges(t *testing.T) {
	tn := newTestNet(4, 50)
	eng := tn.engs[0]
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < 2000 {
			eng.At(eng.Now()+10, tick)
		}
	}
	eng.At(1, tick)
	r := tn.runner(2)
	r.Run()
	if r.Perf().Epochs < 2*rebalanceEvery {
		t.Fatalf("run too short to rebalance: %d epochs", r.Perf().Epochs)
	}
	// All worker states must agree (they recompute from identical data).
	for w := 1; w < len(r.states); w++ {
		for s := range r.states[0].asg {
			if r.states[w].asg[s] != r.states[0].asg[s] {
				t.Fatalf("worker %d disagrees on shard %d assignment", w, s)
			}
		}
	}
	// The hot shard (0) should own a worker to itself under LPT.
	asg := r.states[0].asg
	for s := 1; s < 4; s++ {
		if asg[s] == asg[0] {
			t.Fatalf("idle shard %d still co-scheduled with hot shard 0: %v", s, asg)
		}
	}
}

// TestNewClamps: construction guards.
func TestNewClamps(t *testing.T) {
	tn := newTestNet(2, 50)
	r := New(tn.shards(), 50, 99)
	if r.Workers() > 2 {
		t.Fatalf("workers %d not clamped to shard count", r.Workers())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero lookahead must panic")
		}
	}()
	New(tn.shards(), 0, 1)
}
