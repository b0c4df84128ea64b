// Package openloop multiplexes millions of logical user sessions onto one
// client transport session, driven by a deterministic open-loop arrival
// process (internal/arrival). Where the closed-loop workload.Driver issues
// the next request only after the previous one completes — and therefore
// self-throttles at saturation — this driver admits user actions at the
// configured offered load regardless of completions, which is what exposes
// the load-latency knee and the goodput ceiling.
//
// The scale trick is the active-session table: logical users exist only as
// an ID range, and per-user state is materialized lazily when an arrival
// picks a user, held in a map keyed by user ID while that user has actions
// in flight, and released back to a free list when the last one completes.
// Live state is O(active sessions) — bounded by MaxInFlight — never
// O(users), so "a million users" is a config number, not a memory budget.
//
// Determinism: every decision (arrival times, user picks, action mixes)
// draws from the driver's own seeded sim.Rand, the table is only ever
// looked up by key (never iterated), and one driver belongs to one client's
// engine — so runs are byte-reproducible and independent of -parallel and
// -shards (each client's driver lives on that client's engine partition,
// exactly like the closed-loop drivers).
package openloop

import (
	"math"

	"pmnet/internal/arrival"
	"pmnet/internal/client"
	"pmnet/internal/sim"
	"pmnet/internal/stats"
	"pmnet/internal/workload"
)

// Config parameterizes one driver (one client's slice of the offered load).
type Config struct {
	// Users is the number of logical users this driver owns, with IDs
	// [UserBase, UserBase+Users). Drivers own disjoint ranges so (user, seq)
	// pairs are globally unique without cross-driver coordination.
	Users    int
	UserBase int
	// MaxInFlight caps concurrently active actions; arrivals beyond it are
	// shed (counted, not queued — an open-loop generator must not convert
	// into a closed loop by backlogging). Default 128.
	MaxInFlight int
	// Skew > 0 concentrates user popularity on low IDs via an inverse
	// power-law transform (uid = Users·u^Skew for uniform u); 0 = uniform.
	Skew float64
	// Warmup..Duration bounds the run: arrivals stop at Duration, and only
	// actions arriving at or after Warmup are measured.
	Warmup   sim.Time
	Duration sim.Time
}

// Stats counts driver activity. Measured* fields cover only arrivals inside
// the [Warmup, Duration) measurement window.
type Stats struct {
	Offered       uint64 // arrivals generated
	Admitted      uint64 // arrivals admitted below the in-flight cap
	Shed          uint64 // arrivals dropped at the cap
	Actions       uint64 // actions fully completed
	ActionsFailed uint64 // actions with at least one failed step
	Requests      uint64 // request completions across all steps
	FailedReqs    uint64
	workload.StepStats
	PeakActive   int    // high-water mark of concurrently active actions
	PeakSessions int    // high-water mark of the active-session table
	MeasuredOff  uint64 // arrivals inside the measurement window
	MeasuredDone uint64 // completed actions that arrived inside it
}

// Merge folds other into s (harness merges per-client stats in client-index
// order; peaks take the max since drivers run on disjoint engines).
func (s *Stats) Merge(other Stats) {
	s.Offered += other.Offered
	s.Admitted += other.Admitted
	s.Shed += other.Shed
	s.Actions += other.Actions
	s.ActionsFailed += other.ActionsFailed
	s.Requests += other.Requests
	s.FailedReqs += other.FailedReqs
	s.StepStats.Merge(other.StepStats)
	if other.PeakActive > s.PeakActive {
		s.PeakActive = other.PeakActive
	}
	if other.PeakSessions > s.PeakSessions {
		s.PeakSessions = other.PeakSessions
	}
	s.MeasuredOff += other.MeasuredOff
	s.MeasuredDone += other.MeasuredDone
}

// session is one active logical user: the table entry materialized while the
// user has actions in flight. Deliberately tiny — this struct times the
// active count IS the per-user memory story.
type session struct {
	uid      int
	inflight int
}

// action is one in-flight user action, pooled across the run. Its stepper
// is bound once, when the action is first made, and plays every step of
// every action the record is recycled for; ops is recycled with it, and with
// ops the storage each step's arguments live in (see workload.Op), so an
// action's requests are valid from its arrival to its finish.
type action struct {
	d        *Driver
	step     workload.Stepper
	ops      []workload.Op
	idx      int
	arrived  sim.Time
	failed   bool
	measured bool
	sess     *session
}

// Driver multiplexes one client transport session across this driver's user
// range. Single-threaded on its engine, like every model component.
type Driver struct {
	cfg  Config
	sess *client.Session
	eng  *sim.Engine
	mix  Mix
	arr  arrival.Source
	rand *sim.Rand
	run  *stats.Run
	res  *stats.Reservoir // optional exact-tail spot-check sample

	st       Stats
	active   map[int]*session // user ID → live session; lookup only, never ranged
	freeSess []*session
	freeAct  []*action
	inflight int
	seq      uint64
	drained  bool   // the arrival process has passed Duration
	onDone   func() // fired once by checkDone
	arrive   func() // onArrival, bound once in Start: every arrival schedules it
}

// New builds a driver. run receives one sample per measured completed action
// (latency = completion − arrival); res, when non-nil, receives the same
// samples for exact-tail spot checks.
func New(cfg Config, sess *client.Session, mix Mix, arr arrival.Source,
	r *sim.Rand, run *stats.Run, res *stats.Reservoir) *Driver {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 128
	}
	if cfg.Users <= 0 {
		panic("openloop: driver owns no users")
	}
	return &Driver{
		cfg:    cfg,
		sess:   sess,
		mix:    mix,
		arr:    arr,
		rand:   r,
		run:    run,
		res:    res,
		active: make(map[int]*session),
	}
}

// Start schedules the first arrival on eng. The run ends by quiescence:
// arrivals stop at Duration and the engine drains once the last in-flight
// action completes or times out.
func (d *Driver) Start(eng *sim.Engine) {
	d.eng, d.arrive = eng, d.onArrival
	d.scheduleNext()
	d.checkDone() // a driver with no arrival inside Duration is done already
}

// OnDone registers fn to run once, on the driver's engine, when the last
// arrival has been generated and the last in-flight action has finished —
// the point past which this driver schedules nothing more. Call before Start.
func (d *Driver) OnDone(fn func()) { d.onDone = fn }

func (d *Driver) checkDone() {
	if d.drained && d.inflight == 0 && d.onDone != nil {
		fn := d.onDone
		d.onDone = nil
		fn()
	}
}

// Stats returns the driver counters. Read only after the engine has drained.
func (d *Driver) Stats() Stats { return d.st }

// ActiveSessions returns the current size of the active-session table.
func (d *Driver) ActiveSessions() int { return len(d.active) }

func (d *Driver) scheduleNext() {
	t := d.arr.Next()
	if t >= d.cfg.Duration {
		d.drained = true
		return
	}
	d.eng.At(t, d.arrive)
}

func (d *Driver) onArrival() {
	d.scheduleNext()
	now := d.eng.Now()
	d.st.Offered++
	measured := now >= d.cfg.Warmup
	if measured {
		d.st.MeasuredOff++
	}
	if d.inflight >= d.cfg.MaxInFlight {
		d.st.Shed++
		return
	}
	d.st.Admitted++
	uid := d.pickUser()
	s := d.active[uid]
	if s == nil {
		s = d.getSession(uid)
		d.active[uid] = s
		if n := len(d.active); n > d.st.PeakSessions {
			d.st.PeakSessions = n
		}
	}
	s.inflight++
	d.inflight++
	if d.inflight > d.st.PeakActive {
		d.st.PeakActive = d.inflight
	}
	a := d.getAction()
	a.arrived = now
	a.measured = measured
	a.sess = s
	d.seq++
	a.ops = d.mix.Action(d.rand, uid, d.seq, a.ops[:0])
	a.next()
}

// pickUser draws this arrival's user from the driver's ID range.
func (d *Driver) pickUser() int {
	u := d.rand.Float64()
	if d.cfg.Skew > 0 {
		u = math.Pow(u, d.cfg.Skew)
	}
	uid := int(u * float64(d.cfg.Users))
	if uid >= d.cfg.Users {
		uid = d.cfg.Users - 1
	}
	return d.cfg.UserBase + uid
}

// next issues a's current step, or finishes the action when none remain.
func (a *action) next() {
	if a.idx >= len(a.ops) {
		a.d.finish(a)
		return
	}
	a.step.Issue(&a.ops[a.idx])
}

// stepDone moves a past a finished step. A failure marks the action but the
// later steps still run: a failed step inside a lock bracket must not leak
// the lock.
func (a *action) stepDone(_ client.Result, ok bool) {
	if ok {
		a.d.st.Requests++
	} else {
		a.d.st.FailedReqs++
		a.failed = true
	}
	a.idx++
	a.next()
}

func (d *Driver) finish(a *action) {
	now := d.eng.Now()
	if a.failed {
		d.st.ActionsFailed++
	} else {
		d.st.Actions++
		if a.measured {
			d.st.MeasuredDone++
			lat := now - a.arrived
			d.run.Record(lat, now)
			if d.res != nil {
				d.res.Record(lat)
			}
		}
	}
	s := a.sess
	s.inflight--
	if s.inflight == 0 {
		delete(d.active, s.uid)
		d.putSession(s)
	}
	d.inflight--
	d.putAction(a)
	d.checkDone()
}

func (d *Driver) getSession(uid int) *session {
	if k := len(d.freeSess) - 1; k >= 0 {
		s := d.freeSess[k]
		d.freeSess = d.freeSess[:k]
		s.uid = uid
		return s
	}
	return &session{uid: uid}
}

func (d *Driver) putSession(s *session) {
	d.freeSess = append(d.freeSess, s)
}

func (d *Driver) getAction() *action {
	if k := len(d.freeAct) - 1; k >= 0 {
		a := d.freeAct[k]
		d.freeAct = d.freeAct[:k]
		return a
	}
	a := &action{d: d}
	a.step.Init(d.eng, d.sess, &d.st.StepStats, a.stepDone)
	return a
}

// putAction recycles a finished action, keeping its stepper binding and its
// ops slice capacity.
func (d *Driver) putAction(a *action) {
	a.ops, a.idx, a.failed, a.sess = a.ops[:0], 0, false, nil
	d.freeAct = append(d.freeAct, a)
}
