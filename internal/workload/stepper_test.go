package workload

import (
	"testing"

	"pmnet/internal/client"
	"pmnet/internal/protocol"
	"pmnet/internal/sim"
)

// TestStepper drives the shared per-request machine through each way a
// request can end, on the farNode rig.
func TestStepper(t *testing.T) {
	lock := Op{Req: protocol.LockReq([]byte("L")), Retry: true}
	cases := []struct {
		name      string
		op        Op
		mute      bool // the far side answers nothing: the request times out
		lockedFor int  // bypass answers StatusLocked this many times, then OK
		wantOK    bool
		wantSt    protocol.Status
		want      StepStats
	}{
		{name: "update succeeds", op: Op{Req: protocol.PutReq([]byte("k"), []byte("v")), Update: true},
			wantOK: true, wantSt: protocol.StatusOK, want: StepStats{Updates: 1}},
		{name: "read succeeds", op: Op{Req: protocol.GetReq([]byte("k"))},
			wantOK: true, wantSt: protocol.StatusOK, want: StepStats{Bypasses: 1}},
		{name: "request error", op: Op{Req: protocol.GetReq([]byte("k"))}, mute: true,
			wantOK: false, wantSt: protocol.StatusError, want: StepStats{Bypasses: 1}},
		{name: "locked, retried, granted", op: lock, lockedFor: 3,
			wantOK: true, wantSt: protocol.StatusOK, want: StepStats{Bypasses: 4, LockOps: 4, LockRetries: 3}},
		{name: "retries exhausted", op: lock, lockedFor: MaxLockRetries + 1,
			wantOK: false, wantSt: protocol.StatusLocked,
			want: StepStats{Bypasses: MaxLockRetries + 1, LockOps: MaxLockRetries + 1, LockRetries: MaxLockRetries}},
		{name: "locked answer to a non-Retry op passes through", op: Op{Req: protocol.UnlockReq([]byte("L"))}, lockedFor: 1,
			wantOK: true, wantSt: protocol.StatusLocked, want: StepStats{Bypasses: 1, LockOps: 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng, d, far := newDriverRig(nil)
			far.mute = c.mute
			answered := 0
			far.onBypass = func([]byte) protocol.Status {
				answered++
				if answered <= c.lockedFor {
					return protocol.StatusLocked
				}
				return protocol.StatusOK
			}
			var st StepStats
			var s Stepper
			calls := 0
			s.Init(eng, d.Sess, &st, func(r client.Result, ok bool) {
				calls++
				if ok != c.wantOK || r.Status != c.wantSt || (r.Err != nil) != c.mute {
					t.Errorf("done(status %v, err %v, ok %v), want status %v ok %v", r.Status, r.Err, ok, c.wantSt, c.wantOK)
				}
			})
			start := eng.Now()
			s.Issue(&c.op)
			eng.Run()
			if calls != 1 {
				t.Fatalf("done called %d times, want once", calls)
			}
			if st != c.want {
				t.Errorf("counted %+v, want %+v", st, c.want)
			}
			if took, floor := eng.Now()-start, RetryDelay*sim.Time(c.want.LockRetries); took < floor {
				t.Errorf("%d retries took %v, under %d × RetryDelay", c.want.LockRetries, took, c.want.LockRetries)
			}
		})
	}
}
