package workload

import (
	"math"
	"strings"
	"testing"

	"pmnet/internal/protocol"
	"pmnet/internal/sim"
)

func TestYCSBUpdateRatio(t *testing.T) {
	for _, ratio := range []float64{0.25, 0.5, 1.0} {
		g := NewYCSB(sim.NewRand(1), YCSBConfig{Keys: 1000, UpdateRatio: ratio})
		updates := 0
		const n = 20000
		for i := 0; i < n; i++ {
			op := g.Next()
			if op.Update {
				updates++
				if op.Req.Op != protocol.OpPut {
					t.Fatal("update op is not a PUT")
				}
				if len(op.Req.Args[1]) != 100 {
					t.Fatalf("default payload %d bytes, want 100", len(op.Req.Args[1]))
				}
			} else if op.Req.Op != protocol.OpGet {
				t.Fatal("read op is not a GET")
			}
		}
		got := float64(updates) / n
		if math.Abs(got-ratio) > 0.02 {
			t.Fatalf("update fraction %.3f, want %.2f", got, ratio)
		}
	}
}

func TestYCSBZipfianSkew(t *testing.T) {
	g := NewYCSB(sim.NewRand(2), YCSBConfig{Keys: 1000, UpdateRatio: 0, Zipfian: true})
	counts := map[string]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[string(g.Next().Req.Args[0])]++
	}
	hot := counts[string(YCSBKey(0))]
	if hot < n/50 {
		t.Fatalf("hottest key only %d/%d requests; zipf not skewed", hot, n)
	}
}

func TestYCSBKeysInRange(t *testing.T) {
	g := NewYCSB(sim.NewRand(3), YCSBConfig{Keys: 10, UpdateRatio: 0.5})
	for i := 0; i < 1000; i++ {
		key := string(g.Next().Req.Key())
		if !strings.HasPrefix(key, "user0000000") {
			t.Fatalf("key %q outside 10-key space", key)
		}
	}
}

func TestTwitterCommandShapes(t *testing.T) {
	g := NewTwitter(sim.NewRand(4), 3, TwitterConfig{Users: 100, UpdateRatio: 0.5})
	cmds := map[string]int{}
	updates, reads := 0, 0
	for i := 0; i < 5000; i++ {
		op := g.Next()
		if op.Req.Op != protocol.OpTxn {
			t.Fatal("twitter op is not a redis command")
		}
		cmd := string(op.Req.Args[0])
		cmds[cmd]++
		if op.Update {
			updates++
			switch cmd {
			case "INCR", "SET", "LPUSH", "SADD":
			default:
				t.Fatalf("mutating flag on %s", cmd)
			}
		} else {
			reads++
			switch cmd {
			case "LRANGE", "GET":
			default:
				t.Fatalf("read flag on %s", cmd)
			}
		}
	}
	for _, want := range []string{"INCR", "SET", "LPUSH", "SADD", "LRANGE", "GET"} {
		if cmds[want] == 0 {
			t.Fatalf("command %s never generated (%v)", want, cmds)
		}
	}
	if updates == 0 || reads == 0 {
		t.Fatal("mix degenerate")
	}
}

func TestTwitterNoLocks(t *testing.T) {
	g := NewTwitter(sim.NewRand(5), 0, TwitterConfig{Users: 50})
	for i := 0; i < 2000; i++ {
		op := g.Next()
		if op.Req.Op == protocol.OpLockAcquire || op.Req.Op == protocol.OpLockRelease {
			t.Fatal("twitter workload must be lock-free (§III-C)")
		}
	}
}

// tpccPlayers returns the TPCC definition's request stream under both of its
// players: the closed loop's fixed-terminal Player, and Mix.Action called as
// the open loop calls it (a fresh user and the next sequence per action).
func tpccPlayers(seed uint64, cfg TPCCConfig) map[string]func() Op {
	r := sim.NewRand(seed)
	mix := NewTPCCMix(cfg)
	var ops []Op
	var seq uint64
	return map[string]func() Op{
		"closed": NewTPCC(sim.NewRand(seed), 1, cfg).Next,
		"mix": func() Op {
			if len(ops) == 0 {
				seq++
				ops = mix.Action(r, r.Intn(100000), seq, nil)
			}
			op := ops[0]
			ops = ops[1:]
			return op
		},
	}
}

func TestTPCCLockFraction(t *testing.T) {
	for name, next := range tpccPlayers(6, TPCCConfig{}) {
		t.Run(name, func(t *testing.T) {
			locks, total := 0, 0
			for i := 0; i < 50000; i++ {
				op := next()
				total++
				if op.Req.Op == protocol.OpLockAcquire || op.Req.Op == protocol.OpLockRelease {
					locks++
				}
				if op.Req.Op == protocol.OpLockAcquire && !op.Retry {
					t.Fatal("lock acquire must be retryable")
				}
			}
			frac := float64(locks) / float64(total)
			// Paper §III-C: 13.7% of TPCC requests access the locking primitive.
			if math.Abs(frac-0.137) > 0.02 {
				t.Fatalf("lock fraction %.3f, want ≈0.137", frac)
			}
		})
	}
}

func TestTPCCCriticalSectionOrder(t *testing.T) {
	for name, next := range tpccPlayers(7, TPCCConfig{UpdateRatio: 1.0}) {
		t.Run(name, func(t *testing.T) {
			depth := 0
			sawStockPut := false
			for i := 0; i < 5000; i++ {
				op := next()
				switch op.Req.Op {
				case protocol.OpLockAcquire:
					if depth != 0 {
						t.Fatal("nested lock acquire")
					}
					depth++
					sawStockPut = false
				case protocol.OpLockRelease:
					if depth != 1 {
						t.Fatal("release without acquire")
					}
					if !sawStockPut {
						t.Fatal("critical section without stock update")
					}
					depth--
				case protocol.OpPut:
					if strings.HasPrefix(string(op.Req.Key()), "tpcc:stock:") {
						if depth != 1 {
							t.Fatal("stock update outside critical section (Fig. 5)")
						}
						sawStockPut = true
					}
				}
			}
		})
	}
}

func TestTPCCUpdatesInsideCriticalSectionAreLogged(t *testing.T) {
	// The point of §III-C: updates inside the critical section still travel
	// as update-reqs (benefit from PMNet); only the lock ops bypass.
	g := NewTPCC(sim.NewRand(8), 0, TPCCConfig{UpdateRatio: 1.0})
	inCS := false
	for i := 0; i < 3000; i++ {
		op := g.Next()
		switch op.Req.Op {
		case protocol.OpLockAcquire:
			inCS = true
		case protocol.OpLockRelease:
			inCS = false
		case protocol.OpPut:
			if inCS && !op.Update {
				t.Fatal("in-CS update not flagged for PMNet logging")
			}
		}
	}
}
