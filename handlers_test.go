package pmnet

import (
	"fmt"
	"testing"
)

func TestNewKVHandlerAllEngines(t *testing.T) {
	for _, name := range EngineNames {
		h, err := NewKVHandler(name, 8<<20)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		resp, cost := h.Handle(PutReq([]byte("k"), []byte("v")))
		if resp.Status != StatusOK || cost <= 0 {
			t.Fatalf("%s: put %+v cost %v", name, resp, cost)
		}
		resp, _ = h.Handle(GetReq([]byte("k")))
		if resp.Status != StatusOK || string(resp.Args[1]) != "v" {
			t.Fatalf("%s: get %+v", name, resp)
		}
	}
}

func TestNewKVHandlerUnknownEngine(t *testing.T) {
	if _, err := NewKVHandler("btrie", 0); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

func TestNewRedisHandler(t *testing.T) {
	h, err := NewRedisHandler(8 << 20)
	if err != nil {
		t.Fatal(err)
	}
	resp, _ := h.Handle(TxnReq([]byte("INCR"), []byte("ctr")))
	if resp.Status != StatusOK || string(resp.Args[0]) != "1" {
		t.Fatalf("INCR: %+v", resp)
	}
}

func TestEngineNamesExported(t *testing.T) {
	if len(EngineNames) != 5 {
		t.Fatalf("EngineNames = %v", EngineNames)
	}
	// The exported slice must be a copy: mutating it must not corrupt the
	// registry used by NewKVHandler.
	saved := EngineNames[0]
	EngineNames[0] = "corrupted"
	defer func() { EngineNames[0] = saved }()
	if _, err := NewKVHandler(saved, 1<<20); err != nil {
		t.Fatalf("registry corrupted by exported-slice mutation: %v", err)
	}
}

// End-to-end: a full cluster with each engine handler behind PMNet, doing a
// write → read → delete → read sequence through the network.
func TestEndToEndEachEngine(t *testing.T) {
	for _, name := range EngineNames {
		name := name
		t.Run(name, func(t *testing.T) {
			h, err := NewKVHandler(name, 16<<20)
			if err != nil {
				t.Fatal(err)
			}
			bed := NewTestbed(Config{Design: PMNetSwitch, Seed: 3, Handler: h})
			s := bed.Session(0)
			var steps []string
			s.SendUpdate(PutReq([]byte("alpha"), []byte("one")), func(r Result) {
				steps = append(steps, fmt.Sprintf("put:%v", r.Status))
				s.Bypass(GetReq([]byte("alpha")), func(r Result) {
					steps = append(steps, fmt.Sprintf("get:%v:%s", r.Status, r.Value))
					s.SendUpdate(DeleteReq([]byte("alpha")), func(r Result) {
						steps = append(steps, fmt.Sprintf("del:%v", r.Status))
						s.Bypass(GetReq([]byte("alpha")), func(r Result) {
							steps = append(steps, fmt.Sprintf("get2:%v", r.Status))
						})
					})
				})
			})
			bed.Run()
			want := []string{"put:ok", "get:ok:one", "del:ok", "get2:not-found"}
			if len(steps) != len(want) {
				t.Fatalf("steps %v", steps)
			}
			for i := range want {
				if steps[i] != want[i] {
					t.Fatalf("step %d = %q, want %q (all: %v)", i, steps[i], want[i], steps)
				}
			}
		})
	}
}

func TestDesignAndStackStrings(t *testing.T) {
	if ClientServer.String() != "Client-Server" || PMNetSwitch.String() != "PMNet-Switch" ||
		PMNetNIC.String() != "PMNet-NIC" {
		t.Fatal("design names wrong")
	}
	if Design(99).String() == "" {
		t.Fatal("unknown design must format")
	}
}

func TestTestbedConfigDefaults(t *testing.T) {
	bed := NewTestbed(Config{Design: PMNetSwitch})
	cfg := bed.Config()
	if cfg.Clients != 1 || cfg.ServerWorkers != 16 || cfg.Replication != 1 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if cfg.Handler == nil || cfg.Timeout <= 0 {
		t.Fatal("handler/timeout defaults missing")
	}
	if len(bed.Devices) != 1 || bed.ToR == nil || bed.Server == nil {
		t.Fatal("testbed components missing")
	}
}

func TestEndToEndScan(t *testing.T) {
	h, err := NewKVHandler("btree", 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	bed := NewTestbed(Config{Design: PMNetSwitch, Seed: 4, Handler: h})
	s := bed.Session(0)
	// Insert three keys then range-scan from the second.
	var scanned [][]byte
	s.SendUpdate(PutReq([]byte("kA"), []byte("1")), func(Result) {
		s.SendUpdate(PutReq([]byte("kB"), []byte("2")), func(Result) {
			s.SendUpdate(PutReq([]byte("kC"), []byte("3")), func(Result) {
				s.Bypass(ScanReq([]byte("kB"), 10), func(r Result) {
					if r.Status != StatusOK {
						t.Errorf("scan status %v", r.Status)
					}
					for _, a := range r.Args { // valid until the callback returns
						scanned = append(scanned, append([]byte(nil), a...))
					}
				})
			})
		})
	})
	bed.Run()
	if len(scanned) != 4 { // kB,2,kC,3
		t.Fatalf("scan args %q", scanned)
	}
	if string(scanned[0]) != "kB" || string(scanned[3]) != "3" {
		t.Fatalf("scan results %q", scanned)
	}
}

func TestMultiServerRack(t *testing.T) {
	// Three servers behind one PMNet ToR; sessions round-robin. Each server
	// gets its own engine; the shared device logs per-destination.
	bed := NewTestbed(Config{
		Design:  PMNetSwitch,
		Clients: 6,
		Servers: 3,
		Seed:    8,
		HandlerFactory: func(i int) Handler {
			h, err := NewKVHandler("hashmap", 8<<20)
			if err != nil {
				t.Fatal(err)
			}
			return h
		},
	})
	if len(bed.Servers) != 3 {
		t.Fatalf("built %d servers", len(bed.Servers))
	}
	done := 0
	for c := 0; c < 6; c++ {
		c := c
		var issue func(k int)
		issue = func(k int) {
			if k >= 30 {
				return
			}
			key := []byte(fmt.Sprintf("c%d-k%02d", c, k))
			bed.Session(c).SendUpdate(PutReq(key, []byte("v")), func(r Result) {
				if r.Err == nil {
					done++
				}
				issue(k + 1)
			})
		}
		issue(0)
	}
	bed.Run()
	if done != 180 {
		t.Fatalf("completed %d/180", done)
	}
	// Work spread across all three servers; the one device served them all.
	for i, s := range bed.Servers {
		if got := s.Stats().UpdatesApplied; got != 60 {
			t.Fatalf("server %d applied %d, want 60", i, got)
		}
	}
	st := bed.Devices[0].Stats()
	if st.Log.Logged != 180 || bed.Devices[0].Log().LiveEntries() != 0 {
		t.Fatalf("device log stats: logged=%d live=%d", st.Log.Logged,
			bed.Devices[0].Log().LiveEntries())
	}
}

func TestMultiServerIndependentCrash(t *testing.T) {
	// Crashing one server of the rack must not disturb the others, and its
	// recovery replay must only target it.
	handlers := make([]*struct{ h Handler }, 3)
	bed := NewTestbed(Config{
		Design:  PMNetSwitch,
		Clients: 3,
		Servers: 3,
		Seed:    9,
		Timeout: 20 * Millisecond,
		HandlerFactory: func(i int) Handler {
			h, _ := NewKVHandler("hashmap", 8<<20)
			handlers[i] = &struct{ h Handler }{h}
			return h
		},
	})
	completed := 0
	for c := 0; c < 3; c++ {
		c := c
		var issue func(k int)
		issue = func(k int) {
			if k >= 40 {
				return
			}
			bed.Session(c).SendUpdate(PutReq([]byte(fmt.Sprintf("c%d-%02d", c, k)), []byte("v")),
				func(r Result) {
					if r.Err == nil {
						completed++
					}
					issue(k + 1)
				})
		}
		issue(0)
	}
	bed.RunFor(300 * Microsecond)
	bed.Servers[1].Crash() // only server 1 (client 1's backend)
	bed.RunFor(400 * Microsecond)
	bed.Servers[1].Recover()
	bed.Run()
	if completed != 120 {
		t.Fatalf("completed %d/120", completed)
	}
	for i, s := range bed.Servers {
		if got := s.Stats().UpdatesApplied; got != 40 {
			t.Fatalf("server %d applied %d, want 40", i, got)
		}
	}
	if bed.Devices[0].Log().LiveEntries() != 0 {
		t.Fatal("device log not drained")
	}
}
