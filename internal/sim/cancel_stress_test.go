package sim

// Cancel-heavy stress of the engine's node pool and wheel under epoch-style
// bounded execution: the conservative-PDES runner (internal/sim/pdes) drives
// engines through many short RunUntil windows, so Event handles routinely
// survive across window boundaries — scheduled in one window, cancelled or
// fired in a later one. The generation-tagged pool must never let a recycled
// node leak a stale callback through an old handle, and the wheel must stay
// consistent through arbitrary interleavings of schedule, cancel, and fire.

import (
	"fmt"
	"testing"

	"pmnet/internal/raceflag"
)

// TestCancelStormAcrossWindows runs a deterministic schedule/cancel storm
// through thousands of short RunUntil windows and verifies (a) cancelled
// events never fire, (b) every surviving event fires exactly once, (c) the
// firing log is identical to an unwindowed run of the same storm.
func TestCancelStormAcrossWindows(t *testing.T) {
	type record struct {
		id    int
		ev    Event
		dead  bool
		fired bool
	}
	storm := func(windowed bool) []string {
		eng := NewEngine()
		r := NewRand(42)
		var log []string
		live := make([]*record, 0, 512)
		next := 0
		var tick func()
		tick = func() {
			now := eng.Now()
			// Schedule a burst of future events, some several windows out.
			for k := 0; k < 8; k++ {
				rec := &record{id: next}
				next++
				delay := Time(1 + r.Intn(300))
				rec.ev = eng.At(now+delay, func() {
					if rec.dead {
						log = append(log, fmt.Sprintf("ZOMBIE %d", rec.id))
						return
					}
					rec.fired = true
					log = append(log, fmt.Sprintf("t=%d fire %d", eng.Now(), rec.id))
				})
				live = append(live, rec)
			}
			// Cancel a deterministic subset of everything still pending —
			// including events scheduled many ticks ago, so cancels and their
			// targets land in different windows.
			keep := live[:0]
			for _, rec := range live {
				if rec.fired {
					continue
				}
				if r.Intn(3) == 0 {
					rec.dead = true
					rec.ev.Cancel()
					log = append(log, fmt.Sprintf("t=%d cancel %d", now, rec.id))
					continue
				}
				keep = append(keep, rec)
			}
			live = keep
			if next < 4000 {
				eng.At(now+Time(10+r.Intn(40)), tick)
			}
		}
		eng.At(1, tick)
		if windowed {
			// Epoch-style driving: many short bounded windows, exactly how
			// the pdes runner advances a shard.
			for w := Time(0); eng.Pending() > 0; w += 37 {
				eng.RunUntil(w)
			}
		} else {
			eng.Run()
		}
		return log
	}

	base := storm(false)
	if len(base) == 0 {
		t.Fatal("storm produced no events")
	}
	for _, line := range base {
		if len(line) >= 6 && line[:6] == "ZOMBIE" {
			t.Fatalf("cancelled event fired: %q", line)
		}
	}
	windowed := storm(true)
	if len(windowed) != len(base) {
		t.Fatalf("windowed run logged %d lines, unwindowed %d", len(windowed), len(base))
	}
	for i := range base {
		if windowed[i] != base[i] {
			t.Fatalf("line %d: windowed %q != unwindowed %q", i, windowed[i], base[i])
		}
	}
}

// TestCancelStormBoundaries repeats the windowed-vs-unwindowed storm with
// delays aimed at the timer wheel's hazardous edges: level-rollover
// boundaries (where a pop cascades a whole slot down a level) and the 2³⁶
// horizon (where far-future events wait at level 6 and above until the wheel
// turns into their segment and cascades them down five levels). Timers
// cancelled exactly on those edges are unlinked from lists a cascade is
// about to re-place; runs under -race via `make race`/CI.
func TestCancelStormBoundaries(t *testing.T) {
	// One delay generator per hazard zone; each is stormed separately so a
	// failure names the boundary it broke on.
	zones := []struct {
		name  string
		delay func(r *Rand) Time
	}{
		{"rollover-l0l1", func(r *Rand) Time {
			return Time(wheelSlots - 4 + r.Intn(8)) // straddle the 64 ns slot edge
		}},
		{"rollover-high", func(r *Rand) Time {
			edge := Time(1) << (2 * wheelBits) // level-2 boundary
			return edge - 4 + Time(r.Intn(8))
		}},
		{"overflow-promotion", func(r *Rand) Time {
			// Half land just below 2³⁶ at level 5, half just beyond it at
			// level 6; the cascade interleaves them back.
			return wheelSpan - 50 + Time(r.Intn(100))
		}},
		{"deep-overflow", func(r *Rand) Time {
			return wheelSpan * Time(1+r.Intn(3)) // several level-6 slots out
		}},
	}
	for _, zone := range zones {
		zone := zone
		t.Run(zone.name, func(t *testing.T) {
			type record struct {
				id    int
				ev    Event
				dead  bool
				fired bool
			}
			storm := func(windowed bool) []string {
				eng := NewEngine()
				r := NewRand(7)
				var log []string
				live := make([]*record, 0, 256)
				next := 0
				var tick func()
				tick = func() {
					now := eng.Now()
					for k := 0; k < 6; k++ {
						rec := &record{id: next}
						next++
						rec.ev = eng.At(now+zone.delay(r), func() {
							if rec.dead {
								log = append(log, fmt.Sprintf("ZOMBIE %d", rec.id))
								return
							}
							rec.fired = true
							log = append(log, fmt.Sprintf("t=%d fire %d", eng.Now(), rec.id))
						})
						live = append(live, rec)
					}
					keep := live[:0]
					for _, rec := range live {
						if rec.fired {
							continue
						}
						if r.Intn(3) == 0 {
							rec.dead = true
							rec.ev.Cancel()
							log = append(log, fmt.Sprintf("t=%d cancel %d", now, rec.id))
							continue
						}
						keep = append(keep, rec)
					}
					live = keep
					if next < 600 {
						// Re-arm from inside the hazard zone so successive
						// bursts cross the boundary from both sides.
						eng.At(now+1+Time(r.Intn(20)), tick)
					}
				}
				eng.At(1, tick)
				if windowed {
					// Drive deadlines that bracket each upcoming event:
					// one window ending just before it (forcing a peek and a
					// partial cascade toward it) and one just past it. This
					// lands RunUntil boundaries on cascade/promotion points
					// without striding the whole 2³⁶ horizon.
					for {
						nt, ok := eng.NextTime()
						if !ok {
							break
						}
						if nt > eng.Now()+1 {
							eng.RunUntil(nt - 1)
						}
						eng.RunUntil(nt + Time(wheelSlots-1))
					}
				} else {
					eng.Run()
				}
				return log
			}
			base := storm(false)
			if len(base) == 0 {
				t.Fatal("storm produced no events")
			}
			for _, line := range base {
				if len(line) >= 6 && line[:6] == "ZOMBIE" {
					t.Fatalf("cancelled event fired: %q", line)
				}
			}
			windowed := storm(true)
			if len(windowed) != len(base) {
				t.Fatalf("windowed run logged %d lines, unwindowed %d", len(windowed), len(base))
			}
			for i := range base {
				if windowed[i] != base[i] {
					t.Fatalf("line %d: windowed %q != unwindowed %q", i, windowed[i], base[i])
				}
			}
		})
	}
}

// TestCancelStormAllocs pins the storm's steady state: schedule + cancel +
// recycle through the generation-tagged pool stays allocation-free once the
// pool is warm (the sharded runner multiplies this pattern by the shard
// count, so a per-cancel allocation would scale with the fleet).
func TestCancelStormAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	eng := NewEngine()
	var sink int
	fn := func() { sink++ }
	round := func() {
		now := eng.Now()
		evs := [16]Event{}
		for k := range evs {
			evs[k] = eng.At(now+Time(5+k), fn)
		}
		for k := 0; k < len(evs); k += 2 {
			evs[k].Cancel()
		}
		eng.RunUntil(now + 40)
	}
	for i := 0; i < 10; i++ {
		round() // warm the node pool past the high-water mark
	}
	if got := testing.AllocsPerRun(200, round); got != 0 {
		t.Errorf("cancel storm allocated %.1f objects per round, want 0", got)
	}
}

// TestCancelLeavesNoZombie: over a standing population of long timers (the
// device's EntryTTL timers at saturation), a stream of schedule-then-cancel
// pairs (client retransmission timers) reuses one pooled node: a cancelled
// node is back in the pool before Cancel returns, never parked in the wheel.
func TestCancelLeavesNoZombie(t *testing.T) {
	eng := NewEngine()
	nop := func() {}
	const standing = 1000
	for i := 0; i < standing; i++ {
		eng.After(Time(5_000_000+i), nop)
	}
	for i := 0; i < 20*standing; i++ {
		eng.After(1_000_000, nop).Cancel()
		if len(eng.free) != 1 {
			t.Fatalf("cancel %d: %d nodes in the pool, want the one just cancelled", i, len(eng.free))
		}
		if eng.Pending() != standing {
			t.Fatalf("cancel %d: Pending() = %d, want the %d standing timers", i, eng.Pending(), standing)
		}
	}
	if err := checkWheel(eng, standing+1); err != nil {
		t.Fatal(err)
	}
}
