package sim

// What Cancel promises now that it unlinks: the node leaves its slot list and
// reaches the pool before Cancel returns, from any position in the list and at
// any depth of the wheel, and the list it leaves is one a later pop, cascade
// or schedule can walk.

import (
	"fmt"
	"sort"
	"testing"
)

// TestCancelByPosition cancels the only node, the head, a middle node and the
// tail of a slot list at level 0 (equal times), at level 1 and at level 6 (a
// time past 2³⁶), then runs: the survivors fire in (at, seq) order and the
// cascades on the way down never meet the cancelled node.
func TestCancelByPosition(t *testing.T) {
	levels := []struct {
		lvl   uint8
		times []Time // one slot's worth, in scheduling order
	}{
		{0, []Time{5, 5, 5}},
		{1, []Time{100, 70, 90}},
		{6, []Time{wheelSpan + 300, wheelSpan + 5, wheelSpan + 40}},
	}
	positions := []struct {
		name   string
		nodes  int
		victim int
	}{
		{"only", 1, 0}, {"head", 3, 0}, {"middle", 3, 1}, {"tail", 3, 2},
	}
	for _, lv := range levels {
		for _, pos := range positions {
			t.Run(fmt.Sprintf("level%d/%s", lv.lvl, pos.name), func(t *testing.T) {
				e := NewEngine()
				var got, want []int
				evs := make([]Event, pos.nodes)
				for i := range evs {
					i := i
					evs[i] = e.At(lv.times[i], func() { got = append(got, i) })
					if i != pos.victim {
						want = append(want, i)
					}
				}
				sort.SliceStable(want, func(a, b int) bool { return lv.times[want[a]] < lv.times[want[b]] })
				victim := evs[pos.victim]
				if victim.n.lvl != lv.lvl || victim.n.slot != evs[0].n.slot {
					t.Fatalf("victim sits in level %d slot %d, the test means level %d slot %d",
						victim.n.lvl, victim.n.slot, lv.lvl, evs[0].n.slot)
				}

				victim.Cancel()
				if got := e.Pending(); got != pos.nodes-1 {
					t.Fatalf("Pending() = %d right after Cancel, want %d", got, pos.nodes-1)
				}
				if len(e.free) != 1 || e.free[0] != victim.n {
					t.Fatalf("the cancelled node is not in the pool: free = %v", e.free)
				}
				if pos.nodes == 1 && e.occ[lv.lvl] != 0 {
					t.Fatalf("cancelling the slot's last node left occupancy %b", e.occ[lv.lvl])
				}
				if err := checkWheel(e, pos.nodes); err != nil {
					t.Fatal(err)
				}
				victim.Cancel() // spent: must not unlink a second time
				e.Run()
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("fired %v, want %v", got, want)
				}
				if err := checkWheel(e, pos.nodes); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestCancelFromCallback cancels, from inside a firing callback, each sibling
// still waiting in the same level-0 slot in turn — the first of them is the
// slot's new head — and the event that is firing, whose handle is inert: its
// node was recycled before the callback ran and may already carry the event
// the callback just scheduled.
func TestCancelFromCallback(t *testing.T) {
	for victim := 1; victim <= 3; victim++ {
		t.Run(fmt.Sprintf("sibling%d", victim), func(t *testing.T) {
			e := NewEngine()
			var got []int
			evs := make([]Event, 4)
			evs[0] = e.At(5, func() {
				got = append(got, 0)
				reuse := e.At(5, func() { got = append(got, 4) })
				if reuse.n != evs[0].n {
					t.Fatal("the firing event's node was not the one recycled")
				}
				evs[0].Cancel()
				if e.Pending() != 4 {
					t.Fatalf("cancelling the firing event changed Pending() to %d, want 4", e.Pending())
				}
				evs[victim].Cancel()
				if e.Pending() != 3 {
					t.Fatalf("Pending() = %d after cancelling a sibling, want 3", e.Pending())
				}
				if err := checkWheel(e, 4); err != nil {
					t.Fatal(err)
				}
			})
			for i := 1; i < 4; i++ {
				i := i
				evs[i] = e.At(5, func() { got = append(got, i) })
			}
			e.Run()
			want := []int{0, 1, 2, 3, 4}
			want = append(want[:victim], want[victim+1:]...)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("fired %v, want %v", got, want)
			}
			if err := checkWheel(e, 4); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCancelNewHeadAfterPop: a pop hands the slot to the popped node's
// successor, whose prev must not go on pointing at a recycled node. Cancel
// that new head — when it has a successor of its own, and when it is the last
// node, where a stale prev would be written to tail and the next schedule
// into the slot would hang its node off it, leaving an occupied slot with no
// head — then schedule into the slot and run.
func TestCancelNewHeadAfterPop(t *testing.T) {
	for _, behind := range []int{0, 1} {
		t.Run(fmt.Sprintf("behind=%d", behind), func(t *testing.T) {
			e := NewEngine()
			var got []string
			e.At(5, func() { got = append(got, "popped") })
			newHead := e.At(5, func() { t.Fatal("cancelled event fired") })
			for i := 0; i < behind; i++ {
				e.At(5, func() { got = append(got, "behind") })
			}
			e.Step()
			newHead.Cancel()
			if err := checkWheel(e, 2+behind); err != nil {
				t.Fatal(err)
			}
			e.At(5, func() { got = append(got, "late") })
			if err := checkWheel(e, 2+behind); err != nil {
				t.Fatal(err)
			}
			e.Run()
			want := []string{"popped", "behind", "late"}
			if behind == 0 {
				want = []string{"popped", "late"}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("fired %v, want %v", got, want)
			}
		})
	}
}
