package harness

import (
	"fmt"
	"testing"
	"time"

	"pmnet"
)

// TestFig19AllCellsTerminate is the regression guard for the TPCC
// stranded-lock livelock: every (workload, ratio, design) cell of the
// full-size Figure 19 sweep must terminate.
func TestFig19AllCellsTerminate(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	for _, wl := range AllWorkloads {
		for _, ratio := range []float64{1.0, 0.75, 0.5, 0.25} {
			for _, d := range []pmnet.Design{pmnet.ClientServer, pmnet.PMNetSwitch} {
				wl, ratio, d := wl, ratio, d
				done := make(chan struct{})
				start := time.Now()
				go func() {
					defer close(done)
					mustRun(RunConfig{Design: d, Workload: wl, Clients: 16,
						Requests: 150, Warmup: 20, UpdateRatio: ratio, Seed: 1}).Release()
				}()
				select {
				case <-done:
					if el := time.Since(start); el > 2*time.Second {
						fmt.Printf("SLOW %s %v %.2f: %v\n", wl, d, ratio, el)
					}
				case <-time.After(15 * time.Second):
					t.Fatalf("HANG: %s %v ratio %.2f", wl, d, ratio)
				}
			}
		}
	}
}
