package harness

// The "speedup" experiment: ONE scenario executed at -shards 1, 2, 4,
// tracking the parallel runner's wall-clock curve while proving, row by row,
// that the results do not move. Each cell is Custom (not Cfg), so the batch
// -shards override never rewrites it: the shard count under test is baked in
// at enumeration time. The rendered table shows only deterministic values —
// events, epochs, events per epoch — which are identical on every row by the
// PDES determinism contract (TestSpeedupRowsAgree fails on a row that is
// not); the wall-clock curve lives in the per-cell wall_ms of the BENCH JSON
// (with Events populated through the CellEvents hook), where cmd/benchdiff
// reads it as an ns/event trajectory — reported, not gated. On a single-CPU
// runner the curve degenerates to ≈1.00× — the worker budget collapses every
// cell to one worker — but the artifact still records the machine's cpu count
// so a flat curve is readable as "no cores", not "no speedup".

import (
	"fmt"

	"pmnet"
	"pmnet/internal/sim"
	"pmnet/internal/stats"
)

var speedupShards = []int{1, 2, 4}

// speedupCell is the Custom-cell payload: the deterministic outcome of one
// sharded run.
type speedupCell struct {
	Shards int
	Events uint64
	Epochs uint64
}

// CellEvents feeds the deterministic event count into CellResult.Events (and
// so into the BENCH JSON, where wall_ms/events is the ns/event rate).
func (v speedupCell) CellEvents() uint64 { return v.Events }

// speedupConfig is the measured scenario: the Fig16 saturation shape, big
// enough that epoch machinery dominates setup but small enough for a test.
func speedupConfig(seed uint64, shards int) RunConfig {
	return RunConfig{
		Design: pmnet.PMNetSwitch, Workload: WLIdeal, Clients: 32,
		Requests: 150, Warmup: 10, ValueSize: 1000, UpdateRatio: 1,
		Seed: seed, Shards: shards,
	}
}

func speedupCells(seed uint64) []Cell {
	var cells []Cell
	for _, sh := range speedupShards {
		sh := sh
		cells = append(cells, Cell{
			Key: fmt.Sprintf("shards=%d", sh),
			Custom: func() (any, sim.Time) {
				res, err := Run(speedupConfig(seed, sh))
				if err != nil {
					panic(fmt.Sprintf("speedup shards=%d: %v", sh, err))
				}
				defer res.Release()
				return speedupCell{
					Shards: sh,
					Events: res.Bed.EventsRun(),
					Epochs: res.Bed.RunnerPerf().Epochs,
				}, res.Bed.Now()
			},
		})
	}
	return cells
}

func speedupRender(seed uint64, cells []CellResult) Result {
	t := stats.Table{
		Title:   "Speedup: one scenario at -shards 1/2/4 (results identical by construction)",
		Columns: []string{"shards", "events", "epochs", "events/epoch"},
	}
	metrics := map[string]float64{}
	base := cells[0].V.(speedupCell)
	for i, sh := range speedupShards {
		v := cells[i].V.(speedupCell)
		if v.Events != base.Events || v.Epochs != base.Epochs {
			// A divergent row means the determinism contract broke; render it
			// loudly rather than hiding it in a wall-clock artifact.
			t.AddRow(fmt.Sprintf("%d", sh), fmt.Sprintf("%d MISMATCH", v.Events),
				fmt.Sprintf("%d MISMATCH", v.Epochs), "-")
			continue
		}
		perEpoch := uint64(0)
		if v.Epochs > 0 {
			perEpoch = v.Events / v.Epochs
		}
		t.AddRow(fmt.Sprintf("%d", sh), fmt.Sprintf("%d", v.Events),
			fmt.Sprintf("%d", v.Epochs), fmt.Sprintf("%d", perEpoch))
		metrics[fmt.Sprintf("events_%d", sh)] = float64(v.Events)
		metrics[fmt.Sprintf("epochs_%d", sh)] = float64(v.Epochs)
	}
	return Result{
		ID:    "speedup",
		Table: t,
		Notes: []string{
			"Every row is the same simulation: events and epochs must match",
			"exactly (PDES byte-identity). The wall-clock curve is in the BENCH",
			"JSON cells (wall_ms per shards=N); compare artifacts with",
			"cmd/benchdiff. The doc's cpus field says whether the machine could",
			"parallelize at all — on 1 CPU the curve is ≈1.00x by design.",
		},
		Metrics: metrics,
	}
}
