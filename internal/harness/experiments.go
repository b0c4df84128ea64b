package harness

import (
	"fmt"
	"strings"

	"pmnet/internal/sim"
	"pmnet/internal/stats"
)

// Result is one regenerated figure/table.
type Result struct {
	ID    string // "fig2", "fig15", ...
	Table stats.Table
	Notes []string
	// Metrics exposes headline numbers for tests and EXPERIMENTS.md
	// (e.g. "speedup_100pct": 4.31).
	Metrics map[string]float64
}

// Text renders the result exactly as `pmnetbench` prints it in table mode:
// the formatted table followed by the notes. The golden parallel test
// compares this rendering byte-for-byte across pool sizes.
func (r Result) Text() string {
	var b strings.Builder
	b.WriteString(r.Table.Format())
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// Specs maps experiment IDs to their cell-enumeration + rendering split
// (cheap defaults; the benchmarks run scaled-down instances separately).
var Specs = map[string]*Spec{
	"fig2":        {ID: "fig2", Enumerate: fig2Cells, Render: fig2Render},
	"fig15":       {ID: "fig15", Enumerate: fig15Cells, Render: fig15Render},
	"fig16":       {ID: "fig16", Enumerate: fig16Cells, Render: fig16Render},
	"fig18":       {ID: "fig18", Enumerate: fig18Cells, Render: fig18Render},
	"fig19":       fig19Spec(16, 150),
	"fig20":       {ID: "fig20", Enumerate: fig20Cells, Render: fig20Render},
	"fig20cdf":    {ID: "fig20cdf", Enumerate: fig20cdfCells, Render: fig20cdfRender},
	"fig21":       {ID: "fig21", Enumerate: fig21Cells, Render: fig21Render},
	"fig22":       {ID: "fig22", Enumerate: fig22Cells, Render: fig22Render},
	"recovery":    {ID: "recovery", Enumerate: recoveryCells, Render: recoveryRender},
	"tpcclock":    {ID: "tpcclock", Enumerate: tpcclockCells, Render: tpcclockRender},
	"tail":        {ID: "tail", Enumerate: tailCells, Render: tailRender},
	"scale":       {ID: "scale", Enumerate: scaleCells, Render: scaleRender},
	"openloop":    openloopSpec(1000000, 30*sim.Millisecond),
	"speedup":     {ID: "speedup", Enumerate: speedupCells, Render: speedupRender},
	"impairments": impairmentsSpec(8, 120),
}

// fig19Spec parameterizes the Figure 19 sweep; the registered experiment
// runs the full-size instance, tests run smaller ones.
func fig19Spec(clients, requests int) *Spec {
	return &Spec{
		ID: "fig19",
		Enumerate: func(seed uint64) []Cell {
			return fig19Cells(seed, clients, requests)
		},
		Render: fig19Render,
	}
}

// ExperimentOrder lists experiments in the paper's presentation order.
var ExperimentOrder = []string{
	"fig2", "fig15", "fig16", "fig18", "fig19", "fig20", "fig20cdf", "fig21",
	"fig22", "recovery", "tpcclock", "tail", "scale", "openloop", "speedup",
	"impairments",
}
