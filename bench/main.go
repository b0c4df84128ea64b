// Command bench is the repo's benchmark (see BENCHMARK.json and README.md in
// this directory).
//
//	go run ./bench -seed 1           every workload, end to end and per layer
//	go run ./bench -agree            two end-to-end sets, compared against the bounds
//	go run ./bench -workload W -seed N -seconds S -trace 0|1
//	                                 one run, its result as one JSON line (the driver's form)
//
// With no -workload, each run is a child process of its own, started with
// the third form.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

// metric is one reading, as the driver wants it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted uint64  `json:"attempted"`
	Failed    uint64  `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// manifest goes on every output file.
type manifest struct {
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Scale      float64 `json:"scale"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
}

func newManifest(seed uint64, scale float64) manifest {
	return manifest{Commit: commit(), Seed: seed, Scale: scale, NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
}

// commit is the revision the go tool stamped into the binary; go run and go
// test stamp none, so git is asked next, about the working directory only: a
// checkout that is not a repository (the driver's) has no commit, whatever
// repository it may sit inside.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if wd, err := os.Getwd(); err == nil {
		cmd := exec.Command("git", "rev-parse", "HEAD")
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		if out, err := cmd.Output(); err == nil {
			return string(bytes.TrimSpace(out))
		}
	}
	return "unknown"
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	scale    float64 // defaultScale; only the smoke test runs at another
	agree    bool
	outDir   string
}

func main() {
	o := options{scale: defaultScale}
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print its result as one JSON line")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 12, "how long one run measures")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, with the traced run")
	flag.BoolVar(&o.agree, "agree", false, "run two end-to-end sets and compare them against the bounds in BENCHMARK.json")
	flag.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for trace and result files")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	var err error
	switch {
	case o.workload != "":
		err = runOne(o)
	case o.agree:
		err = runAgree(o)
	default:
		err = runSuite(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect marks a run whose result was printed but failed a check.
var errIncorrect = errors.New("a correctness or determinism check failed")

// runOne measures one workload in this process and prints the result line.
func runOne(o options) error {
	w, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	res, notes, err := measure(w, o, 3)
	if err != nil {
		return err
	}
	for _, n := range notes {
		fmt.Println("#", n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// measure is one run: end to end and untraced (at least minReps repetitions),
// or per layer with the traced run, by o.trace.
func measure(w spec, o options, minReps int) (result, []string, error) {
	cfg := w.config(o.scale, o.seed)
	man := newManifest(o.seed, o.scale)
	notes := []string{fmt.Sprintf("%s [%s] seed %d scale %g on %d of %d CPUs, %s, commit %s",
		w.name, w.loop, o.seed, o.scale, man.GOMAXPROCS, man.NProc, man.GoVersion, man.Commit)}
	var m *measurement
	var err error
	if o.trace == 0 {
		m, err = measureEndToEnd(w, cfg, o.seconds, minReps)
	} else {
		m, err = measurePerLayer(w, cfg, w.config(o.scale*tracedFraction, o.seed), o.seconds, o.outDir, man)
	}
	if err != nil {
		return result{}, nil, err
	}
	notes = append(notes, m.notes...)
	for _, p := range m.problems {
		notes = append(notes, "FAILED CHECK "+p)
	}
	return result{Correct: len(m.problems) == 0, Attempted: m.attempted, Failed: m.failed, Metrics: m.metrics}, notes, nil
}

// child runs one workload in a fresh process and parses its result line;
// the lines before it are passed through.
func child(o options, w spec, trace int) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(trace), "-out", o.outDir)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	for _, l := range lines[:len(lines)-1] {
		fmt.Printf("  %s\n", l)
	}
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		if runErr != nil {
			return result{}, fmt.Errorf("%s: %w", w.name, runErr)
		}
		return result{}, fmt.Errorf("%s: no result line: %w", w.name, err)
	}
	return res, nil // an incorrect run exits 1 after printing; Correct carries that
}

func printMetrics(m metrics) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-32s %16.6g %s\n", name, m[name].Value, m[name].Unit)
	}
}

// runSuite runs every workload twice — untraced for the end-to-end metrics,
// then traced for the per-layer ones — and prints every metric by name.
func runSuite(o options) error {
	type entry struct {
		EndToEnd result `json:"end_to_end"`
		PerLayer result `json:"per_layer"`
	}
	all := map[string]entry{}
	ok := true
	for _, w := range workloads {
		fmt.Printf("== %s: %s\n", w.name, w.why)
		var e entry
		var err error
		if e.EndToEnd, err = child(o, w, 0); err != nil {
			return err
		}
		fmt.Printf("  end to end (untraced): attempted %d, failed %d, failed_ratio %g\n",
			e.EndToEnd.Attempted, e.EndToEnd.Failed, float64(e.EndToEnd.Failed)/float64(e.EndToEnd.Attempted))
		printMetrics(e.EndToEnd.Metrics)
		if e.PerLayer, err = child(o, w, 1); err != nil {
			return err
		}
		fmt.Println("  per layer:")
		printMetrics(e.PerLayer.Metrics)
		ok = ok && e.EndToEnd.Correct && e.PerLayer.Correct
		all[w.name] = e
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("results-seed%d.json", o.seed))
	if err := writeJSON(path, struct {
		Manifest  manifest         `json:"manifest"`
		Workloads map[string]entry `json:"workloads"`
	}{newManifest(o.seed, o.scale), all}); err != nil {
		return err
	}
	fmt.Println("results written to", path)
	if !ok {
		return errIncorrect
	}
	fmt.Println("all correctness and determinism checks passed")
	return nil
}

// simulated names the end-to-end metrics read off the virtual clock: for one
// seed they must repeat exactly. (sim_events_per_s is events per host second.)
var simulated = map[string]bool{"sim_mean_us": true, "sim_p50_us": true, "sim_p99_us": true,
	"sim_p999_us": true, "sim_kreq_per_s": true}

// endToEndDef is what -agree needs of a BENCHMARK.json end_to_end entry.
type endToEndDef struct {
	Name  string  `json:"name"`
	Bound float64 `json:"bound"`
}

// agreement compares one metric's readings x and y from two sets of runs of
// the same code. diff is y relative to x, for printing. The readings agree
// when they are apart by no more than the bound's share of the smaller one:
// better or worse, and which set ran first, decide nothing. A simulated
// metric must repeat exactly.
func agreement(def endToEndDef, x, y float64) (diff float64, agree bool) {
	if x == y {
		return 0, true
	}
	return (y - x) / x, !simulated[def.Name] && math.Abs(y-x) <= def.Bound*math.Min(x, y)
}

// runAgree runs two end-to-end sets back to back and fails if any metric
// differs between them by more than its bound, or if a simulated metric or a
// failure count differs at all.
func runAgree(o options) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("-agree reads the bounds from BENCHMARK.json; run from the repo root: %w", err)
	}
	var bf struct {
		EndToEnd []endToEndDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var sets [2]map[string]result
	for i := range sets {
		sets[i] = map[string]result{}
		for _, w := range workloads {
			fmt.Printf("== set %d: %s\n", i+1, w.name)
			if sets[i][w.name], err = child(o, w, 0); err != nil {
				return err
			}
		}
	}
	ok := true
	fmt.Printf("%-20s %-20s %14s %14s %9s %7s\n", "workload", "metric", "set 1", "set 2", "diff", "bound")
	for _, w := range workloads {
		a, b := sets[0][w.name], sets[1][w.name]
		ok = ok && a.Correct && b.Correct && a.Failed == b.Failed
		for _, def := range bf.EndToEnd {
			x, y := a.Metrics[def.Name].Value, b.Metrics[def.Name].Value
			diff, agree := agreement(def, x, y)
			verdict := ""
			if !agree {
				verdict, ok = "  DISAGREE", false
			}
			fmt.Printf("%-20s %-20s %14.6g %14.6g %+8.2f%% %6.1f%%%s\n",
				w.name, def.Name, x, y, 100*diff, 100*def.Bound, verdict)
		}
	}
	man := newManifest(o.seed, o.scale)
	if err := writeJSON(filepath.Join(o.outDir, fmt.Sprintf("agree-seed%d.json", o.seed)), struct {
		Manifest manifest             `json:"manifest"`
		Sets     [2]map[string]result `json:"sets"`
	}{man, sets}); err != nil {
		return err
	}
	if !ok {
		return errors.New("the two sets disagree")
	}
	fmt.Println("the two sets agree within every bound; simulated metrics and failure counts agree exactly")
	return nil
}
