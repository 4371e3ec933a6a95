// Command bench is the repository's benchmark: one invocation runs one
// named workload in one process and prints every metric by name, with its
// unit, as one JSON object on the last line of standard output.
//
//	go run ./bench -workload fig8_compare -seed 1 -seconds 12 -trace 0
//
// With -trace 0 it reports the end-to-end metrics of BENCHMARK.json (the
// three times scaled by the run's host speed, see calib.go), with
// -trace 1 the per-layer metrics (CPU-profile fold, spans and counts at
// the calls the harness makes, and the layer drivers) and writes
// bench/out/<workload>.trace.json. It exits non-zero when any output is
// wrong: a golden-scale twin that misses the committed digests, or a timed
// pass whose digests or event counts differ from the warm-up pass's.
//
// `go run ./bench -agree -runs 5` measures every workload in two
// interleaved sets and reports whether their medians agree within each
// metric's bound. README.md in this directory documents every metric and
// workload.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// maxProcs pins the process: the reference machine has two cores, and no
// workload uses more client connections, pool workers or shards than that.
const maxProcs = 2

// metricDef is one metric declared in BENCHMARK.json. The file is the
// single list of names and units; the code supplies a value for each.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// findRoot walks up from the working directory to the module root, where
// BENCHMARK.json and the committed golden digests live.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line: the benchmark contract's four keys.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// options selects one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// passes, when positive, fixes the number of timed passes instead of
	// filling seconds; tiny shrinks every workload to a smoke-test size.
	// bench_test.go sets them; no flag does, so that every run from the
	// command line is comparable with the recorded numbers.
	passes int
	tiny   bool
	// root is the module root: BENCHMARK.json, the golden files and
	// bench/out are resolved against it.
	root string
}

func main() {
	var o options
	var trace, runs int
	var agree bool
	flag.StringVar(&o.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	flag.Int64Var(&o.seed, "seed", 0, "workload seed; 0 keeps the repo's committed seeds")
	flag.Float64Var(&o.seconds, "seconds", 12, "seconds of timed passes (at least minPasses passes run)")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics and bench/out/<workload>.trace.json")
	flag.BoolVar(&agree, "agree", false, "run two interleaved sets of every workload and compare their medians")
	flag.IntVar(&runs, "runs", 5, "with -agree: runs per set and workload")
	flag.Parse()
	o.trace = trace != 0

	runtime.GOMAXPROCS(maxProcs)
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	o.root = root

	if agree {
		os.Exit(runAgree(root, runs))
	}
	rep, err := run(context.Background(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// run executes one workload and assembles its report. Every metric
// BENCHMARK.json declares for the mode must have been measured, and
// nothing undeclared may have been: a mismatch is an error, not a
// silently shorter report.
func run(ctx context.Context, o options) (*report, error) {
	bf, err := loadBenchmarkFile(o.root)
	if err != nil {
		return nil, err
	}
	build, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q: BENCHMARK.json names %v", o.workload, bf.Workloads)
	}
	out, err := measure(ctx, build, o)
	if err != nil {
		return nil, err
	}
	defs := bf.EndToEnd
	if o.trace {
		defs = bf.PerLayer
	}
	rep := &report{
		Correct:   out.failed == 0 && out.goldenOK,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := out.values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %q is declared in BENCHMARK.json but was not measured", d.Name)
		}
		rep.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range out.values {
		if _, ok := rep.Metrics[name]; !ok {
			return nil, fmt.Errorf("metric %q was measured but is not declared in BENCHMARK.json", name)
		}
	}
	return rep, nil
}
