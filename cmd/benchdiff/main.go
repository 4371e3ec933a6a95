// Command benchdiff holds the two benchmark gates that need more than one
// process to answer.
//
//	benchdiff -out BENCH_LADDER_2026-09-29.json     # run the scale ladder, record
//	benchdiff -check -baseline A.json -out /tmp/b.json  # run, then diff vs A
//	benchdiff -compare -baseline A.json -new B.json # diff two ladder records
//	benchdiff -pair ../parent-tree                  # bench/ on parent and change
//
// The scale ladder (the 1x/10x/100x dumbbells and both 10k-flow incast
// storms, single-loop and sharded: the `BenchmarkLadder*`/`BenchmarkStorm*`
// functions of the root package) is the one thing `bench/` does not cover.
// Its record is gated only on columns that repeat. Every custom metric a
// rung reports (flows-done, fct-ms, events) is a pure function of the model
// and must equal the record exactly; gc-cpu-fraction is the exception, a
// measurement, recorded but not compared. allocs/op may grow by allocsGrowth
// and B/op by bytesGrowth (beyond bytesSlack): pool refills under GC move
// both a little with the rungs' live flow sets, a real per-packet or
// per-flow allocation moves them by orders of magnitude more. ns/op is
// recorded and printed, with the events/s it implies, and never fails a
// check: on a shared host it wanders by a third.
//
// Time and memory are judged by `bench/` (see pair.go): -pair builds
// ./bench in both trees and compares interleaved runs at the bounds
// BENCHMARK.json declares.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Result is the aggregate of -count runs of one benchmark.
type Result struct {
	Runs     int                `json:"runs"`
	NsPerOp  float64            `json:"ns_per_op"`         // mean
	MinNsOp  float64            `json:"min_ns_op"`         // fastest run
	BytesOp  float64            `json:"bytes_op"`          // mean B/op
	AllocsOp int64              `json:"allocs_op"`         // max allocs/op across runs
	Metrics  map[string]float64 `json:"metrics,omitempty"` // custom ReportMetric units, median
}

// Record is one ladder session, the unit committed as
// BENCH_LADDER_<date>.json.
type Record struct {
	Date       string            `json:"date"`
	GoVersion  string            `json:"go"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	NumCPU     int               `json:"num_cpu"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Count      int               `json:"count"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

const (
	// ladderBench selects the rungs; they live in the root package and
	// each iteration is one whole run, so every count is one iteration.
	ladderBench = "BenchmarkLadder|BenchmarkStorm"

	allocsGrowth = 0.01 // allowed fractional allocs/op growth
	bytesGrowth  = 0.10 // allowed fractional B/op growth
	// bytesSlack is the B/op growth diff ignores whatever the fraction:
	// less than the smallest real allocation, so it can only be amortised
	// warm-up.
	bytesSlack = 16

	// eventsMetric is the rung's event count; with ns/op it gives the
	// events/s the table prints.
	eventsMetric = "events"
	// gcMetric is the one custom metric that measures the host and not the
	// model: recorded, never compared.
	gcMetric = "gc-cpu-fraction"
)

func main() {
	var (
		out      = flag.String("out", "", "write the ladder record to this JSON file (default BENCH_LADDER_<date>.json; none with -check)")
		count    = flag.Int("count", 1, "go test -count for the ladder")
		compare  = flag.Bool("compare", false, "compare -baseline against -new instead of running")
		check    = flag.Bool("check", false, "run the ladder, then compare against -baseline")
		baseline = flag.String("baseline", "", "baseline ladder record for -compare / -check")
		newFile  = flag.String("new", "", "candidate ladder record for -compare")
		pair     = flag.String("pair", "", "parent source tree: build ./bench there and here, run every BENCHMARK.json workload on both in interleaved pairs and judge the change at the declared bounds")
	)
	flag.Parse()

	if *pair != "" {
		code, err := runPair(*pair, ".", os.Stdout)
		if err != nil {
			fatal(err)
		}
		os.Exit(code)
	}
	if *compare {
		os.Exit(exitCode(diff(os.Stdout, load(*baseline), load(*newFile))))
	}

	rec := run(*count)
	path := *out
	if path == "" && !*check {
		// A check never overwrites the committed record of the same day.
		path = "BENCH_LADDER_" + rec.Date + ".json"
	}
	if path != "" {
		save(path, rec)
		fmt.Printf("recorded %d benchmarks -> %s\n", len(rec.Benchmarks), path)
	}
	if *check {
		os.Exit(exitCode(diff(os.Stdout, load(*baseline), rec)))
	}
}

func exitCode(failures int) int {
	if failures > 0 {
		return 1
	}
	return 0
}

// agg collects one benchmark's per-run samples.
type agg struct {
	ns, bytes []float64
	allocs    []int64
	metrics   map[string][]float64
}

// run executes the ladder through `go test -bench`, echoing its output, and
// folds every benchmark line into a Record.
func run(count int) Record {
	args := []string{"test", "-run", "^$", "-bench", ladderBench, "-benchmem",
		"-benchtime", "1x", "-count", strconv.Itoa(count), "-timeout", "60m", "."}
	fmt.Fprintf(os.Stderr, "benchdiff: go %s\n", strings.Join(args, " "))
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		fatal(err)
	}
	if err := cmd.Start(); err != nil {
		fatal(err)
	}

	aggs := map[string]*agg{}
	pkg := ""
	sc := bufio.NewScanner(outPipe)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		if strings.HasPrefix(line, "pkg: ") {
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg: "))
			continue
		}
		name, vals, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		key := pkg + "." + name
		a := aggs[key]
		if a == nil {
			a = &agg{metrics: map[string][]float64{}}
			aggs[key] = a
		}
		for unit, v := range vals {
			switch unit {
			case "ns/op":
				a.ns = append(a.ns, v)
			case "B/op":
				a.bytes = append(a.bytes, v)
			case "allocs/op":
				a.allocs = append(a.allocs, int64(v))
			default:
				a.metrics[unit] = append(a.metrics[unit], v)
			}
		}
	}
	if err := cmd.Wait(); err != nil {
		fatal(fmt.Errorf("go test -bench failed: %w", err))
	}

	rec := Record{
		Date: time.Now().Format("2006-01-02"), GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Count: count, Benchmarks: map[string]Result{},
	}
	for key, a := range aggs {
		r := Result{Runs: len(a.ns), NsPerOp: mean(a.ns), MinNsOp: min64(a.ns), BytesOp: mean(a.bytes)}
		for _, n := range a.allocs {
			r.AllocsOp = max(r.AllocsOp, n)
		}
		if len(a.metrics) > 0 {
			r.Metrics = map[string]float64{}
			for unit, vs := range a.metrics {
				// The median of equal readings is that reading, exactly.
				r.Metrics[unit] = median(vs)
			}
		}
		rec.Benchmarks[key] = r
	}
	return rec
}

// parseBenchLine handles "BenchmarkName-8  3  123 ns/op  4 B/op  5 allocs/op
// 6.7 custom-unit" lines.
func parseBenchLine(line string) (string, map[string]float64, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return "", nil, false
	}
	name := f[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i] // strip -GOMAXPROCS
		}
	}
	if _, err := strconv.ParseInt(f[1], 10, 64); err != nil {
		return "", nil, false // iteration count expected
	}
	vals := map[string]float64{}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return "", nil, false
		}
		vals[f[i+1]] = v
	}
	return name, vals, len(vals) > 0
}

// diff prints cur against old, one row per rung of old, and returns how
// many rungs fail: missing from cur, a model metric that differs from the
// record, or B/op or allocs/op grown past their allowance. Each failing row
// names its columns.
func diff(w io.Writer, old, cur Record) int {
	keys := make([]string, 0, len(old.Benchmarks))
	for k := range old.Benchmarks {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	failed := 0
	fmt.Fprintf(w, "%-40s %14s %10s %22s %16s  %s\n", "rung (vs "+old.Date+")",
		"ns/op", "events/s", "B/op", "allocs/op", "verdict")
	for _, k := range keys {
		name := strings.TrimPrefix(k, "hwatch.")
		o := old.Benchmarks[k]
		c, ok := cur.Benchmarks[k]
		if !ok {
			fmt.Fprintf(w, "%-40s FAIL: missing from the new run\n", name)
			failed++
			continue
		}
		var why []string
		for _, unit := range modelMetrics(o, c) {
			ov, oOK := o.Metrics[unit]
			cv, cOK := c.Metrics[unit]
			switch {
			case !oOK:
				why = append(why, fmt.Sprintf("%s %s not in the record", unit, num(cv)))
			case !cOK:
				why = append(why, fmt.Sprintf("%s missing (record %s)", unit, num(ov)))
			case ov != cv:
				why = append(why, fmt.Sprintf("%s %s != %s", unit, num(cv), num(ov)))
			}
		}
		if c.BytesOp > o.BytesOp*(1+bytesGrowth) && c.BytesOp-o.BytesOp >= bytesSlack {
			why = append(why, fmt.Sprintf("B/op %.0f -> %.0f", o.BytesOp, c.BytesOp))
		}
		if float64(c.AllocsOp) > float64(o.AllocsOp)*(1+allocsGrowth) {
			why = append(why, fmt.Sprintf("allocs/op %d -> %d", o.AllocsOp, c.AllocsOp))
		}
		verdict := "ok"
		if len(why) > 0 {
			verdict = "FAIL: " + strings.Join(why, "; ")
			failed++
		}
		perSec := 0.0
		if c.MinNsOp > 0 {
			perSec = c.Metrics[eventsMetric] / (c.MinNsOp / 1e9)
		}
		fmt.Fprintf(w, "%-40s %14.0f %10.3g %13.0f%-9s %9d->%-5d  %s\n", name, c.MinNsOp, perSec, c.BytesOp, pct(o.BytesOp, c.BytesOp), o.AllocsOp, c.AllocsOp, verdict)
	}
	for k := range cur.Benchmarks {
		if _, ok := old.Benchmarks[k]; !ok {
			fmt.Fprintf(w, "%-40s new (no baseline)\n", strings.TrimPrefix(k, "hwatch."))
		}
	}
	if failed > 0 {
		fmt.Fprintf(w, "benchdiff: %d rung(s) fail vs %s\n", failed, old.Date)
	} else {
		fmt.Fprintln(w, "benchdiff: no regressions")
	}
	return failed
}

// modelMetrics lists, sorted, every custom metric either result carries
// that is a function of the model.
func modelMetrics(a, b Result) []string {
	seen := map[string]bool{gcMetric: true}
	var units []string
	for _, metrics := range []map[string]float64{a.Metrics, b.Metrics} {
		for unit := range metrics {
			if !seen[unit] {
				seen[unit] = true
				units = append(units, unit)
			}
		}
	}
	sort.Strings(units)
	return units
}

// num prints a metric in full: an event count off by one must show.
func num(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

func pct(old, cur float64) string {
	if old == cur {
		return " (+0.0%)" // also where old is 0
	}
	if old <= 0 {
		return " (new)"
	}
	return fmt.Sprintf(" (%+.1f%%)", 100*(cur-old)/old)
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

func min64(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	m := vs[0]
	for _, v := range vs[1:] {
		m = min(m, v)
	}
	return m
}

func load(path string) Record {
	if path == "" {
		fatal(fmt.Errorf("missing -baseline/-new file"))
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var r Record
	if err := json.Unmarshal(raw, &r); err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	return r
}

func save(path string, r Record) {
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
