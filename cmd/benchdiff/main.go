// Command benchdiff is the repo's benchmark-regression harness: it runs the
// figure and micro benchmarks, records the results as BENCH_<date>.json, and
// compares runs against a committed baseline with benchstat-style
// thresholds.
//
// Modes (combine freely):
//
//	benchdiff -out BENCH_2026-08-05.json            # run, record
//	benchdiff -suite ladder -out BENCH_LADDER_2026-08-05.json
//	benchdiff -compare -baseline A.json -new B.json # diff two records
//	benchdiff -check -baseline A.json               # run, then diff vs A
//
// Suites: "main" is the figure + micro benchmarks; "ladder" is the scale
// ladder (1x/10x/100x dumbbells and the 10k-flow incast storms), recorded
// as BENCH_LADDER_<date>.json so the two baselines evolve independently.
// A suite is one or more `go test` invocations: whole-figure benchmarks run
// once per count (-benchtime 1x, seconds each), micro-benchmarks run for a
// real benchtime so their numbers are data, not timer noise. Explicit
// -bench / -packages / -benchtime override the presets in every invocation
// of the suite.
//
// Regression policy: allocs/op may not grow beyond -alloc-threshold
// (default 0.1% — sync.Pool refills under GC make figure-scale counts
// jitter by a few allocs, while any real regression is orders of magnitude
// larger; zero-alloc benchmarks stay exact because 0×anything is 0).
// B/op may not grow beyond -bytes-threshold (default 10%): allocation
// counts alone hid a slab that carved 84 bytes per simulated event in a
// handful of large chunks. Growth under bytesSlack is ignored — it is
// amortised warm-up moving with the iteration count, and a new per-op
// allocation trips allocs/op anyway. ns/op is compared on the fastest of
// -count runs (the standard noise-robust statistic) and may regress up to
// -ns-threshold (default 10%), enforced only where the baseline op cost is
// at least -ns-floor (default 1ms): below that, shared CI runners are too
// noisy for a wall-clock gate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Result is the aggregate of -count runs of one benchmark.
type Result struct {
	Runs     int                `json:"runs"`
	NsPerOp  float64            `json:"ns_per_op"`         // mean
	MinNsOp  float64            `json:"min_ns_op"`         // fastest run (noise-robust)
	BytesOp  float64            `json:"bytes_op"`          // mean B/op
	AllocsOp int64              `json:"allocs_op"`         // max allocs/op across runs
	Metrics  map[string]float64 `json:"metrics,omitempty"` // custom ReportMetric units, mean
}

// Record is one benchmark session, the unit committed as BENCH_<date>.json.
type Record struct {
	Date       string            `json:"date"`
	GoVersion  string            `json:"go"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	NumCPU     int               `json:"num_cpu"`
	Bench      string            `json:"bench"`
	Benchtime  string            `json:"benchtime"`
	Count      int               `json:"count"`
	Packages   []string          `json:"packages"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

func main() {
	var (
		out       = flag.String("out", "", "write results to this JSON file (default BENCH_<date>.json when running)")
		suite     = flag.String("suite", "main", "benchmark suite preset: main|ladder")
		benchRe   = flag.String("bench", "", "go test -bench regex (default from -suite)")
		benchtime = flag.String("benchtime", "", "go test -benchtime (default from -suite)")
		count     = flag.Int("count", 5, "go test -count")
		pkgList   = flag.String("packages", "", "space-separated packages to benchmark (default from -suite)")
		compare   = flag.Bool("compare", false, "compare -baseline against -new instead of running")
		check     = flag.Bool("check", false, "run the benchmarks, then compare against -baseline")
		baseline  = flag.String("baseline", "", "baseline JSON for -compare / -check")
		newFile   = flag.String("new", "", "candidate JSON for -compare")
		nsThresh  = flag.Float64("ns-threshold", 0.10, "allowed fractional ns/op regression")
		nsFloor   = flag.Float64("ns-floor", 1e6, "ns/op compared only when baseline >= this (ns)")
		alThresh  = flag.Float64("alloc-threshold", 0.001, "allowed fractional allocs/op growth (absorbs pool/GC jitter)")
		byThresh  = flag.Float64("bytes-threshold", 0.10, "allowed fractional B/op growth")
		subset    = flag.Bool("subset", false, "allow the new run to cover only part of the baseline (partial-suite checks, e.g. the affordable ladder rungs in CI)")
	)
	flag.Parse()

	th := thresholds{ns: *nsThresh, nsFloor: *nsFloor, allocs: *alThresh, bytes: *byThresh}
	if *compare {
		old := load(*baseline)
		cur := load(*newFile)
		os.Exit(diff(old, cur, th, *subset))
	}

	st, ok := suites[*suite]
	if !ok {
		fatal(fmt.Errorf("unknown -suite %q (want main or ladder)", *suite))
	}
	invs := slices.Clone(st.invocations)
	for i := range invs {
		if *benchRe != "" {
			invs[i].bench = *benchRe
		}
		if *pkgList != "" {
			invs[i].pkgs = *pkgList
		}
		if *benchtime != "" {
			invs[i].benchtime = *benchtime
		}
	}

	rec := run(invs, *count)
	path := *out
	if path == "" {
		path = st.prefix + rec.Date + ".json"
	}
	save(path, rec)
	fmt.Printf("recorded %d benchmarks -> %s\n", len(rec.Benchmarks), path)

	if *check {
		old := load(*baseline)
		os.Exit(diff(old, rec, th, *subset))
	}
}

// invocation is one `go test -bench` run: a benchmark regexp, the packages
// it is looked up in, and how long each benchmark runs.
type invocation struct{ bench, pkgs, benchtime string }

var suites = map[string]struct {
	prefix      string
	invocations []invocation
}{
	"main": {"BENCH_", []invocation{
		{"BenchmarkFig8$|BenchmarkScheme", ".", "1x"},
		{"BenchmarkEngineSchedule$|BenchmarkEngineScheduleCancel$|BenchmarkEngineHeapOracle$|BenchmarkPortForward$|BenchmarkPortThroughput$|BenchmarkHostFilterChain$|BenchmarkShimTransfer$|BenchmarkShimRewrite$|BenchmarkChecksum|BenchmarkGCSweep$|BenchmarkFlowTableChurn$",
			"./internal/sim ./internal/netem ./internal/core", "200ms"},
	}},
	"ladder": {"BENCH_LADDER_", []invocation{
		{"BenchmarkLadder|BenchmarkStorm", ".", "1x"},
	}},
}

// thresholds are the regression gates diff applies.
type thresholds struct{ ns, nsFloor, allocs, bytes float64 }

// bytesSlack is the B/op growth diff ignores whatever the threshold: less
// than the smallest real allocation, so it can only be amortised warm-up.
const bytesSlack = 16

// agg collects one benchmark's per-run samples.
type agg struct {
	ns, bytes []float64
	allocs    []int64
	metrics   map[string][]float64
}

func run(invs []invocation, count int) Record {
	aggs := map[string]*agg{}
	var benches, benchtimes, pkgs []string
	for _, inv := range invs {
		benches = append(benches, inv.bench)
		benchtimes = append(benchtimes, inv.benchtime)
		pkgs = append(pkgs, strings.Fields(inv.pkgs)...)
		runInvocation(inv, count, aggs)
	}

	rec := Record{
		Date: time.Now().Format("2006-01-02"), GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, NumCPU: runtime.NumCPU(),
		Bench: strings.Join(benches, " ; "), Benchtime: strings.Join(benchtimes, " ; "),
		Count: count, Packages: pkgs,
		Benchmarks: map[string]Result{},
	}
	for key, a := range aggs {
		r := Result{Runs: len(a.ns), NsPerOp: mean(a.ns), MinNsOp: min64(a.ns), BytesOp: mean(a.bytes)}
		for _, n := range a.allocs {
			if n > r.AllocsOp {
				r.AllocsOp = n
			}
		}
		if len(a.metrics) > 0 {
			r.Metrics = map[string]float64{}
			for unit, vs := range a.metrics {
				r.Metrics[unit] = mean(vs)
			}
		}
		rec.Benchmarks[key] = r
	}
	return rec
}

// runInvocation runs one `go test -bench` command, echoing its output and
// folding every benchmark line into aggs.
func runInvocation(inv invocation, count int, aggs map[string]*agg) {
	args := []string{"test", "-run", "^$", "-bench", inv.bench, "-benchmem",
		"-benchtime", inv.benchtime, "-count", strconv.Itoa(count), "-timeout", "60m"}
	args = append(args, strings.Fields(inv.pkgs)...)
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

func diff(old, cur Record, th thresholds, subset bool) int {
	keys := make([]string, 0, len(old.Benchmarks))
	for k := range old.Benchmarks {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	regressions := 0
	fmt.Printf("%-60s %22s %24s %14s %8s\n", "benchmark (vs "+old.Date+")", "ns/op", "B/op", "allocs/op", "verdict")
	for _, k := range keys {
		o := old.Benchmarks[k]
		c, ok := cur.Benchmarks[k]
		if !ok {
			if subset {
				continue
			}
			fmt.Printf("%-60s %38s\n", k, "MISSING from new run")
			regressions++
			continue
		}
		// Fastest-of-count is far less noisy than the mean; old records
		// without min_ns_op fall back to the mean.
		oNs, cNs := o.MinNsOp, c.MinNsOp
		if oNs == 0 || cNs == 0 {
			oNs, cNs = o.NsPerOp, c.NsPerOp
		}
		verdict := "ok"
		nsDelta := pct(oNs, cNs)
		if oNs >= th.nsFloor && cNs > oNs*(1+th.ns) {
			verdict = "NS-REGRESS"
			regressions++
		}
		if c.BytesOp > o.BytesOp*(1+th.bytes) && c.BytesOp-o.BytesOp >= bytesSlack {
			verdict = "BYTES-REGRESS"
			regressions++
		}
		if float64(c.AllocsOp) > float64(o.AllocsOp)*(1+th.allocs) {
			verdict = "ALLOC-REGRESS"
			regressions++
		}
		fmt.Printf("%-60s %13.0f%-9s %14.0f%-10s %8d->%-5d %8s\n", k, cNs, nsDelta,
			c.BytesOp, pct(o.BytesOp, c.BytesOp), o.AllocsOp, c.AllocsOp, verdict)
	}
	for k := range cur.Benchmarks {
		if _, ok := old.Benchmarks[k]; !ok {
			fmt.Printf("%-60s %38s\n", k, "new (no baseline)")
		}
	}
	if regressions > 0 {
		fmt.Printf("benchdiff: %d regression(s) vs %s\n", regressions, old.Date)
		return 1
	}
	fmt.Println("benchdiff: no regressions")
	return 0
}

func pct(old, cur float64) string {
	if old == cur {
		return " (+0.0%)" // also the zero-byte benchmarks, where old is 0
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
		if v < m {
			m = v
		}
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
