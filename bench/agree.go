package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// runAgree is `-agree`: it measures every workload of BENCHMARK.json in two
// interleaved sets (set A over all workloads, then set B, then A again …),
// run i of either set with seed i, and prints per end-to-end metric both
// medians, their relative difference, each set's spread (the distance
// between its quartiles over its median) and the bound, as Markdown. It
// returns non-zero when a run fails, when the two medians of a metric
// differ by more than the metric's bound, or when a spread exceeds it. That
// is the rule the benchmark contract accepts a benchmark by, and the
// contract takes setup_s out of the spread check: its bound holds for the
// medians only. A second table, not judged, gives the time metrics of the
// same runs as timed: each divided by its run's host speed again.
func runAgree(root string, runs int) int {
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	// values[workload][metric][set] are the runs' readings in run order.
	values := map[string]map[string][2][]float64{}
	record := func(workload, metric string, set int, v float64) {
		if values[workload] == nil {
			values[workload] = map[string][2][]float64{}
		}
		sets := values[workload][metric]
		sets[set] = append(sets[set], v)
		values[workload][metric] = sets
	}
	start := time.Now()
	for i := 1; i <= runs; i++ {
		for set := 0; set < 2; set++ {
			for _, w := range bf.Workloads {
				rep, speed, err := runChild(exe, root, w.Name, int64(i), bf.RunSeconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s run %d set %c: %v\n", w.Name, i, 'A'+set, err)
					return 1
				}
				for name, m := range rep.Metrics {
					record(w.Name, name, set, m.Value)
				}
				for _, name := range scaledMetrics {
					record(w.Name, asTimed+name, set, rep.Metrics[name].Value/speed)
				}
			}
		}
	}

	fmt.Printf("# Agreement of two sets of %d runs\n\n", runs)
	fmt.Printf("`go run ./bench -agree -runs %d`, %s, GOMAXPROCS %d, %d s of timed passes per run, %.0f min in all.\n",
		runs, runtime.Version(), maxProcs, bf.RunSeconds, time.Since(start).Minutes())
	fmt.Printf("Run i of either set uses seed i. Spread is the distance between a set's quartiles over its median.\n\n")
	const header = "| workload | metric | median A | median B | B vs A | spread A | spread B | bound | |\n|---|---|---|---|---|---|---|---|---|"
	// row prints one metric of one workload and reports whether it is over.
	row := func(workload string, d metricDef, prefix string, judged bool) bool {
		v := values[workload][prefix+d.Name]
		a, b := median(v[0]), median(v[1])
		diff := (b - a) / a
		sa, sb := spread(v[0]), spread(v[1])
		over := math.Abs(diff) > d.Bound || (d.Name != "setup_s" && math.Max(sa, sb) > d.Bound)
		verdict := ""
		switch {
		case judged && over:
			verdict = "**over**"
		case judged:
			verdict = "ok"
		}
		fmt.Printf("| %s | %s (%s) | %.4g | %.4g | %+.1f%% | %.1f%% | %.1f%% | %.0f%% | %s |\n",
			workload, d.Name, d.Unit, a, b, 100*diff, 100*sa, 100*sb, 100*d.Bound, verdict)
		return judged && over
	}
	fmt.Println(header)
	status := 0
	for _, w := range bf.Workloads {
		for _, d := range bf.EndToEnd {
			if row(w.Name, d, "", true) {
				status = 1
			}
		}
	}
	fmt.Printf("\n## The same runs as timed\n\nThe time metrics of the runs above, each divided by its run's host speed again; not judged.\n\n")
	fmt.Println(header)
	for _, w := range bf.Workloads {
		for _, d := range bf.EndToEnd {
			for _, name := range scaledMetrics {
				if d.Name == name {
					row(w.Name, d, asTimed, false)
				}
			}
		}
	}
	return status
}

// asTimed prefixes the names under which runAgree keeps the unscaled times.
const asTimed = "as timed "

var hostSpeedLine = regexp.MustCompile(`host speed ([0-9.]+)`)

// runChild runs one workload in a process of its own, as the benchmark's
// users do, and parses the result line and, off standard error, the host
// speed the run scaled its times by.
func runChild(exe, root, workload string, seed int64, seconds int) (*report, float64, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = io.MultiWriter(os.Stderr, &stderr)
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return nil, 0, fmt.Errorf("parsing the result line: %w", err)
	}
	if !rep.Correct {
		return nil, 0, fmt.Errorf("%d of %d operations failed", rep.Failed, rep.Attempted)
	}
	m := hostSpeedLine.FindSubmatch(stderr.Bytes())
	if m == nil {
		return nil, 0, fmt.Errorf("the run did not say its host speed")
	}
	speed, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil || speed <= 0 {
		return nil, 0, fmt.Errorf("host speed %q", m[1])
	}
	return &rep, speed, nil
}

// spread is (Q3 − Q1) / median with the quartiles of Python's
// statistics.quantiles(v, n=4), the rule the benchmark is accepted by.
func spread(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := float64(i*(n+1) - j*4)
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / median(s)
}
