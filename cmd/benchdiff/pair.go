package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// pairs is how many parent/change pairs -pair runs per workload: pair i
// uses seed i on both sides, and the side that goes first alternates.
const pairs = 5

// benchmarkFile is what -pair reads of BENCHMARK.json: the workloads, the
// run length, and per end-to-end metric its direction and the bound by
// which it may worsen. benchdiff holds no threshold of its own.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// report is the result line `go run ./bench` prints.
type report struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// sideRuns are one tree's runs of one workload, in pair order.
type sideRuns struct {
	failed  int                  // runs not correct, or with failed operations
	metrics map[string][]float64 // end-to-end metric -> one reading per run
}

func (s *sideRuns) add(rep report) {
	if !rep.Correct || rep.Failed > 0 {
		s.failed++
	}
	if s.metrics == nil {
		s.metrics = map[string][]float64{}
	}
	for name, m := range rep.Metrics {
		s.metrics[name] = append(s.metrics[name], m.Value)
	}
}

// runPair builds ./bench in parentRoot and changeRoot, runs every workload
// of changeRoot's BENCHMARK.json on both — each binary from its own tree's
// root, because a run reads its tree's goldens — and prints the judgement.
// It returns the process exit code: 1 when any cell fails.
func runPair(parentRoot, changeRoot string, w io.Writer) (int, error) {
	raw, err := os.ReadFile(filepath.Join(changeRoot, "BENCHMARK.json"))
	if err != nil {
		return 0, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return 0, fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	tmp, err := os.MkdirTemp("", "benchdiff-pair")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(tmp)

	roots := [2]string{parentRoot, changeRoot}
	sides := [2]string{"parent", "change"}
	var exes [2]string
	for side, root := range roots {
		exes[side] = filepath.Join(tmp, "bench_"+sides[side])
		build := exec.Command("go", "build", "-o", exes[side], "./bench")
		build.Dir = root
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			return 0, fmt.Errorf("building ./bench in %s: %w", root, err)
		}
	}

	runs := map[string]*[2]sideRuns{} // workload -> parent, change
	for i := 1; i <= pairs; i++ {
		for _, wl := range bf.Workloads {
			if runs[wl.Name] == nil {
				runs[wl.Name] = &[2]sideRuns{}
			}
			for k := 0; k < 2; k++ {
				side := (i + k + 1) % 2 // odd pairs run the parent first
				fmt.Fprintf(os.Stderr, "benchdiff: pair %d/%d %s %s\n", i, pairs, wl.Name, sides[side])
				rep, err := runBench(exes[side], roots[side], wl.Name, i, bf.RunSeconds)
				if err != nil {
					return 0, fmt.Errorf("%s in %s: %w", wl.Name, roots[side], err)
				}
				runs[wl.Name][side].add(rep)
			}
		}
	}

	fmt.Fprintf(w, "%d interleaved parent/change pairs per workload (seed i for pair i, %d s of timed passes per run); median [quartiles].\n\n",
		pairs, bf.RunSeconds)
	fmt.Fprintln(w, "| workload | metric | parent | change | change vs parent | spread | bound | |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|")
	status := 0
	for _, wl := range bf.Workloads {
		r := runs[wl.Name]
		for _, d := range bf.EndToEnd {
			c := judge(d, r[0], r[1])
			if c.verdict == fail {
				status = 1
			}
			fmt.Fprintf(w, "| %s | %s (%s) | %s | %s | %+.1f%% | %.1f%% | %.0f%% | %s |\n", wl.Name, d.Name, d.Unit,
				quartileString(r[0].metrics[d.Name]), quartileString(r[1].metrics[d.Name]),
				100*c.delta, 100*c.spread, 100*d.Bound, c.verdict)
		}
	}
	return status, nil
}

// runBench runs one workload once and parses the result line. A run that
// exits 1 with a result line is a reading (correct: false), not an error.
func runBench(exe, root, workload string, seed, seconds int) (report, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.Itoa(seed),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		if runErr != nil {
			return rep, runErr
		}
		return rep, fmt.Errorf("parsing the result line: %w", err)
	}
	return rep, nil
}

const (
	ok         = "ok"
	fail       = "**fail**"
	unresolved = "unresolved"
)

// cell is the judgement of one metric on one workload.
type cell struct {
	delta   float64 // (change median − parent median) / parent median
	spread  float64 // the wider of the two sides' quartile spreads
	verdict string
}

// judge applies the benchmark's rule to one metric of one workload: fail
// when a run on either side failed or the change's median is worse than
// the parent's by more than the bound; unresolved, never ok, when the runs
// of a side spread wider than the bound — unless every run of the change
// reads better than every run of the parent; ok otherwise.
func judge(d metricDef, parent, change sideRuns) cell {
	p, c := parent.metrics[d.Name], change.metrics[d.Name]
	pm, cm := median(p), median(c)
	out := cell{delta: (cm - pm) / pm, spread: max(spread(p), spread(c)), verdict: ok}
	worse := out.delta
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case parent.failed > 0 || change.failed > 0 || len(p) == 0 || len(c) == 0 || worse > d.Bound:
		out.verdict = fail
	case out.spread > d.Bound && !allBetter(d, p, c):
		out.verdict = unresolved
	}
	return out
}

// allBetter reports whether every reading of the change is better than
// every reading of the parent.
func allBetter(d metricDef, parent, change []float64) bool {
	ps, cs := sorted(parent), sorted(change)
	if d.Better == "higher" {
		return cs[0] > ps[len(ps)-1]
	}
	return cs[len(cs)-1] < ps[0]
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles are Q1 and Q3 as Python's statistics.quantiles(v, n=4) gives
// them, the rule `bench -agree` and the benchmark's acceptance use.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
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
	return q(1), q(3)
}

// spread is the distance between the quartiles over the median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	if m := median(v); m != 0 {
		return (q3 - q1) / m
	}
	return 0
}

func quartileString(v []float64) string {
	q1, q3 := quartiles(v)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(v), q1, q3)
}
