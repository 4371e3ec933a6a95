package main

import (
	"bytes"
	"maps"
	"strings"
	"testing"
)

// ladderRecord is a two-rung record shaped like BENCH_LADDER_*.json.
func ladderRecord() Record {
	return Record{Date: "2026-01-01", Benchmarks: map[string]Result{
		"hwatch.BenchmarkLadder1x": {Runs: 1, NsPerOp: 6e8, MinNsOp: 6e8, BytesOp: 7e6, AllocsOp: 33600,
			Metrics: map[string]float64{"flows-done": 150, "fct-ms": 0.7809, "events": 6562929, "gc-cpu-fraction": 0.004}},
		"hwatch.BenchmarkStormWebSearch": {Runs: 1, NsPerOp: 7e9, MinNsOp: 7e9, BytesOp: 9e7, AllocsOp: 1200000,
			Metrics: map[string]float64{"flows-done": 10000, "fct-ms": 12.5, "events": 29500000, "gc-cpu-fraction": 0.03}},
	}}
}

func TestLadderDiff(t *testing.T) {
	const storm = "hwatch.BenchmarkStormWebSearch"
	// edit changes the storm rung of a copy of the record.
	edit := func(f func(*Result)) func(*Record) {
		return func(rec *Record) {
			r := rec.Benchmarks[storm]
			r.Metrics = maps.Clone(r.Metrics)
			f(&r)
			rec.Benchmarks[storm] = r
		}
	}
	cases := []struct {
		name   string
		mutate func(*Record)
		column string // named in the failing row; "" = the check passes
	}{
		{"identical", func(*Record) {}, ""},
		{"time tripled", edit(func(r *Result) { r.MinNsOp *= 3; r.NsPerOp *= 3 }), ""},
		{"gc share moved", edit(func(r *Result) { r.Metrics["gc-cpu-fraction"] = 0.3 }), ""},
		{"bytes inside the allowance", edit(func(r *Result) { r.BytesOp *= 1.05 }), ""},
		{"allocs inside the allowance", edit(func(r *Result) { r.AllocsOp += r.AllocsOp / 200 }), ""},
		{"flows-done off by one", edit(func(r *Result) { r.Metrics["flows-done"]-- }), "flows-done"},
		{"events off by one", edit(func(r *Result) { r.Metrics["events"]++ }), "events"},
		{"fct moved", edit(func(r *Result) { r.Metrics["fct-ms"] = 12.51 }), "fct-ms"},
		{"metric dropped", edit(func(r *Result) { delete(r.Metrics, "events") }), "events"},
		{"metric not in the record", edit(func(r *Result) { r.Metrics["drops"] = 4 }), "drops"},
		{"bytes x1.2", edit(func(r *Result) { r.BytesOp *= 1.2 }), "B/op"},
		{"allocs x1.02", edit(func(r *Result) { r.AllocsOp += r.AllocsOp / 50 }), "allocs/op"},
		{"rung missing", func(rec *Record) { delete(rec.Benchmarks, storm) }, "missing"},
	}
	for _, tc := range cases {
		cur := ladderRecord()
		tc.mutate(&cur)
		var out bytes.Buffer
		failed := diff(&out, ladderRecord(), cur)
		if tc.column == "" {
			if failed != 0 {
				t.Errorf("%s: %d rung(s) fail, want none:\n%s", tc.name, failed, out.String())
			}
			continue
		}
		if failed != 1 {
			t.Errorf("%s: %d rung(s) fail, want 1:\n%s", tc.name, failed, out.String())
		}
		named := false
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, "FAIL") {
				named = strings.Contains(line, "BenchmarkStormWebSearch") && strings.Contains(line, tc.column)
			}
		}
		if !named {
			t.Errorf("%s: no failing row names the rung and %q:\n%s", tc.name, tc.column, out.String())
		}
	}
}

func TestBytesSlackIgnoresWarmUp(t *testing.T) {
	old := Record{Benchmarks: map[string]Result{"r": {BytesOp: 8, AllocsOp: 0}}}
	cur := Record{Benchmarks: map[string]Result{"r": {BytesOp: 20, AllocsOp: 0}}}
	var out bytes.Buffer
	if failed := diff(&out, old, cur); failed != 0 {
		t.Fatalf("12 B of growth is under the slack, yet:\n%s", out.String())
	}
}

func TestParseBenchLine(t *testing.T) {
	name, vals, ok := parseBenchLine("BenchmarkLadder10xShards4-2   \t       1\t3682753049 ns/op\t   9417696 events\t         8.700 fct-ms\t      1500 flows-done\t51712760 B/op\t  880615 allocs/op")
	if !ok || name != "BenchmarkLadder10xShards4" {
		t.Fatalf("name %q ok %v", name, ok)
	}
	want := map[string]float64{"ns/op": 3682753049, "events": 9417696, "fct-ms": 8.7, "flows-done": 1500, "B/op": 51712760, "allocs/op": 880615}
	if !maps.Equal(vals, want) {
		t.Fatalf("got %v want %v", vals, want)
	}
	for _, line := range []string{"PASS", "ok  \thwatch\t8.4s", "BenchmarkX-2", "pkg: hwatch"} {
		if _, _, ok := parseBenchLine(line); ok {
			t.Errorf("%q parsed as a benchmark line", line)
		}
	}
}

func TestPairJudgement(t *testing.T) {
	lower := metricDef{Name: "wall_s", Better: "lower", Bound: 0.25}
	higher := metricDef{Name: "rate", Better: "higher", Bound: 0.10}
	side := func(name string, failed int, v ...float64) sideRuns {
		return sideRuns{failed: failed, metrics: map[string][]float64{name: v}}
	}
	steady := []float64{1.00, 1.01, 0.99, 1.02, 0.98}
	scale := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	cases := []struct {
		name           string
		def            metricDef
		parent, change sideRuns
		want           string
	}{
		{"inside the bound", lower, side("wall_s", 0, steady...), side("wall_s", 0, scale(1.1)...), ok},
		{"worse by more than the bound", lower, side("wall_s", 0, steady...), side("wall_s", 0, scale(1.3)...), fail},
		{"improves past the bound", lower, side("wall_s", 0, steady...), side("wall_s", 0, scale(0.5)...), ok},
		{"a change run failed", lower, side("wall_s", 0, steady...), side("wall_s", 1, steady...), fail},
		{"a parent run failed", lower, side("wall_s", 1, steady...), side("wall_s", 0, steady...), fail},
		{"no readings", lower, side("wall_s", 0, steady...), side("other", 0, steady...), fail},
		{"spread above the bound", lower, side("wall_s", 0, 1.0, 1.5, 0.7, 1.3, 0.8), side("wall_s", 0, steady...), unresolved},
		{"change spreads above the bound", lower, side("wall_s", 0, steady...), side("wall_s", 0, 1.0, 1.5, 0.7, 1.3, 0.8), unresolved},
		{"wide spread but every change run better", lower, side("wall_s", 0, 2.0, 3.0, 1.4, 2.6, 1.6), side("wall_s", 0, steady...), ok},
		{"wide spread and worse past the bound", lower, side("wall_s", 0, steady...), side("wall_s", 0, 2.0, 3.0, 1.4, 2.6, 1.6), fail},
		{"higher is better: drop past the bound", higher, side("rate", 0, steady...), side("rate", 0, scale(0.8)...), fail},
		{"higher is better: rise past the bound", higher, side("rate", 0, steady...), side("rate", 0, scale(1.5)...), ok},
	}
	for _, tc := range cases {
		if got := judge(tc.def, tc.parent, tc.change); got.verdict != tc.want {
			t.Errorf("%s: %s (delta %+.3f, spread %.3f), want %s", tc.name, got.verdict, got.delta, got.spread, tc.want)
		}
	}
}

// TestSpreadMatchesBench pins the quartile rule to the one bench/agree.go
// and the benchmark's acceptance use (Python's statistics.quantiles, n=4).
func TestSpreadMatchesBench(t *testing.T) {
	q1, q3 := quartiles([]float64{5, 1, 4, 2, 3})
	if q1 != 1.5 || q3 != 4.5 {
		t.Fatalf("quartiles of 1..5 = %v, %v; want 1.5, 4.5", q1, q3)
	}
	if got := spread([]float64{5, 1, 4, 2, 3}); got != 1 {
		t.Fatalf("spread of 1..5 = %v, want 1", got)
	}
}
