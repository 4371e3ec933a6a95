package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hwatch/internal/scenario"
	"hwatch/internal/stats"
)

// syntheticRun builds a Run with known values so rendering can be checked
// without simulating.
func syntheticRun(label string) *scenario.Run {
	r := &scenario.Run{Label: label}
	for _, v := range []float64{1, 2, 3, 4} {
		r.ShortFCTms.Add(v)
		r.PerSourceAvgMs.Add(v * 2)
		r.PerSourceVarMs.Add(v / 2)
	}
	r.LongGoodputBps.Add(4e9)
	r.LongGoodputBps.Add(6e9)
	r.LongFairness = 0.96
	t := []int64{0, 1000, 2000, 3000, 4000}
	r.QueuePkts = stats.TimeSeries{T: t, V: []float64{0, 10, 20, 30, 40}}
	r.QueueBytes = stats.TimeSeries{T: t, V: []float64{0, 15000, 30000, 45000, 60000}}
	r.Utilization = stats.TimeSeries{T: t, V: []float64{0.5, 0.5, 0.5, 0.5, 0.5}}
	r.Drops, r.Marks, r.Timeouts = 7, 11, 2
	r.ShortDone, r.ShortAll = 4, 4
	return r
}

func TestSummarize(t *testing.T) {
	s := Summarize(syntheticRun("X"))
	if s.Label != "X" || s.Drops != 7 || s.Marks != 11 || s.Timeouts != 2 {
		t.Fatalf("summary totals wrong: %+v", s)
	}
	if s.FCTMeanMs != 2.5 || s.GoodputGbps != 5 {
		t.Fatalf("summary stats wrong: %+v", s)
	}
	if s.ShortDone != 4 || s.ShortAll != 4 {
		t.Fatalf("summary counts wrong: %+v", s)
	}
}

func TestTableRendering(t *testing.T) {
	out := Table([]*scenario.Run{syntheticRun("A"), syntheticRun("B")})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("table has %d lines, want header + 2 rows:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "fct-p50ms") || !strings.Contains(lines[0], "goodput-Gbps") {
		t.Fatalf("header wrong: %s", lines[0])
	}
	if !strings.HasPrefix(lines[1], "A") || !strings.HasPrefix(lines[2], "B") {
		t.Fatalf("rows out of order:\n%s", out)
	}
	if !strings.Contains(lines[1], "4/4") {
		t.Fatalf("done column missing: %s", lines[1])
	}
}

func TestJSONRendering(t *testing.T) {
	out, err := JSON([]*scenario.Run{syntheticRun("A")})
	if err != nil {
		t.Fatal(err)
	}
	var got []Summary
	if err := json.Unmarshal([]byte(out), &got); err != nil {
		t.Fatalf("JSON output does not round-trip: %v\n%s", err, out)
	}
	if len(got) != 1 || got[0].Label != "A" || got[0].Drops != 7 {
		t.Fatalf("JSON content wrong: %+v", got)
	}
}

func TestSaveRunWritesSeries(t *testing.T) {
	dir := t.TempDir()
	if err := SaveRun(dir, "p", syntheticRun("A")); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{
		"p_fct_cdf.csv", "p_fct_avg_cdf.csv", "p_fct_var_cdf.csv",
		"p_goodput_cdf.csv", "p_queue_bytes.csv", "p_util.csv",
	} {
		raw, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatalf("missing %s: %v", f, err)
		}
		if len(raw) == 0 {
			t.Fatalf("%s is empty", f)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
			if strings.Count(line, ",") != 1 {
				t.Fatalf("%s: not 2-column CSV: %q", f, line)
			}
		}
	}
	// Without per-source samples the AVG/VAR CDFs are skipped.
	empty := &scenario.Run{Label: "E"}
	dir2 := t.TempDir()
	if err := SaveRun(dir2, "q", empty); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir2, "q_fct_avg_cdf.csv")); !os.IsNotExist(err) {
		t.Fatal("empty run still wrote per-source CDFs")
	}
}

func TestWriteCDFMonotone(t *testing.T) {
	r := syntheticRun("A")
	var b strings.Builder
	if err := WriteCDF(&b, &r.ShortFCTms, 100); err != nil {
		t.Fatal(err)
	}
	lastP := -1.0
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		var x, p float64
		if _, err := fmtSscan(line, &x, &p); err != nil {
			t.Fatalf("bad CDF line %q: %v", line, err)
		}
		if p < lastP {
			t.Fatalf("CDF not monotone at %q", line)
		}
		lastP = p
	}
	if lastP != 1 {
		t.Fatalf("CDF does not reach 1: %f", lastP)
	}

	var s strings.Builder
	if err := WriteSeries(&s, &r.QueuePkts); err != nil {
		t.Fatal(err)
	}
	if got := len(strings.Split(strings.TrimSpace(s.String()), "\n")); got != 5 {
		t.Fatalf("series rows = %d, want 5", got)
	}
}

// fmtSscan parses "x,p" CSV into two floats.
func fmtSscan(line string, x, p *float64) (int, error) {
	parts := strings.SplitN(line, ",", 2)
	if len(parts) != 2 {
		return 0, os.ErrInvalid
	}
	if err := json.Unmarshal([]byte(parts[0]), x); err != nil {
		return 0, err
	}
	if err := json.Unmarshal([]byte(parts[1]), p); err != nil {
		return 1, err
	}
	return 2, nil
}
