package hwatch

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hwatch/internal/experiments"
)

// TestFacadeRunDumbbell runs one Spec through the facade: every flow is
// measured, the HWatch shims report their work, Table renders the run,
// and the target path (hwatchsim spec:<file>, hwatchd spec jobs) gives the
// same run digest.
func TestFacadeRunDumbbell(t *testing.T) {
	spec, err := ParseSpec([]byte(`{"kind":"dumbbell","scheme":"hwatch","long_sources":3,"short_sources":3,
		"duration_ms":200,"epochs":1,"seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	run, err := RunSpec(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if run.ShortDone != run.ShortAll || run.ShortAll != 3 {
		t.Errorf("short flows %d/%d, want 3/3", run.ShortDone, run.ShortAll)
	}
	if run.LongGoodputBps.N() != 3 {
		t.Errorf("long flows measured: %d, want 3", run.LongGoodputBps.N())
	}
	if run.ShimStats == nil || run.ShimStats.ProbesSent == 0 || run.ShimStats.SynAcksStamped == 0 {
		t.Errorf("HWatch run carries no shim statistics: %+v", run.ShimStats)
	}
	if tbl := Table([]*Run{run}); !strings.Contains(tbl, "TCP-HWATCH") || !strings.Contains(tbl, "fct-p50ms") {
		t.Errorf("table output: %q", tbl)
	}
	runs, _, err := SpecTarget("spec", "facade", spec).Run(ctx, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := runs[0].DigestHex(), run.DigestHex(); got != want {
		t.Errorf("SpecTarget run digest %s, RunSpec %s", got, want)
	}
}

// TestFacadeTableAndSave renders a DropTail run as a table and writes its
// series as the figure CSVs.
func TestFacadeTableAndSave(t *testing.T) {
	// 500 ms leaves room for RTO recovery of the shorts.
	spec, err := ParseSpec([]byte(`{"kind":"dumbbell","scheme":"droptail","long_sources":2,"short_sources":2,
		"duration_ms":500,"epochs":1,"seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunSpec(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.ShortFCTms.N() == 0 {
		t.Fatal("no short flow completed; cannot exercise CSV output")
	}
	tbl := Table([]*Run{r})
	if !strings.Contains(tbl, "TCP-DropTail") || !strings.Contains(tbl, "fct-p50ms") {
		t.Fatalf("table output: %q", tbl)
	}

	dir := t.TempDir()
	if err := experiments.SaveRun(dir, "t", r); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"t_fct_cdf.csv", "t_goodput_cdf.csv", "t_queue_bytes.csv", "t_util.csv"} {
		st, err := os.Stat(filepath.Join(dir, f))
		if err != nil {
			t.Fatalf("missing %s: %v", f, err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", f)
		}
	}
}
