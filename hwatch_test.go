package hwatch

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hwatch/internal/sim"
)

func TestFacadeRunDumbbell(t *testing.T) {
	p := PaperDumbbell(3, 3)
	p.Duration = 200 * sim.Millisecond
	p.Epochs = 1
	p.FirstEpoch = 20 * sim.Millisecond
	p.ByteBuffers = true
	r, err := RunDumbbell(context.Background(), HWatch, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.ShortDone != r.ShortAll || r.ShortAll != 3 {
		t.Fatalf("short flows %d/%d", r.ShortDone, r.ShortAll)
	}
	if r.ShimStats == nil || r.ShimStats.ProbesSent == 0 {
		t.Fatal("HWatch run carries no shim statistics")
	}
	if r.LongGoodputBps.N() != 3 {
		t.Fatalf("long flows measured: %d", r.LongGoodputBps.N())
	}
}

func TestFacadeSchemes(t *testing.T) {
	if got := AllSchemes(); len(got) != 4 {
		t.Fatalf("AllSchemes = %v", got)
	}
	if HWatch.String() != "TCP-HWATCH" || DCTCP.String() != "DCTCP" {
		t.Fatal("scheme labels broken")
	}
}

func TestFacadeConfigs(t *testing.T) {
	tc := DefaultTCPConfig()
	if tc.InitCwnd != 10 || tc.MinRTO != 200*sim.Millisecond {
		t.Fatalf("unexpected TCP defaults: %+v", tc)
	}
	dc := DCTCPTCPConfig()
	if !dc.ECN {
		t.Fatal("DCTCP config must enable ECN")
	}
	sc := DefaultShimConfig(100_000)
	if sc.ProbeCount != 10 || sc.ProbeWire > 38 {
		t.Fatalf("shim defaults diverge from the paper: %+v", sc)
	}
}

func TestFacadeTableAndSave(t *testing.T) {
	p := PaperDumbbell(2, 2)
	p.Duration = 500 * sim.Millisecond // room for RTO recovery of the shorts
	p.Epochs = 1
	p.FirstEpoch = 10 * sim.Millisecond
	r, err := RunDumbbell(context.Background(), DropTail, p)
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
	if err := SaveRun(dir, "t", r); err != nil {
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
