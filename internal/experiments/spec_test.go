package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hwatch/internal/scenario"
	"hwatch/internal/sim"
)

func TestSpecRunEndToEnd(t *testing.T) {
	raw := []byte(`{
		"kind": "dumbbell", "scheme": "hwatch",
		"long_sources": 3, "short_sources": 3,
		"duration_ms": 200, "epochs": 1
	}`)
	s, err := scenario.ParseSpec(raw)
	if err != nil {
		t.Fatal(err)
	}
	run := mustRun(t, s.Scenario())
	if run.ShortDone != run.ShortAll || run.ShortAll != 3 {
		t.Fatalf("spec run incomplete: %d/%d", run.ShortDone, run.ShortAll)
	}
}

func TestSpecTestbedRun(t *testing.T) {
	s := &scenario.FileSpec{Kind: "testbed", Scheme: "hwatch", Racks: 2, HostsPerRack: 4, Parallel: 2, Epochs: 1}
	run := mustRun(t, s.Scenario())
	if run.Label != "TCP-HWatch" {
		t.Fatalf("label = %q", run.Label)
	}
	if run.ShortAll == 0 || run.ShortDone != run.ShortAll {
		t.Fatalf("testbed spec run: %d/%d", run.ShortDone, run.ShortAll)
	}
}

func TestWritePlotScripts(t *testing.T) {
	dir := t.TempDir()
	err := WriteFigurePlots(dir, "figX", []string{"A", "B"}, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"figX_fct.plt", "figX_goodput.plt", "figX_queue.plt", "figX_util.plt"} {
		raw, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatalf("missing %s: %v", f, err)
		}
		s := string(raw)
		if !strings.Contains(s, "a_") || !strings.Contains(s, `title "B"`) {
			t.Fatalf("%s content wrong: %s", f, s)
		}
		if !strings.Contains(s, "pngcairo") {
			t.Fatalf("%s missing terminal", f)
		}
	}
	// The FCT panel is log-x (the paper plots FCT on a log axis).
	raw, _ := os.ReadFile(filepath.Join(dir, "figX_fct.plt"))
	if !strings.Contains(string(raw), "logscale x") {
		t.Fatal("FCT panel not log-x")
	}
}

func TestJSONSummaries(t *testing.T) {
	p := scenario.PaperDumbbell(2, 2)
	p.Duration = 150 * sim.Millisecond
	p.Epochs = 1
	p.FirstEpoch = 10 * sim.Millisecond
	p.ByteBuffers = true
	r := mustRun(t, dumbbellSpec(scenario.HWatch, p))
	out, err := JSON([]*scenario.Run{r})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"label": "TCP-HWATCH"`, `"fct_p50_ms"`, `"short_all": 2`} {
		if !strings.Contains(out, want) {
			t.Fatalf("JSON missing %q:\n%s", want, out)
		}
	}
}
