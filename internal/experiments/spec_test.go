package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
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

// TestParamsAreData: what a table row hands the scenario layer is plain
// data. The params structs hold no func, chan or interface anywhere, and
// every Figures and Ablations row's params, shim settings and guest stack
// come back from an encoding/json round trip deeply equal, so a row can
// be stored, compared and content-addressed.
func TestParamsAreData(t *testing.T) {
	for _, v := range []any{scenario.DumbbellParams{}, scenario.TestbedParams{}, scenario.ShimParams{}} {
		assertPlainData(t, reflect.TypeOf(v).Name(), reflect.TypeOf(v))
	}
	for _, scale := range []float64{0.1, 1} {
		var specs []*scenario.Spec
		var names []string
		for _, f := range Figures() {
			for i, s := range f.specs(scale) {
				specs, names = append(specs, s), append(names, f.Name+"/"+f.Keys[i])
			}
		}
		for _, a := range Ablations() {
			for i, s := range a.specs(scale) {
				specs, names = append(specs, s), append(names, a.Name+"/"+a.rows[i].label)
			}
		}
		for i, s := range specs {
			for _, part := range []any{&s.Dumbbell, &s.Testbed, &s.Shim, &s.Guest} {
				raw, err := json.Marshal(part)
				if err != nil {
					t.Fatalf("%s: %v", names[i], err)
				}
				back := reflect.New(reflect.TypeOf(part).Elem())
				if err := json.Unmarshal(raw, back.Interface()); err != nil {
					t.Fatalf("%s: %v", names[i], err)
				}
				if want := reflect.ValueOf(part).Elem().Interface(); !reflect.DeepEqual(back.Elem().Interface(), want) {
					t.Errorf("%s at scale %v: %T does not survive JSON: %s", names[i], scale, want, raw)
				}
			}
		}
	}
}

// assertPlainData fails on any func, chan or interface reachable in typ.
func assertPlainData(t *testing.T, path string, typ reflect.Type) {
	t.Helper()
	switch typ.Kind() {
	case reflect.Func, reflect.Chan, reflect.Interface, reflect.UnsafePointer:
		t.Errorf("%s is a %v, not data", path, typ.Kind())
	case reflect.Pointer, reflect.Slice, reflect.Array:
		assertPlainData(t, path, typ.Elem())
	case reflect.Map:
		assertPlainData(t, path, typ.Key())
		assertPlainData(t, path, typ.Elem())
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			assertPlainData(t, path+"."+typ.Field(i).Name, typ.Field(i).Type)
		}
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
