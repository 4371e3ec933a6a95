package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// tempRoot copies what a run reads from the module root — BENCHMARK.json
// and the golden files — into a scratch root, so that tests can corrupt a
// golden file and traced runs write their bench/out there.
func tempRoot(t *testing.T) string {
	t.Helper()
	src, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	for _, f := range append([]string{"BENCHMARK.json"}, goldenFiles...) {
		raw, err := os.ReadFile(filepath.Join(src, f))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dst, f)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, f), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// checkReport holds a report to the declared metric list: every name
// exactly once (a JSON object cannot repeat one), nothing else, each value
// finite and carrying the declared unit.
func checkReport(t *testing.T, rep *report, defs []metricDef) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
	}
	if len(rep.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, %d declared", len(rep.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := rep.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s is declared but not reported", d.Name)
		case m.Unit != d.Unit || m.Unit == "":
			t.Errorf("metric %s has unit %q, declared %q", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s is %v", d.Name, m.Value)
		}
	}
}

func TestEveryWorkloadReportsEveryEndToEndMetric(t *testing.T) {
	root := tempRoot(t)
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	var declared, defined []string
	for _, w := range bf.Workloads {
		declared = append(declared, w.Name)
	}
	for name := range workloads {
		defined = append(defined, name)
	}
	sort.Strings(declared)
	sort.Strings(defined)
	if strings.Join(declared, " ") != strings.Join(defined, " ") {
		t.Fatalf("BENCHMARK.json names workloads %v, the benchmark defines %v", declared, defined)
	}
	for _, name := range declared {
		rep, err := run(context.Background(), options{workload: name, seed: 1, tiny: true, passes: 1, root: root})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkReport(t, rep, bf.EndToEnd)
		for _, d := range bf.EndToEnd {
			if rep.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, must never be 0", name, d.Name, rep.Metrics[d.Name].Value)
			}
		}
	}
}

func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	root := tempRoot(t)
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	// One workload that simulates and one that does not; passes counts the
	// unprofiled and the profiled passes each.
	for _, name := range []string{"storm_websearch", "service_hit"} {
		rep, err := run(context.Background(), options{workload: name, trace: true, tiny: true, passes: 3, root: root})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkReport(t, rep, bf.PerLayer)
		sum := 0.0
		for n, m := range rep.Metrics {
			if strings.HasSuffix(n, ".cpu_share") {
				sum += m.Value
			}
		}
		if math.Abs(sum-1) > 0.01 {
			t.Errorf("%s: cpu shares sum to %v", name, sum)
		}
		raw, err := os.ReadFile(filepath.Join(root, "bench", "out", name+".trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(raw, &tf); err != nil {
			t.Fatal(err)
		}
		if len(tf.Spans) == 0 || tf.Spans[0].Name != "pass" {
			t.Errorf("%s: trace file holds %d spans", name, len(tf.Spans))
		}
	}
}

func TestWrongGoldenDigestFailsTheRun(t *testing.T) {
	root := tempRoot(t)
	path := filepath.Join(root, goldenFiles[1])
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]string
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	m[stormRung] = "0000000000000000"
	raw, _ = json.Marshal(m)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := run(context.Background(), options{workload: "storm_websearch", tiny: true, passes: 1, root: root})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct {
		t.Error("a run against a wrong committed digest reported correct; main exits 0 only on correct")
	}
}

// TestReferenceKernelStaysOffTheHeap holds the host-speed kernel to what
// calib.go promises: it allocates nothing, so the collector and the heap of
// the instance under test cannot move a reading.
func TestReferenceKernelStaysOffTheHeap(t *testing.T) {
	if n := testing.AllocsPerRun(2, func() { calibKernel() }); n != 0 {
		t.Errorf("the reference kernel allocates %v objects a run", n)
	}
	if got := hostSpeed([]float64{2 * calibNominal, calibNominal, 4 * calibNominal}); got != 0.5 {
		t.Errorf("host speed at twice the nominal reading is %v, want 0.5", got)
	}
}

func TestStackLayer(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "hwatch/internal/sim.(*Engine).insert", "hwatch/internal/netem.(*Port).Send"}, "sim"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2"}, "runtime_gc"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.newobject", "hwatch/internal/sim.(*Engine).newEvent"}, "runtime_alloc"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.schedule", "runtime.mcall"}, "runtime_other"},
		{[]string{"sort.insertionSort_func", "sort.Slice", "hwatch/internal/sim.sortEvents"}, "other"},
		{[]string{"encoding/json.(*encodeState).marshal", "hwatch/internal/server.writeJSON"}, "json"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.Syscall", "net.(*netFD).Write"}, "net"},
		{[]string{"hwatch/internal/harness.Map[go.shape.int,go.shape.*hwatch/internal/scenario.Run].func1"}, "harness"},
		{[]string{"hwatch/internal/server/client.(*Client).do"}, "client"},
	} {
		if got := stackLayer(c.stack); got != c.want {
			t.Errorf("stack %v folds into %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	v := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	if got, want := spread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
