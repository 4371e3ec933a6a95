package scenario

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hwatch/internal/sim"
)

func TestParseSpecDefaults(t *testing.T) {
	s, err := ParseSpec([]byte(`{"kind":"dumbbell","scheme":"hwatch"}`))
	if err != nil {
		t.Fatal(err)
	}
	p := s.dumbbellParams()
	if p.LongSources != 25 || p.ShortSources != 25 {
		t.Fatalf("defaults not applied: %+v", p)
	}
	if !p.ByteBuffers {
		t.Fatal("byte buffers should default on")
	}
}

func TestParseSpecOverrides(t *testing.T) {
	raw := []byte(`{
		"kind": "dumbbell", "scheme": "dctcp",
		"long_sources": 4, "short_sources": 6,
		"bottleneck_gbps": 1, "buffer_pkts": 100, "mark_percent": 10,
		"rtt_us": 200, "icw": 5, "duration_ms": 250, "epochs": 2,
		"short_kb": 20, "seed": 99
	}`)
	s, err := ParseSpec(raw)
	if err != nil {
		t.Fatal(err)
	}
	p := s.dumbbellParams()
	if p.LongSources != 4 || p.ShortSources != 6 || p.BufferPkts != 100 {
		t.Fatalf("overrides lost: %+v", p)
	}
	if p.BottleneckBps != 1e9 || p.MarkFrac != 0.10 || p.ICW != 5 {
		t.Fatalf("conversions wrong: %+v", p)
	}
	if p.LinkDelay != 50*sim.Microsecond || p.Duration != 250*sim.Millisecond {
		t.Fatalf("time conversions wrong: %+v", p)
	}
	if p.ShortSize != 20_000 || p.Seed != 99 {
		t.Fatalf("size/seed wrong: %+v", p)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for name, raw := range map[string]string{
		"bad json":       `{kind}`,
		"bad kind":       `{"kind":"ring"}`,
		"bad scheme":     `{"kind":"dumbbell","scheme":"bbr"}`,
		"bad testbed":    `{"kind":"testbed","scheme":"bbr"}`,
		"bad mix scheme": `{"kind":"dumbbell","mix":[{"scheme":"dctcp"},{"scheme":"bbr"}]}`,
		"mix on testbed": `{"kind":"testbed","mix":[{"scheme":"dctcp"}]}`,
		"bad mark":       `{"kind":"dumbbell","scheme":"dctcp","mark_percent":150}`,
		"one rack":       `{"kind":"testbed","racks":1}`,
		"negative racks": `{"kind":"testbed","racks":-2}`,
		"testbed buffer": `{"kind":"testbed","buffer_pkts":50}`,
		"dumbbell racks": `{"kind":"dumbbell","racks":7}`,
		"point until":    `{"kind":"dumbbell","faults":[{"kind":"link-down","at_ms":100,"until_ms":120}]}`,
		"once, every_ms": `{"kind":"dumbbell","faults":[{"kind":"link-down","at_ms":100,"for_ms":5,"every_ms":60}]}`,
	} {
		if _, err := ParseSpec([]byte(raw)); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

// A knob only the other kind reads is rejected, naming the field and the
// kind: accepted, it would re-seed a run it does not configure.
func TestParseSpecRejectsForeignKnobs(t *testing.T) {
	for _, c := range []struct{ kind, field, value string }{
		{"testbed", "long_sources", "4"},
		{"testbed", "short_sources", "4"},
		{"testbed", "bottleneck_gbps", "1"},
		{"testbed", "buffer_pkts", "50"},
		{"testbed", "mark_percent", "10"},
		{"testbed", "rtt_us", "100"},
		{"testbed", "icw", "4"},
		{"testbed", "drain_after_ms", "10"},
		{"testbed", "short_kb", "20"},
		{"testbed", "byte_buffers", "false"},
		{"dumbbell", "racks", "7"},
		{"dumbbell", "hosts_per_rack", "4"},
		{"dumbbell", "parallel", "2"},
	} {
		raw := `{"kind":"` + c.kind + `","` + c.field + `":` + c.value + `}`
		_, err := ParseSpec([]byte(raw))
		if err == nil {
			t.Errorf("%s: accepted", raw)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, c.field) || !strings.Contains(msg, c.kind) {
			t.Errorf("%s: error %q does not name both the field and the kind", raw, msg)
		}
	}
	// The knobs both kinds read stay accepted on either, and the check
	// costs an accepted spec no allocation (hwatchd parses every request).
	for _, kind := range []string{"dumbbell", "testbed"} {
		raw := `{"kind":"` + kind + `","duration_ms":100,"epochs":1,"seed":3,"with_shims":true,"check":true,"shards":2}`
		s, err := ParseSpec([]byte(raw))
		if err != nil {
			t.Fatalf("%s: %v", raw, err)
		}
		if n := testing.AllocsPerRun(10, func() { s.foreignKnob() }); n != 0 {
			t.Errorf("%s: the knob check allocates %.0f times", kind, n)
		}
		if n := testing.AllocsPerRun(10, func() { _ = foreignFaultField(s.Faults) }); n != 0 {
			t.Errorf("%s: the fault field check allocates %.0f times", kind, n)
		}
	}
	faulted := []FaultSpec{{Kind: "jitter", AtMs: 1, UntilMs: 2, Dist: "pareto", DelayUs: 10, Shape: 2, Egress: true}}
	if n := testing.AllocsPerRun(10, func() { _ = foreignFaultField(faulted) }); n != 0 {
		t.Errorf("the fault field check allocates %.0f times on an accepted fault", n)
	}
}

// A testbed spec's with_shims installs the overlay, as on the dumbbell:
// droptail deploys no shims of its own, so any shim stats come from it.
func TestTestbedSpecWithShims(t *testing.T) {
	s, err := ParseSpec([]byte(`{"kind":"testbed","scheme":"droptail","racks":2,"hosts_per_rack":4,"parallel":2,"epochs":1,"with_shims":true}`))
	if err != nil {
		t.Fatal(err)
	}
	run, err := s.Scenario().RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if run.ShimStats == nil {
		t.Fatal("with_shims testbed run deployed no shims")
	}
}

// An unknown scheme must be rejected with an error that lists every
// registered name — no silent fallback to a default.
func TestParseSpecUnknownSchemeListsRegistry(t *testing.T) {
	for _, raw := range []string{
		`{"kind":"dumbbell","scheme":"bbr"}`,
		`{"kind":"testbed","scheme":"bbr"}`,
		`{"kind":"dumbbell","mix":[{"scheme":"bbr"}]}`,
	} {
		_, err := ParseSpec([]byte(raw))
		if err == nil {
			t.Fatalf("%s: unknown scheme accepted", raw)
		}
		msg := err.Error()
		if !strings.Contains(msg, `"bbr"`) || !strings.Contains(msg, "registered schemes are") {
			t.Fatalf("error does not name the offender and registry: %v", err)
		}
		for _, name := range Names() {
			if !strings.Contains(msg, name) {
				t.Fatalf("error misses registered scheme %q: %v", name, err)
			}
		}
	}
}

func TestLoadSpecFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.json")
	if err := os.WriteFile(path, []byte(`{"kind":"testbed","scheme":"hwatch","racks":2,"hosts_per_rack":4,"parallel":2,"epochs":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	p := s.testbedParams()
	if p.Racks != 2 || p.HostsPerRack != 4 || p.Parallel != 2 || p.Epochs != 1 {
		t.Fatalf("testbed params: %+v", p)
	}
	if _, err := LoadSpec(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// A mixed-tenancy spec runs the schemes side by side through the same
// declarative path Fig. 2 uses.
func TestSpecMixRun(t *testing.T) {
	raw := []byte(`{
		"kind": "dumbbell",
		"mix": [{"scheme":"dctcp"},{"scheme":"reno-ecn"},{"scheme":"reno-deaf"}],
		"long_sources": 3, "short_sources": 3,
		"duration_ms": 200, "epochs": 1
	}`)
	s, err := ParseSpec(raw)
	if err != nil {
		t.Fatal(err)
	}
	run, err := s.Scenario().RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if run.Label != "MIX" {
		t.Fatalf("label = %q, want MIX", run.Label)
	}
	if run.ShortDone != run.ShortAll || run.ShortAll != 3 {
		t.Fatalf("mix run incomplete: %d/%d", run.ShortDone, run.ShortAll)
	}
}
