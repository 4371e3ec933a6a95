package scenario

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
)

func TestRegisterValidation(t *testing.T) {
	cases := map[string]Definition{
		"empty name":    {Bottleneck: dropTailQueue},
		"no bottleneck": {Name: "incomplete"},
		"duplicate":     {Name: string(DCTCP), Bottleneck: dropTailQueue},
	}
	for name, def := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Register did not panic", name)
				}
			}()
			Register(def)
		}()
	}
}

func TestMaterializeUnknownScheme(t *testing.T) {
	_, err := Materialize("bbr", Env{BufferPkts: 10, MarkPkts: 2})
	if err == nil {
		t.Fatal("unknown scheme materialized")
	}
	if !strings.Contains(err.Error(), "registered schemes are") ||
		!strings.Contains(err.Error(), string(DCTCP)) {
		t.Fatalf("error does not list the registry: %v", err)
	}
}

func TestSchemeLabels(t *testing.T) {
	if DCTCP.String() != "DCTCP" || HWatch.String() != "TCP-HWATCH" {
		t.Fatalf("paper labels wrong: %q %q", DCTCP.String(), HWatch.String())
	}
	if got := Scheme("bbr").String(); got != "bbr" {
		t.Fatalf("unregistered scheme label = %q, want the raw name", got)
	}
}

func TestNamesSortedAndComplete(t *testing.T) {
	names := Names()
	if len(names) < 6 {
		t.Fatalf("registry too small: %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
	for _, s := range AllSchemes() {
		if _, ok := Lookup(string(s)); !ok {
			t.Fatalf("paper scheme %q missing from registry", s)
		}
	}
}

// Every registered scheme must survive the full round trip: JSON spec ->
// ParseSpec -> Run at tiny scale, producing events under its own label.
func TestRegistryRoundTrip(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			fs := &FileSpec{
				Kind:         "dumbbell",
				Scheme:       name,
				LongSources:  2,
				ShortSources: 2,
				DurationMs:   120,
				Epochs:       1,
				ShortKB:      5,
			}
			raw, err := json.Marshal(fs)
			if err != nil {
				t.Fatal(err)
			}
			parsed, err := ParseSpec(raw)
			if err != nil {
				t.Fatalf("round-trip parse: %v", err)
			}
			run, err := parsed.Scenario().RunContext(context.Background())
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if run.Events == 0 {
				t.Fatal("scheme ran no events")
			}
			if want := Scheme(name).String(); run.Label != want {
				t.Fatalf("label = %q, want %q", run.Label, want)
			}
			if run.ShortAll == 0 {
				t.Fatal("no short flows launched")
			}
		})
	}
}
