package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"hwatch/internal/faults"
	"hwatch/internal/harness"
	"hwatch/internal/sim"
)

// FileSpec is the JSON description of a runnable scenario, so operators
// can keep experiment configurations in files (cmd/hwatchsim -spec
// run.json). Durations are in microseconds, rates in Gb/s — the units
// operators think in — and converted on Load. Scheme names resolve
// against the registry, so registered extension schemes work from files
// with no loader changes.
type FileSpec struct {
	// Kind selects the topology: "dumbbell" or "testbed".
	Kind string `json:"kind"`
	// Scheme is a registered scheme name ("" = droptail). Run
	// `hwatchsim -list-schemes` for the full set.
	Scheme string `json:"scheme"`
	// Mix, when non-empty, runs several schemes side by side on the
	// dumbbell (Fig. 2 tenancy): sender hosts cycle through the
	// share-weighted scheme pattern. Scheme is ignored when Mix is set.
	Mix []MixEntry `json:"mix,omitempty"`
	// WithShims overlays an HWatch shim on every host over whatever
	// scheme(s) run (the MIX+HWatch extension).
	WithShims bool `json:"with_shims,omitempty"`

	// Dumbbell knobs.
	LongSources    int     `json:"long_sources,omitempty"`
	ShortSources   int     `json:"short_sources,omitempty"`
	BottleneckGbps float64 `json:"bottleneck_gbps,omitempty"`
	BufferPkts     int     `json:"buffer_pkts,omitempty"`
	MarkPercent    float64 `json:"mark_percent,omitempty"`
	RTTMicros      int64   `json:"rtt_us,omitempty"`
	ICW            int     `json:"icw,omitempty"`
	DurationMs     int64   `json:"duration_ms,omitempty"`
	DrainAfterMs   int64   `json:"drain_after_ms,omitempty"`
	Epochs         int     `json:"epochs,omitempty"`
	ShortKB        float64 `json:"short_kb,omitempty"`
	ByteBuffers    *bool   `json:"byte_buffers,omitempty"`
	Seed           int64   `json:"seed,omitempty"`

	// Testbed knobs (defaults from PaperTestbed when zero).
	Racks        int `json:"racks,omitempty"`
	HostsPerRack int `json:"hosts_per_rack,omitempty"`
	Parallel     int `json:"parallel,omitempty"`

	// Faults is a deterministic fault timeline (times in ms) armed on the
	// run's fabric; see FaultSpec. Non-empty schedules also arm the shim
	// degradation fallbacks and the recovery invariants.
	Faults []FaultSpec `json:"faults,omitempty"`

	// Check enables the physical-invariant checker for the run.
	Check bool `json:"check,omitempty"`

	// Shards partitions the fabric across engine shards (0/1 = the
	// single-loop engine, or whatever -shards set). Like Check it is an
	// execution detail: it never moves the run's derived seed or digest.
	Shards int `json:"shards,omitempty"`
}

// MixEntry is one tenant population in a mixed-scheme dumbbell spec.
type MixEntry struct {
	Scheme string `json:"scheme"`
	Share  int    `json:"share,omitempty"`
}

// identity is the canonical string hashed into derived seeds when the spec
// names none. Check is observability and Shards is execution parallelism,
// not scenario, so both are excluded — checking or sharding a run must not
// move its seed.
func (s *FileSpec) identity() string {
	c := *s
	c.Check = false
	c.Shards = 0
	b, err := json.Marshal(&c)
	if err != nil {
		return s.Kind + "/" + s.Scheme
	}
	return string(b)
}

// LoadSpec reads and validates a FileSpec from a JSON file.
func LoadSpec(path string) (*FileSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading spec: %w", err)
	}
	return ParseSpec(raw)
}

// ParseSpec validates a FileSpec from JSON bytes. Unknown scheme names —
// in Scheme or any Mix entry — are rejected with an error listing the
// registered names; there is no silent fallback.
func ParseSpec(raw []byte) (*FileSpec, error) {
	var s FileSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("parsing spec: %w", err)
	}
	switch s.Kind {
	case "dumbbell", "testbed":
	default:
		return nil, fmt.Errorf("spec kind %q: want dumbbell or testbed", s.Kind)
	}
	if len(s.Mix) > 0 {
		if s.Kind != "dumbbell" {
			return nil, fmt.Errorf("spec mix: only dumbbell specs take a scheme mix")
		}
		for _, m := range s.Mix {
			if err := checkSchemeName(m.Scheme); err != nil {
				return nil, err
			}
		}
	} else if err := checkSchemeName(s.Scheme); err != nil {
		return nil, err
	}
	if s.BottleneckGbps < 0 || s.BufferPkts < 0 || s.MarkPercent < 0 || s.MarkPercent > 100 {
		return nil, fmt.Errorf("spec has out-of-range fabric parameters")
	}
	if s.Kind == "testbed" && s.Racks != 0 && s.Racks < 2 {
		return nil, fmt.Errorf("spec racks %d: the testbed needs at least 2 (server racks plus the client rack)", s.Racks)
	}
	if s.DrainAfterMs < 0 {
		return nil, fmt.Errorf("spec drain_after_ms %d: must be >= 0", s.DrainAfterMs)
	}
	// Render the fault timeline once so bad kinds, windows and channel
	// parameters fail at load time with a line-item error, not mid-run.
	if _, err := RenderFaults(s.Faults); err != nil {
		return nil, fmt.Errorf("spec faults: %w", err)
	}
	return &s, nil
}

func checkSchemeName(name string) error {
	if name == "" {
		return nil // defaults to droptail
	}
	if _, ok := Lookup(name); !ok {
		return fmt.Errorf("unknown scheme %q: registered schemes are %s",
			name, strings.Join(Names(), ", "))
	}
	return nil
}

func schemeOrDefault(name string) Scheme {
	if name == "" {
		return DropTail
	}
	return Scheme(name)
}

// Scenario converts the file form into the runnable Spec; run it with
// Scenario().RunContext(ctx).
func (s *FileSpec) Scenario() *Spec {
	sc := &Spec{Shards: s.Shards}
	switch s.Kind {
	case "dumbbell":
		sc.Kind = KindDumbbell
		if len(s.Mix) > 0 {
			for _, m := range s.Mix {
				sc.Schemes = append(sc.Schemes, Share{Scheme: Scheme(m.Scheme), Share: m.Share})
			}
			if s.WithShims {
				sc.Label = "MIX+HWatch"
			}
		} else {
			sc.Schemes = []Share{{Scheme: schemeOrDefault(s.Scheme)}}
		}
		sc.ShimOverlay = s.WithShims
		sc.Dumbbell = s.dumbbellParams()
	case "testbed":
		sc.Kind = KindTestbed
		sc.Schemes = []Share{{Scheme: schemeOrDefault(s.Scheme)}}
		// Keep the labels the testbed figures always printed; extension
		// schemes print their registered label.
		switch s.Scheme {
		case "hwatch":
			sc.Label = "TCP-HWatch"
		case "", "droptail":
			sc.Label = "TCP"
		default:
			sc.Label = Scheme(s.Scheme).String()
		}
		sc.Testbed = s.testbedParams()
	}
	if len(s.Faults) > 0 {
		// ParseSpec already validated the schedule; a hand-built FileSpec
		// with a broken one still fails cleanly when the run arms it.
		sc.Faults, _ = RenderFaults(s.Faults)
		if sc.Faults == nil {
			sc.Faults = faults.Schedule{{Kind: "invalid"}} // force the arm-time error
		}
	}
	return sc
}

func (s *FileSpec) dumbbellParams() DumbbellParams {
	p := PaperDumbbell(orInt(s.LongSources, 25), orInt(s.ShortSources, 25))
	if s.BottleneckGbps > 0 {
		p.BottleneckBps = int64(s.BottleneckGbps * 1e9)
		p.EdgeBps = p.BottleneckBps
	}
	if s.BufferPkts > 0 {
		p.BufferPkts = s.BufferPkts
	}
	if s.MarkPercent > 0 {
		p.MarkFrac = s.MarkPercent / 100
	}
	if s.RTTMicros > 0 {
		p.LinkDelay = s.RTTMicros * sim.Microsecond / 4
	}
	if s.ICW > 0 {
		p.ICW = s.ICW
	}
	if s.DurationMs > 0 {
		p.Duration = s.DurationMs * sim.Millisecond
	}
	if s.DrainAfterMs > 0 {
		p.DrainAfter = s.DrainAfterMs * sim.Millisecond
	}
	if s.Epochs > 0 {
		p.Epochs = s.Epochs
	}
	if s.ShortKB > 0 {
		p.ShortSize = int64(s.ShortKB * 1000)
	}
	if s.ByteBuffers != nil {
		p.ByteBuffers = *s.ByteBuffers
	} else {
		p.ByteBuffers = true
	}
	if s.Seed != 0 {
		p.Seed = s.Seed
	} else {
		// No explicit seed: derive one from the spec itself, so distinct
		// scenarios draw independent randomness while the same file always
		// reruns identically.
		p.Seed = harness.SeedFor(s.identity(), p.Seed)
	}
	p.Check = s.Check
	return p
}

func (s *FileSpec) testbedParams() TestbedParams {
	p := PaperTestbed()
	if s.Racks > 0 {
		p.Racks = s.Racks
	}
	if s.HostsPerRack > 0 {
		p.HostsPerRack = s.HostsPerRack
		// The paper's per-rack role counts cannot exceed the rack size.
		if p.WebServers > p.HostsPerRack {
			p.WebServers = p.HostsPerRack
		}
		if p.WebClients > p.HostsPerRack {
			p.WebClients = p.HostsPerRack
		}
	}
	if s.Parallel > 0 {
		p.Parallel = s.Parallel
	}
	if s.Epochs > 0 {
		p.Epochs = s.Epochs
		p.Duration = p.FirstEpoch + int64(p.Epochs)*p.EpochInterval
	}
	if s.DurationMs > 0 {
		p.Duration = s.DurationMs * sim.Millisecond
	}
	if s.Seed != 0 {
		p.Seed = s.Seed
	} else {
		p.Seed = harness.SeedFor(s.identity(), p.Seed)
	}
	p.Check = s.Check
	return p
}

func orInt(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}
