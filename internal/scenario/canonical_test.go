package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

func mustDigest(t *testing.T, raw string) string {
	t.Helper()
	s, err := ParseSpec([]byte(raw))
	if err != nil {
		t.Fatalf("ParseSpec(%s): %v", raw, err)
	}
	d, err := s.CanonicalDigest()
	if err != nil {
		t.Fatalf("CanonicalDigest(%s): %v", raw, err)
	}
	return d
}

// TestCanonicalDigestFormattingInvariant: key order, whitespace and the
// excluded execution details (check, shards) never move the digest.
func TestCanonicalDigestFormattingInvariant(t *testing.T) {
	base := mustDigest(t, `{"kind":"dumbbell","scheme":"hwatch","duration_ms":100,"seed":7}`)
	for _, variant := range []string{
		`{"seed":7,"duration_ms":100,"scheme":"hwatch","kind":"dumbbell"}`,
		"{\n  \"kind\": \"dumbbell\",\n  \"scheme\": \"hwatch\",\n  \"duration_ms\": 100,\n  \"seed\": 7\n}",
		`{"kind":"dumbbell","scheme":"hwatch","duration_ms":100,"seed":7,"check":true}`,
		`{"kind":"dumbbell","scheme":"hwatch","duration_ms":100,"seed":7,"shards":4}`,
	} {
		if got := mustDigest(t, variant); got != base {
			t.Errorf("digest moved on a cosmetic/execution-detail variant:\n%s\n%s vs %s", variant, got, base)
		}
	}
}

// TestCanonicalDigestSeedScope: with an explicit seed, spelling out a
// default parameter is canonical-equal to omitting it (the runs are
// identical); without one, the spelled-out spec derives a different seed,
// so the canonical forms — like the runs — must differ.
func TestCanonicalDigestSeedScope(t *testing.T) {
	explicit := mustDigest(t, `{"kind":"dumbbell","scheme":"hwatch","seed":42}`)
	explicitSpelled := mustDigest(t, `{"kind":"dumbbell","scheme":"hwatch","seed":42,"long_sources":25}`)
	if explicit != explicitSpelled {
		t.Errorf("explicit-seed specs with identical materialization digest differently: %s vs %s",
			explicit, explicitSpelled)
	}

	derived := mustDigest(t, `{"kind":"dumbbell","scheme":"hwatch"}`)
	derivedSpelled := mustDigest(t, `{"kind":"dumbbell","scheme":"hwatch","long_sources":25}`)
	if derived == derivedSpelled {
		t.Error("derived-seed specs with different identities digest identically — the cache would alias different runs")
	}
}

// TestCanonicalDigestDistinguishes: changes that change the simulation
// change the digest.
func TestCanonicalDigestDistinguishes(t *testing.T) {
	base := mustDigest(t, `{"kind":"dumbbell","scheme":"hwatch","seed":7}`)
	for _, variant := range []string{
		`{"kind":"dumbbell","scheme":"dctcp","seed":7}`,
		`{"kind":"dumbbell","scheme":"hwatch","seed":8}`,
		`{"kind":"dumbbell","scheme":"hwatch","seed":7,"long_sources":10}`,
		`{"kind":"testbed","scheme":"hwatch","seed":7}`,
		`{"kind":"dumbbell","scheme":"hwatch","seed":7,"with_shims":true}`,
		`{"kind":"dumbbell","scheme":"hwatch","seed":7,"faults":[{"kind":"link-down","at_ms":50},{"kind":"link-up","at_ms":60}]}`,
	} {
		if got := mustDigest(t, variant); got == base {
			t.Errorf("variant digests identically to base:\n%s", variant)
		}
	}
}

// TestCanonicalDigestFaults: the fault timeline is canonicalized from its
// rendered form — cosmetic reordering of JSON keys inside an event is
// invisible, moving an event is not.
func TestCanonicalDigestFaults(t *testing.T) {
	a := mustDigest(t, `{"kind":"dumbbell","scheme":"hwatch","seed":7,"faults":[{"kind":"burst-loss","at_ms":50,"until_ms":70,"loss_bad":1,"p_good_bad":0.05,"p_bad_good":0.5}]}`)
	b := mustDigest(t, `{"kind":"dumbbell","scheme":"hwatch","seed":7,"faults":[{"p_good_bad":0.05,"p_bad_good":0.5,"loss_bad":1,"until_ms":70,"at_ms":50,"kind":"burst-loss"}]}`)
	if a != b {
		t.Errorf("fault key order moved the digest: %s vs %s", a, b)
	}
	c := mustDigest(t, `{"kind":"dumbbell","scheme":"hwatch","seed":7,"faults":[{"kind":"burst-loss","at_ms":51,"until_ms":70,"loss_bad":1,"p_good_bad":0.05,"p_bad_good":0.5}]}`)
	if a == c {
		t.Error("moving a fault event did not move the digest")
	}
}

// TestCanonicalDigestRejectsInvalid: validation runs before digesting, for
// hand-built specs too.
func TestCanonicalDigestRejectsInvalid(t *testing.T) {
	for _, s := range []*FileSpec{
		{Kind: "ring"},
		{Kind: "dumbbell", Scheme: "no-such-scheme"},
		{Kind: "dumbbell", MarkPercent: 200},
	} {
		if _, err := s.CanonicalDigest(); err == nil {
			t.Errorf("invalid spec %+v digested without error", s)
		}
	}
}

// seenDigests records, across the whole fuzz run, the materialized
// signature first seen for each digest; a second signature under the same
// digest is a collision between specs that run different simulations.
var seenDigests sync.Map

// materializedSig captures everything that determines a spec's simulation:
// kind, scheme pattern, shim overlay, effective parameters (execution
// details zeroed, matching the canonical scope) and the rendered faults.
func materializedSig(s *FileSpec) string {
	var params any
	switch s.Kind {
	case "dumbbell":
		p := s.dumbbellParams()
		p.Check = false
		params = p
	case "testbed":
		p := s.testbedParams()
		p.Check = false
		params = p
	}
	sched, _ := RenderFaults(s.Faults)
	return fmt.Sprintf("%s|%v|%v|%s|%+v|%+v", s.Kind, s.WithShims, s.Mix, s.Scheme, params, sched)
}

// FuzzSpecCanonicalDigest: decode → canonicalize → digest never panics;
// the digest is invariant under JSON key reordering and whitespace; and
// distinct materialized specs never collide on anything the fuzzer finds.
func FuzzSpecCanonicalDigest(f *testing.F) {
	f.Add([]byte(`{"kind":"dumbbell","scheme":"hwatch"}`))
	f.Add([]byte(`{"kind":"dumbbell","scheme":"dctcp","seed":42,"long_sources":25}`))
	f.Add([]byte(`{"kind":"dumbbell","mix":[{"scheme":"dctcp"},{"scheme":"reno-deaf","share":2}],"with_shims":true}`))
	f.Add([]byte(`{"kind":"testbed","scheme":"hwatch","racks":2,"hosts_per_rack":4,"parallel":2,"epochs":1}`))
	f.Add([]byte(`{"kind":"dumbbell","scheme":"hwatch","seed":7,"faults":[{"kind":"link-down","at_ms":50},{"kind":"link-up","at_ms":60}]}`))
	f.Add([]byte(`{"kind":"dumbbell","scheme":"hwatch","check":true,"shards":4}`))
	f.Add([]byte(`{"seed":9,"duration_ms":80,  "scheme":"hwatch","kind":"dumbbell"}`))
	f.Add([]byte(`{"kind":"dumbbell","scheme":"hwatch","bottleneck_gbps":1.5,"mark_percent":12.5,"short_kb":7.25}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := ParseSpec(raw)
		if err != nil {
			return
		}
		digest, err := s.CanonicalDigest()
		if err != nil {
			t.Fatalf("accepted spec failed to digest: %v\nraw: %s", err, raw)
		}
		if len(digest) != 64 {
			t.Fatalf("digest %q is not 64 hex chars", digest)
		}

		// Reformat the raw JSON generically (sorted keys, no whitespace,
		// numbers preserved via json.Number) — the digest must not move.
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.UseNumber()
		var v any
		if err := dec.Decode(&v); err == nil {
			if re, err := json.Marshal(v); err == nil {
				s2, err := ParseSpec(re)
				if err != nil {
					t.Fatalf("reformatted spec no longer parses: %v\nraw: %s\nre: %s", err, raw, re)
				}
				d2, err := s2.CanonicalDigest()
				if err != nil {
					t.Fatalf("reformatted spec failed to digest: %v", err)
				}
				if d2 != digest {
					t.Fatalf("digest moved on reformat:\nraw: %s → %s\nre:  %s → %s", raw, digest, re, d2)
				}
			}
		}

		// Distinct materialized specs must never share a digest.
		sig := materializedSig(s)
		if prev, loaded := seenDigests.LoadOrStore(digest, sig); loaded && prev.(string) != sig {
			t.Fatalf("digest collision %s:\nfirst: %s\n  now: %s", digest, prev, sig)
		}
	})
}
