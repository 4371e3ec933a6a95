package scenario

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hwatch/internal/faults"
	"hwatch/internal/netem"
	"hwatch/internal/sim"
)

// chaosParams is the small dumbbell every fault test here runs: large
// enough to congest, small enough to finish in well under a second of
// simulated time.
func chaosParams(seed int64) DumbbellParams {
	p := PaperDumbbell(5, 5)
	p.Seed = seed
	p.ByteBuffers = true
	p.Duration = 400 * sim.Millisecond
	p.DrainAfter = 600 * sim.Millisecond
	p.Epochs = 2
	return p
}

// blackoutSchedule is the issue's acceptance scenario: ECN goes dark
// mid-run, the shims crash and restart inside the dark window, and probes
// black out around the restart.
func blackoutSchedule() faults.Schedule {
	return faults.Schedule{
		{Kind: faults.ECNBlackhole, At: 100 * sim.Millisecond, Until: 260 * sim.Millisecond},
		{Kind: faults.ShimCrash, At: 140 * sim.Millisecond},
		{Kind: faults.ShimRestart, At: 180 * sim.Millisecond},
		{Kind: faults.ProbeBlackout, At: 180 * sim.Millisecond, Until: 240 * sim.Millisecond},
	}
}

// TestChaosRunRecoversAndRepeats is the acceptance test: a dumbbell run
// with a mid-run ECN blackhole plus shim crash completes every flow after
// the faults clear, and repeating the run reproduces the digest bit for
// bit.
func TestChaosRunRecoversAndRepeats(t *testing.T) {
	spec := func() *Spec {
		return &Spec{
			Kind:     KindDumbbell,
			Schemes:  []Share{{Scheme: HWatch}},
			Dumbbell: chaosParams(11),
			Faults:   blackoutSchedule(),
		}
	}
	r1, err := spec().RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.InvariantViolations) != 0 {
		t.Fatalf("recovery violations: %v", r1.InvariantViolations)
	}
	if r1.ShortDone != r1.ShortAll {
		t.Fatalf("short flows: %d/%d completed after faults cleared", r1.ShortDone, r1.ShortAll)
	}
	if r1.ShimStats == nil {
		t.Fatal("no shim stats on an hwatch run")
	}
	if r1.ShimStats.Crashes == 0 || r1.ShimStats.Restarts == 0 {
		t.Fatalf("faults did not reach the shims: %+v", r1.ShimStats)
	}

	r2, err := spec().RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Digest() != r2.Digest() {
		t.Fatalf("chaos run is non-deterministic: %s vs %s", r1.DigestHex(), r2.DigestHex())
	}
}

// TestFaultsPerturbTheDigest: the canary direction — a fault schedule must
// change the measured outcome, or the injector is wired to nothing.
func TestFaultsPerturbTheDigest(t *testing.T) {
	base := &Spec{Kind: KindDumbbell, Schemes: []Share{{Scheme: HWatch}}, Dumbbell: chaosParams(11)}
	clean, err := base.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	faulty := &Spec{Kind: KindDumbbell, Schemes: []Share{{Scheme: HWatch}},
		Dumbbell: chaosParams(11), Faults: blackoutSchedule()}
	chaos, err := faulty.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if clean.Digest() == chaos.Digest() {
		t.Fatal("fault schedule left the digest untouched — injector not reaching the fabric")
	}
}

// TestChaosAcrossSchemes: the same schedule must arm on shimless schemes
// too (shim events become no-ops), so one timeline chaos-tests everything.
func TestChaosAcrossSchemes(t *testing.T) {
	for _, scheme := range []Scheme{DropTail, DCTCP} {
		s := &Spec{Kind: KindDumbbell, Schemes: []Share{{Scheme: scheme}},
			Dumbbell: chaosParams(11), Faults: blackoutSchedule()}
		run, err := s.RunContext(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if len(run.InvariantViolations) != 0 {
			t.Fatalf("%s: %v", scheme, run.InvariantViolations)
		}
	}
}

// TestPermanentLinkDownIsCaught: a LinkDown that never lifts strands the
// finite flows, and the RecoveryObserver must say so.
func TestPermanentLinkDownIsCaught(t *testing.T) {
	s := &Spec{
		Kind:     KindDumbbell,
		Schemes:  []Share{{Scheme: DropTail}},
		Dumbbell: chaosParams(11),
		Faults:   faults.Schedule{{Kind: faults.LinkDown, At: 50 * sim.Millisecond}},
	}
	run, err := s.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(run.InvariantViolations) == 0 {
		t.Fatal("permanent bottleneck failure produced no recovery violations")
	}
	joined := strings.Join(run.InvariantViolations, "\n")
	if !strings.Contains(joined, "recovery:") {
		t.Fatalf("violations are not recovery findings: %v", run.InvariantViolations)
	}
	// Violations are observability, not outcome: they must not shift the
	// digest relative to a second identical broken run.
	run2, err := s.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if run.Digest() != run2.Digest() {
		t.Fatal("violating run is non-deterministic")
	}
}

// TestArmErrorSurfacesFromRun: a schedule naming a missing target fails
// the run with a descriptive error instead of running fault-free.
func TestArmErrorSurfacesFromRun(t *testing.T) {
	s := &Spec{
		Kind:     KindDumbbell,
		Schemes:  []Share{{Scheme: HWatch}},
		Dumbbell: chaosParams(11),
		Faults:   faults.Schedule{{Kind: faults.LinkDown, At: 1, Target: "nosuch"}},
	}
	_, err := s.RunContext(context.Background())
	if err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Fatalf("bad fault target not surfaced: %v", err)
	}
}

func TestRenderFaultsConvertsAndValidates(t *testing.T) {
	sched, err := RenderFaults([]FaultSpec{
		{Kind: "link-down", AtMs: 120},
		{Kind: "link-up", AtMs: 124},
		{Kind: "burst-loss", AtMs: 250, UntilMs: 270, PGoodBad: 0.05, PBadGood: 0.5, LossBad: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) != 3 {
		t.Fatalf("rendered %d events", len(sched))
	}
	if sched[0].At != 120*sim.Millisecond || sched[2].Until != 270*sim.Millisecond {
		t.Fatalf("ms not converted to engine ns: %+v", sched)
	}
	if sched[2].GE != (netem.GEParams{GoodToBad: 0.05, BadToGood: 0.5, LossBad: 1}) {
		t.Fatalf("GE params lost: %+v", sched[2].GE)
	}

	for name, bad := range map[string][]FaultSpec{
		"unknown kind": {{Kind: "meteor", AtMs: 1}},
		"nan time":     {{Kind: "link-down", AtMs: nan()}},
		"huge time":    {{Kind: "link-down", AtMs: 1e12}},
		"neg time":     {{Kind: "link-down", AtMs: -5}},
		"bad window":   {{Kind: "ecn-blackhole", AtMs: 10, UntilMs: 5}},
		"bad ge":       {{Kind: "burst-loss", AtMs: 1, UntilMs: 2, PGoodBad: 2, LossBad: 1}},
	} {
		if _, err := RenderFaults(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func nan() float64 {
	z := 0.0
	return z / z
}

// TestSpecFileWithFaults: the JSON path end to end — parse, render, run a
// tiny faulted scenario, and reject bad fault blocks at load time.
func TestSpecFileWithFaults(t *testing.T) {
	raw := []byte(`{
		"kind": "dumbbell", "scheme": "hwatch",
		"long_sources": 2, "short_sources": 2,
		"duration_ms": 200, "drain_after_ms": 400, "epochs": 1,
		"faults": [
			{"kind": "link-down", "at_ms": 50},
			{"kind": "link-up", "at_ms": 54},
			{"kind": "probe-blackout", "at_ms": 60, "until_ms": 90}
		]
	}`)
	fs, err := ParseSpec(raw)
	if err != nil {
		t.Fatal(err)
	}
	sc := fs.Scenario()
	if len(sc.Faults) != 3 {
		t.Fatalf("spec rendered %d fault events, want 3", len(sc.Faults))
	}
	if sc.Dumbbell.DrainAfter != 400*sim.Millisecond {
		t.Fatalf("drain_after_ms lost: %d", sc.Dumbbell.DrainAfter)
	}
	run, err := sc.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(run.InvariantViolations) != 0 {
		t.Fatalf("violations: %v", run.InvariantViolations)
	}

	if _, err := ParseSpec([]byte(`{"kind":"dumbbell","scheme":"hwatch",
		"faults":[{"kind":"warp-core-breach","at_ms":1}]}`)); err == nil {
		t.Fatal("bad fault kind accepted at parse time")
	}
	if _, err := ParseSpec([]byte(`{"kind":"dumbbell","scheme":"hwatch",
		"faults":[{"kind":"burst-loss","at_ms":1,"until_ms":2}]}`)); err == nil {
		t.Fatal("dropless burst-loss accepted at parse time")
	}
}

// recurringChaosSchedule exercises the full impairment matrix plus a
// recurring random-target flap in one timeline — the schedule the
// recovery invariants must hold under.
func recurringChaosSchedule() faults.Schedule {
	return faults.Schedule{
		{Kind: faults.LinkDown, At: 80 * sim.Millisecond, Pick: 2,
			Recur: &faults.Recurrence{Interval: 60 * sim.Millisecond, Duration: 3 * sim.Millisecond,
				Jitter: 8 * sim.Millisecond, Count: 4}},
		// The windows are staggered, not stacked: corruption collapses
		// throughput while it lasts, so an impairment window buried inside
		// the collapse would see no traffic to impair.
		{Kind: faults.Corrupt, At: 100 * sim.Millisecond, Until: 180 * sim.Millisecond,
			Impair: faults.ImpairParams{Prob: 0.02, DropFrac: 0.5}},
		{Kind: faults.Duplicate, At: 180 * sim.Millisecond, Until: 260 * sim.Millisecond,
			Impair: faults.ImpairParams{Prob: 0.05, Copies: 2, Egress: true}},
		{Kind: faults.Reorder, At: 260 * sim.Millisecond, Until: 340 * sim.Millisecond,
			Impair: faults.ImpairParams{Prob: 0.05, Hold: 2 * sim.Millisecond}},
		{Kind: faults.Jitter, At: 340 * sim.Millisecond, Until: 390 * sim.Millisecond,
			Impair: faults.ImpairParams{Dist: "pareto", Delay: 100 * sim.Microsecond, Jitter: 50 * sim.Microsecond}},
	}
}

// TestRecurringChaosShardParity is the PR's acceptance test: the full
// chaos matrix under a recurring flap must (a) leave every recovery
// invariant intact, (b) digest identically at 1, 2 and 4 shards, and
// (c) report identical impairment counters everywhere — arming and
// random target selection are partition-independent by construction.
func TestRecurringChaosShardParity(t *testing.T) {
	type outcome struct {
		digest string
		stats  netem.ImpairStats
	}
	run := func(shards int) outcome {
		s := &Spec{
			Kind:     KindDumbbell,
			Schemes:  []Share{{Scheme: HWatch}},
			Dumbbell: chaosParams(19),
			Faults:   recurringChaosSchedule(),
			Shards:   shards,
		}
		r, err := s.RunContext(context.Background())
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if len(r.InvariantViolations) != 0 {
			t.Fatalf("shards=%d: recovery violations: %v", shards, r.InvariantViolations)
		}
		if r.ShortDone != r.ShortAll {
			t.Fatalf("shards=%d: %d/%d short flows after chaos cleared", shards, r.ShortDone, r.ShortAll)
		}
		if r.ChaosStats == nil {
			t.Fatalf("shards=%d: no chaos stats on an impaired run", shards)
		}
		return outcome{r.DigestHex(), *r.ChaosStats}
	}
	base := run(1)
	if base.stats.Corrupted == 0 || base.stats.Duplicated == 0 || base.stats.Reordered == 0 || base.stats.Jittered == 0 {
		t.Fatalf("chaos matrix left counters untouched: %+v", base.stats)
	}
	if base.stats.Held != 0 {
		t.Fatalf("hold buffer retains %d packets after drain", base.stats.Held)
	}
	for _, shards := range []int{2, 4} {
		got := run(shards)
		if got.digest != base.digest {
			t.Errorf("digest %s at %d shards, %s at 1", got.digest, shards, base.digest)
		}
		if got.stats != base.stats {
			t.Errorf("impair stats diverge at %d shards: %+v vs %+v", shards, got.stats, base.stats)
		}
	}
}

// TestRenderFaultsImpairAndRecurrence: the operator-unit JSON fields
// reach the engine-ready schedule converted, not truncated.
func TestRenderFaultsImpairAndRecurrence(t *testing.T) {
	sched, err := RenderFaults([]FaultSpec{
		{Kind: "reorder", AtMs: 10, UntilMs: 20, Prob: 0.1, HoldUs: 500, Egress: true},
		{Kind: "jitter", AtMs: 30, UntilMs: 40, Dist: "pareto", DelayUs: 100, JitterUs: 50, Shape: 2},
		{Kind: "rate-limit", AtMs: 50, UntilMs: 60, RateMbps: 500, BurstKB: 16},
		{Kind: "link-down", AtMs: 80, Count: 4, EveryMs: 60, ForMs: 3, JitterMs: 8, Pick: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := sched[0].Impair; got.Hold != 500*sim.Microsecond || !got.Egress {
		t.Fatalf("reorder knobs lost: %+v", got)
	}
	if got := sched[1].Impair; got.Delay != 100*sim.Microsecond || got.Jitter != 50*sim.Microsecond ||
		got.Dist != "pareto" || got.Shape != 2 {
		t.Fatalf("jitter knobs lost: %+v", got)
	}
	if got := sched[2].Impair; got.RateBps != 500e6 || got.Burst != 16*1024 {
		t.Fatalf("rate knobs lost: %+v", got)
	}
	r := sched[3].Recur
	if r == nil || r.Count != 4 || r.Interval != 60*sim.Millisecond ||
		r.Duration != 3*sim.Millisecond || r.Jitter != 8*sim.Millisecond {
		t.Fatalf("recurrence lost: %+v", r)
	}
	if sched[3].Pick != 2 {
		t.Fatalf("pick lost: %d", sched[3].Pick)
	}

	for name, bad := range map[string][]FaultSpec{
		"prob out of range": {{Kind: "corrupt", AtMs: 1, UntilMs: 2, Prob: 1.5}},
		"neg hold":          {{Kind: "reorder", AtMs: 1, UntilMs: 2, Prob: 0.1, HoldUs: -1}},
		"bad dist":          {{Kind: "jitter", AtMs: 1, UntilMs: 2, Dist: "bimodal", DelayUs: 10}},
		"until with recur":  {{Kind: "link-down", AtMs: 1, UntilMs: 2, Count: 2, EveryMs: 10, ForMs: 1}},
		"target and pick":   {{Kind: "link-down", AtMs: 1, Target: "x", Pick: 1}},
		"every_ms, count 0": {{Kind: "link-down", AtMs: 1, EveryMs: 10, ForMs: 1}},
		"every_ms, count 1": {{Kind: "link-down", AtMs: 1, Count: 1, EveryMs: 10, ForMs: 1}},
	} {
		if _, err := RenderFaults(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestEveryFaultFieldMovesTheRun walks FaultSpec's fields for every fault
// kind. A field the kind's row lists must move the run when perturbed
// from a valid base; any other field must be rejected with an error
// naming the field and the kind. Accepted and ignored, a field would move
// the content address of a run it does not change, and re-seed a spec
// without a seed.
func TestEveryFaultFieldMovesTheRun(t *testing.T) {
	common := map[string]bool{"kind": true, "at_ms": true, "until_ms": true, "target": true,
		"every_ms": true, "for_ms": true, "jitter_ms": true, "count": true, "pick": true}
	// One valid event body per kind, and a valid new value per field.
	const window = `"at_ms":20,"until_ms":120`
	base := map[faults.Kind]string{
		faults.LinkDown: `"at_ms":40`, faults.LinkUp: `"at_ms":40`,
		faults.ShimCrash: `"at_ms":40`, faults.ShimRestart: `"at_ms":40`,
		faults.ECNBlackhole: window, faults.ProbeBlackout: window,
		faults.BurstLoss: window + `,"p_good_bad":0.05,"p_bad_good":0.5,"loss_bad":1`,
		faults.Corrupt:   window + `,"prob":0.02,"drop_frac":0.5`,
		faults.Duplicate: window + `,"prob":0.05,"copies":1`,
		faults.Reorder:   window + `,"prob":0.05,"hold_us":2000`,
		faults.Jitter:    window + `,"dist":"pareto","delay_us":100,"jitter_us":50`,
		faults.RateLimit: window + `,"rate_mbps":2000,"burst_kb":32`,
	}
	perturb := map[string]string{
		"p_good_bad": "0.3", "p_bad_good": "0.1", "loss_good": "0.05", "loss_bad": "0.5",
		"prob": "0.3", "drop_frac": "1", "copies": "3", "hold_us": "500",
		"dist": `"normal"`, "delay_us": "300", "jitter_us": "150", "shape": "3",
		"rate_mbps": "500", "burst_kb": "4", "egress": "true",
	}
	parse := func(fault string) (*FileSpec, error) {
		return ParseSpec([]byte(`{"kind":"dumbbell","scheme":"hwatch","long_sources":2,"short_sources":2,` +
			`"duration_ms":150,"seed":5,"faults":[` + fault + `]}`))
	}
	digest := func(fault string) string {
		t.Helper()
		s, err := parse(fault)
		if err != nil {
			t.Fatalf("%s: %v", fault, err)
		}
		run, err := s.Scenario().RunContext(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", fault, err)
		}
		return run.DigestHex()
	}

	var fields []string
	ft := reflect.TypeOf(FaultSpec{})
	for i := 0; i < ft.NumField(); i++ {
		if name, _, _ := strings.Cut(ft.Field(i).Tag.Get("json"), ","); !common[name] {
			fields = append(fields, name)
		}
	}
	for _, info := range faults.Infos() {
		k := string(info.Kind)
		for _, f := range info.Fields {
			if !slices.Contains(fields, f) {
				t.Errorf("%s lists %q, which is no optional FaultSpec field", k, f)
			}
		}
		event := func(extra string) string { return `{"kind":"` + k + `",` + base[info.Kind] + extra + `}` }
		var baseDigest string
		for _, f := range fields {
			probe := event(`,"` + f + `":` + perturb[f])
			if !slices.Contains(info.Fields, f) {
				_, err := parse(probe)
				if err == nil || !strings.Contains(err.Error(), f) || !strings.Contains(err.Error(), k) {
					t.Errorf("%s: error %v, want one naming %s and %s", probe, err, f, k)
				}
				continue
			}
			if baseDigest == "" {
				baseDigest = digest(event(""))
			}
			if digest(probe) == baseDigest {
				t.Errorf("%s: %s leaves the run at %s", k, f, baseDigest)
			}
		}
	}
	// shape shapes only the pareto distribution.
	probe := `{"kind":"jitter",` + window + `,"dist":"normal","delay_us":100,"jitter_us":50,"shape":3}`
	if _, err := parse(probe); err == nil || !strings.Contains(err.Error(), "shape") || !strings.Contains(err.Error(), "jitter") {
		t.Errorf("%s: error %v, want one naming shape and jitter", probe, err)
	}
}
