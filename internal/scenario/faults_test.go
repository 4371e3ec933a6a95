package scenario

import (
	"context"
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
		{Kind: "reorder", AtMs: 10, UntilMs: 20, Prob: 0.1, HoldUs: 500},
		{Kind: "jitter", AtMs: 30, UntilMs: 40, Dist: "pareto", DelayUs: 100, JitterUs: 50, Shape: 2},
		{Kind: "rate-limit", AtMs: 50, UntilMs: 60, RateMbps: 500, BurstKB: 16, Egress: true},
		{Kind: "link-down", AtMs: 80, Count: 4, EveryMs: 60, ForMs: 3, JitterMs: 8, Pick: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := sched[0].Impair.Hold; got != 500*sim.Microsecond {
		t.Fatalf("hold_us: %d", got)
	}
	if got := sched[1].Impair; got.Delay != 100*sim.Microsecond || got.Jitter != 50*sim.Microsecond ||
		got.Dist != "pareto" || got.Shape != 2 {
		t.Fatalf("jitter knobs lost: %+v", got)
	}
	if got := sched[2].Impair; got.RateBps != 500e6 || got.Burst != 16*1024 || !got.Egress {
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
	} {
		if _, err := RenderFaults(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
