package experiments

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"hwatch/internal/faults"
	"hwatch/internal/netem"
	"hwatch/internal/scenario"
	"hwatch/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden digest files of the tests that run")

const (
	goldenPath         = "testdata/golden_digests.json"
	ablationGoldenPath = "testdata/ablation_digests.json"
)

// goldenRuns executes the small-scale Fig. 2, Fig. 8 and Fig. 11
// scenarios and the chaos schedules, and returns their digests and event
// counts keyed by the table's figure/curve keys.
func goldenRuns(t testing.TB) (digests map[string]string, events map[string]uint64) {
	t.Helper()
	runs := faultGoldenRuns(t)
	for _, g := range []struct {
		fig   string
		scale float64
	}{{"fig2", 0.1}, {"fig8", 0.1}, {"fig11", 0.2}} {
		for key, r := range mustFig(t, g.fig, g.scale) {
			runs[g.fig+"/"+key] = r
		}
	}
	digests, events = map[string]string{}, map[string]uint64{}
	for k, r := range runs {
		digests[k], events[k] = r.DigestHex(), r.Events
	}
	return digests, events
}

// faultGoldenRuns locks two chaos scenarios into the golden set: the
// fault injector is part of the determinism contract, so a schedule's
// effect on the run must be as reproducible as the run itself.
func faultGoldenRuns(t testing.TB) map[string]*scenario.Run {
	t.Helper()
	params := func(seed int64) scenario.DumbbellParams {
		p := scenario.PaperDumbbell(5, 5)
		p.Seed = seed
		p.ByteBuffers = true
		p.Duration = 400 * sim.Millisecond
		p.DrainAfter = 600 * sim.Millisecond
		p.Epochs = 2
		return p
	}
	linkflap := faults.Schedule{
		{Kind: faults.LinkDown, At: 120 * sim.Millisecond},
		{Kind: faults.LinkUp, At: 124 * sim.Millisecond},
		{Kind: faults.BurstLoss, At: 250 * sim.Millisecond, Until: 270 * sim.Millisecond,
			GE: netem.GEParams{GoodToBad: 0.05, BadToGood: 0.5, LossBad: 1}},
	}
	blackhole := faults.Schedule{
		{Kind: faults.ECNBlackhole, At: 100 * sim.Millisecond, Until: 260 * sim.Millisecond},
		{Kind: faults.ShimCrash, At: 140 * sim.Millisecond},
		{Kind: faults.ShimRestart, At: 180 * sim.Millisecond},
		{Kind: faults.ProbeBlackout, At: 180 * sim.Millisecond, Until: 240 * sim.Millisecond},
	}
	// The impairment-matrix goldens: one per new chaos class, each armed
	// on the shared bottleneck so every flow crosses the impairment.
	reorder := faults.Schedule{
		{Kind: faults.Reorder, At: 100 * sim.Millisecond, Until: 300 * sim.Millisecond,
			Impair: faults.ImpairParams{Prob: 0.05, Hold: 2 * sim.Millisecond}},
		{Kind: faults.Jitter, At: 320 * sim.Millisecond, Until: 380 * sim.Millisecond,
			Impair: faults.ImpairParams{Dist: "pareto", Delay: 100 * sim.Microsecond, Jitter: 50 * sim.Microsecond}},
	}
	corrupt := faults.Schedule{
		{Kind: faults.Corrupt, At: 100 * sim.Millisecond, Until: 300 * sim.Millisecond,
			Impair: faults.ImpairParams{Prob: 0.02, DropFrac: 0.5}},
	}
	dupjitter := faults.Schedule{
		{Kind: faults.Duplicate, At: 100 * sim.Millisecond, Until: 300 * sim.Millisecond,
			Impair: faults.ImpairParams{Prob: 0.05, Copies: 2, Egress: true}},
		{Kind: faults.Jitter, At: 150 * sim.Millisecond, Until: 250 * sim.Millisecond,
			Impair: faults.ImpairParams{Dist: "uniform", Delay: 200 * sim.Microsecond, Jitter: 200 * sim.Microsecond}},
	}
	// Recurring random-target flap: every occurrence downs two links drawn
	// from the whole fabric for ~3 ms, with jittered starts.
	flap := faults.Schedule{
		{Kind: faults.LinkDown, At: 80 * sim.Millisecond, Pick: 2,
			Recur: &faults.Recurrence{Interval: 60 * sim.Millisecond, Duration: 3 * sim.Millisecond,
				Jitter: 8 * sim.Millisecond, Count: 4}},
	}
	ratelimit := faults.Schedule{
		{Kind: faults.RateLimit, At: 120 * sim.Millisecond, Until: 160 * sim.Millisecond,
			Impair: faults.ImpairParams{RateBps: 2e9, Burst: 32 * 1024}},
		{Kind: faults.Jitter, At: 200 * sim.Millisecond, Until: 280 * sim.Millisecond,
			Impair: faults.ImpairParams{Dist: "normal", Delay: 150 * sim.Microsecond, Jitter: 50 * sim.Microsecond, Egress: true}},
	}
	run := func(sched faults.Schedule, seed int64) *scenario.Run {
		spec := dumbbellSpec(scenario.HWatch, params(seed))
		spec.Faults = sched
		return mustRun(t, spec)
	}
	return map[string]*scenario.Run{
		"faults/linkflap":  run(linkflap, 7),
		"faults/blackhole": run(blackhole, 9),
		"faults/reorder":   run(reorder, 11),
		"faults/corrupt":   run(corrupt, 13),
		"faults/dupjitter": run(dupjitter, 17),
		"faults/flap":      run(flap, 19),
		"faults/ratelimit": run(ratelimit, 23),
	}
}

// TestGoldenDigests locks the small-scale Fig. 2, Fig. 8 and Fig. 11
// outcomes to checked-in digests: any change to packet timing, AQM
// accounting, TCP dynamics or the shim shows up here first. Regenerate
// deliberately with
//
//	go test ./internal/experiments -run TestGoldenDigests -args -update
func TestGoldenDigests(t *testing.T) {
	got, _ := goldenRuns(t)
	matchGolden(t, goldenPath, got)

	// Same seed twice => identical digests, independent of golden state.
	again, _ := goldenRuns(t)
	for k, g := range got {
		if again[k] != g {
			t.Errorf("%s: rerun digest %s != first run %s — nondeterminism", k, again[k], g)
		}
	}
}

// TestAblationGoldenDigests locks every ablation row's run digest at
// scale 0.1, keyed ablation/row label. It stays out of goldenRuns, so
// the shard-parity matrix does not grow by these rows. Regenerate with
//
//	go test ./internal/experiments -run TestAblationGoldenDigests -args -update
func TestAblationGoldenDigests(t *testing.T) {
	var keys []string
	var specs []*scenario.Spec
	for _, a := range Ablations() {
		for _, r := range a.rows {
			keys = append(keys, a.Name+"/"+r.label)
		}
		specs = append(specs, a.specs(0.1)...)
	}
	runs, err := runSpecs(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for i, r := range runs {
		got[keys[i]] = r.DigestHex()
	}
	if len(got) != len(runs) {
		t.Fatalf("%d rows share %d keys: row labels must be unique per ablation", len(runs), len(got))
	}
	matchGolden(t, ablationGoldenPath, got)
}

// matchGolden compares digests against the golden file at path, or
// rewrites the file under -update.
func matchGolden(t *testing.T, path string, got map[string]string) {
	t.Helper()
	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d digests", path, len(got))
		return
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden digests (regenerate with -args -update): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parsing %s: %v", path, err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d entries, run produced %d", len(want), len(got))
	}
	for k, w := range want {
		if g, ok := got[k]; !ok {
			t.Errorf("%s: missing from run", k)
		} else if g != w {
			t.Errorf("%s: digest %s, golden %s", k, g, w)
		}
	}
}

// TestDigestParallelInvariance proves the determinism contract the harness
// documents: the worker count must never leak into results.
func TestDigestParallelInvariance(t *testing.T) {
	defer SetParallel(0)
	SetParallel(1)
	one := mustFig(t, "fig8", 0.1)
	SetParallel(8)
	eight := mustFig(t, "fig8", 0.1)
	for k, r := range one {
		if a, b := r.DigestHex(), eight[k].DigestHex(); a != b {
			t.Errorf("%v: digest %s at -parallel 1, %s at -parallel 8", k, a, b)
		}
	}
}

// TestRunWithInvariantChecks runs every scheme with the checker armed: a
// sound simulator reports nothing, and the runs carry execution metadata.
func TestRunWithInvariantChecks(t *testing.T) {
	for _, sc := range scenario.AllSchemes() {
		p := scaled(scenario.PaperDumbbell(25, 25), 0.1)
		p.ByteBuffers = true
		p.Check = true
		r := mustRun(t, dumbbellSpec(sc, p))
		for _, v := range r.InvariantViolations {
			t.Errorf("%v: %s", sc, v)
		}
		if r.Events == 0 {
			t.Errorf("%v: run executed zero events", sc)
		}
	}

	tp := scenario.PaperTestbed()
	tp.LongPerRack = 2
	tp.WebServers = 1
	tp.WebClients = 1
	tp.Parallel = 2
	tp.Epochs = 1
	tp.Duration = tp.FirstEpoch + tp.EpochInterval
	tp.Check = true
	for _, hwatch := range []bool{false, true} {
		r, err := scenario.RunTestbed(context.Background(), hwatch, tp)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range r.InvariantViolations {
			t.Errorf("testbed hwatch=%v: %s", hwatch, v)
		}
		if r.Events == 0 {
			t.Errorf("testbed hwatch=%v: zero events", hwatch)
		}
	}
}
