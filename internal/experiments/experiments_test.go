package experiments

import (
	"context"
	"strings"
	"testing"

	"hwatch/internal/scenario"
	"hwatch/internal/sim"
	"hwatch/internal/tcp"
)

// mustRun executes one spec and fails the test on error.
func mustRun(t testing.TB, s *scenario.Spec) *scenario.Run {
	t.Helper()
	r, err := s.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// mustFig executes one figure of the table and returns its runs keyed by
// the table's curve keys.
func mustFig(t testing.TB, name string, scale float64) map[string]*scenario.Run {
	t.Helper()
	f, err := LookupFigure(name)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := f.Run(context.Background(), scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != len(f.Keys) {
		t.Fatalf("%s: %d runs for %d keys", name, len(runs), len(f.Keys))
	}
	out := map[string]*scenario.Run{}
	for i, k := range f.Keys {
		out[k] = runs[i]
	}
	return out
}

// wantRows asserts a study's printed rows byte for byte: the rows were
// recorded from the hand-built cells the Spec path replaced.
func wantRows[T interface{ String() string }](t *testing.T, got []T, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i, w := range want {
		if g := got[i].String(); g != w {
			t.Errorf("row %d:\n got %q\nwant %q", i, g, w)
		}
	}
}

// Small-scale shape checks: these assert the *qualitative* results the
// paper reports (who wins, what fails, what stays flat), not absolute
// numbers. Full-scale regeneration is `hwatchsim all` and the root
// benchmarks.

func TestFig8ShapeSmall(t *testing.T) {
	runs, err := runSpecs(context.Background(), schemeSpecs(6, 6, 1)) // small source count, full duration
	if err != nil {
		t.Fatal(err)
	}
	order := scenario.AllSchemes()
	r := map[scenario.Scheme]*scenario.Run{}
	for i, s := range order {
		r[s] = runs[i]
	}
	hw := r[scenario.HWatch]
	dt := r[scenario.DropTail]

	// HWatch: every short flow completes, no RTO, no drops (the headline).
	if hw.Timeouts != 0 {
		t.Errorf("HWatch short flows hit %d RTOs", hw.Timeouts)
	}
	if hw.ShortDone != hw.ShortAll {
		t.Errorf("HWatch completed %d/%d", hw.ShortDone, hw.ShortAll)
	}
	if hw.Drops != 0 {
		t.Errorf("HWatch bottleneck dropped %d packets", hw.Drops)
	}
	// DropTail: bloated queue and strictly worse mean FCT.
	if dt.QueuePkts.Mean() <= hw.QueuePkts.Mean() {
		t.Errorf("DropTail queue (%.0f) not above HWatch (%.0f)",
			dt.QueuePkts.Mean(), hw.QueuePkts.Mean())
	}
	if dt.ShortFCTms.Mean() <= hw.ShortFCTms.Mean() {
		t.Errorf("DropTail FCT mean %.2f not worse than HWatch %.2f",
			dt.ShortFCTms.Mean(), hw.ShortFCTms.Mean())
	}
	// Long-flow goodput comparable across schemes (R2): no scheme may
	// collapse the elephants.
	base := r[scenario.DCTCP].LongGoodputBps.Mean()
	for _, s := range order {
		g := r[s].LongGoodputBps.Mean()
		if g < 0.3*base {
			t.Errorf("%v long goodput collapsed: %.2g vs %.2g", s, g, base)
		}
	}
	// The bottleneck stays busy for every scheme.
	for _, s := range order {
		if u := r[s].Utilization.Mean(); u < 0.5 {
			t.Errorf("%v bottleneck utilization %.2f too low", s, u)
		}
	}
}

func TestFig1ShapeSmall(t *testing.T) {
	// Sweep only the endpoints at reduced scale: small ICW clean, large
	// ICW in the drop/RTO regime.
	// The incast only overflows at the paper's full source count, so keep
	// 25/25 and shorten the run instead.
	mk := func(icw int) *scenario.Run {
		p := scenario.PaperDumbbell(25, 25)
		p.Duration = 500 * sim.Millisecond
		p.Epochs = 3
		p.ICW = icw
		return mustRun(t, dumbbellSpec(scenario.DCTCP, p))
	}
	small, large := mk(1), mk(20)
	if small.Timeouts != 0 || small.Drops != 0 {
		t.Errorf("ICW=1 not clean: rto=%d drops=%d", small.Timeouts, small.Drops)
	}
	if large.Drops == 0 {
		t.Error("ICW=20 caused no drops; incast surge missing")
	}
	if large.ShortFCTms.Quantile(0.99) < 10*small.ShortFCTms.Quantile(0.99) {
		t.Errorf("ICW=20 p99 %.2fms not an order above ICW=1 %.2fms",
			large.ShortFCTms.Quantile(0.99), small.ShortFCTms.Quantile(0.99))
	}
	// Long-flow goodput unaffected by ICW (Fig. 1c).
	g1, g20 := small.LongGoodputBps.Mean(), large.LongGoodputBps.Mean()
	if g20 < 0.8*g1 || g20 > 1.2*g1 {
		t.Errorf("long goodput moved with ICW: %.3g vs %.3g", g1, g20)
	}
}

func TestFig2ShapeSmall(t *testing.T) {
	p := scenario.PaperDumbbell(12, 12)
	p.Duration = 600 * sim.Millisecond
	p.Epochs = 4
	dctcp := mustRun(t, dumbbellSpec(scenario.DCTCP, p))
	mix := mustRun(t, mixSpec(p, false))

	// Coexistence destroys queue regulation (Fig. 2b)...
	if mix.QueuePkts.Mean() <= 1.5*dctcp.QueuePkts.Mean() {
		t.Errorf("MIX queue %.0f not far above DCTCP %.0f",
			mix.QueuePkts.Mean(), dctcp.QueuePkts.Mean())
	}
	// ...and blows up FCT variance (Fig. 2a)...
	if mix.ShortFCTms.Var() <= dctcp.ShortFCTms.Var() {
		t.Errorf("MIX FCT variance %.1f not above DCTCP %.1f",
			mix.ShortFCTms.Var(), dctcp.ShortFCTms.Var())
	}
	// Per-source AVG/VAR samples (the actual Fig. 2a curves) exist, one
	// per short source.
	if mix.PerSourceAvgMs.N() != 12 || mix.PerSourceVarMs.N() != 12 {
		t.Errorf("per-source samples: avg=%d var=%d, want 12",
			mix.PerSourceAvgMs.N(), mix.PerSourceVarMs.N())
	}
	if mix.PerSourceVarMs.Mean() <= dctcp.PerSourceVarMs.Mean() {
		t.Errorf("MIX per-source variance %.1f not above DCTCP %.1f",
			mix.PerSourceVarMs.Mean(), dctcp.PerSourceVarMs.Mean())
	}
	// Extension: HWatch shims over the same MIX restore queue regulation
	// (the transport-agnostic claim): the deaf tenant is disciplined via
	// its receive window.
	mixHW := mustRun(t, mixSpec(p, true))
	if mixHW.QueuePkts.Mean() >= mix.QueuePkts.Mean()/2 {
		t.Errorf("HWatch over MIX left queue at %.0f (MIX alone %.0f)",
			mixHW.QueuePkts.Mean(), mix.QueuePkts.Mean())
	}
	if mixHW.Timeouts >= mix.Timeouts {
		t.Errorf("HWatch over MIX: %d RTOs vs MIX %d", mixHW.Timeouts, mix.Timeouts)
	}
	// ...while the link stays fully utilized either way (Fig. 2d).
	if u := mix.Utilization.Mean(); u < 0.7 {
		t.Errorf("MIX utilization %.2f too low", u)
	}
}

func TestFig11ShapeTiny(t *testing.T) {
	p := scenario.PaperTestbed()
	p.HostsPerRack = 6
	p.LongPerRack = 2
	p.WebServers = 2
	p.WebClients = 2
	p.Parallel = 4
	p.Epochs = 2
	p.Duration = p.FirstEpoch + int64(p.Epochs)*p.EpochInterval
	testbed := func(s scenario.Scheme) *scenario.Run {
		return mustRun(t, &scenario.Spec{Kind: scenario.KindTestbed, Schemes: []scenario.Share{{Scheme: s}}, Testbed: p})
	}
	tcpRun, hwRun := testbed(scenario.DropTail), testbed(scenario.HWatch)

	if hwRun.ShortDone != hwRun.ShortAll {
		t.Errorf("HWatch testbed completed %d/%d", hwRun.ShortDone, hwRun.ShortAll)
	}
	if hwRun.ShortFCTms.Mean() >= tcpRun.ShortFCTms.Mean() {
		t.Errorf("HWatch mean FCT %.1fms not better than TCP %.1fms",
			hwRun.ShortFCTms.Mean(), tcpRun.ShortFCTms.Mean())
	}
	if hwRun.LongGoodputBps.Mean() < 0.5*tcpRun.LongGoodputBps.Mean() {
		t.Error("HWatch crushed the long flows (violates R2)")
	}
}

func TestRunDeterminism(t *testing.T) {
	p := scenario.PaperDumbbell(4, 4)
	p.Duration = 300 * sim.Millisecond
	p.Epochs = 2
	p.ByteBuffers = true
	a := mustRun(t, dumbbellSpec(scenario.HWatch, p))
	b := mustRun(t, dumbbellSpec(scenario.HWatch, p))
	if a.ShortFCTms.N() != b.ShortFCTms.N() {
		t.Fatalf("flow counts differ: %d vs %d", a.ShortFCTms.N(), b.ShortFCTms.N())
	}
	av, bv := a.ShortFCTms.Values(), b.ShortFCTms.Values()
	for i := range av {
		if av[i] != bv[i] {
			t.Fatalf("same seed diverged at %d: %f vs %f", i, av[i], bv[i])
		}
	}
	if a.Drops != b.Drops || a.Marks != b.Marks {
		t.Fatalf("telemetry diverged: %d/%d vs %d/%d", a.Drops, a.Marks, b.Drops, b.Marks)
	}
}

func TestSchemeStrings(t *testing.T) {
	want := map[scenario.Scheme]string{
		scenario.DropTail: "TCP-DropTail",
		scenario.RED:      "TCP-RED",
		scenario.DCTCP:    "DCTCP",
		scenario.HWatch:   "TCP-HWATCH",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%v -> %q, want %q", string(s), s.String(), w)
		}
	}
	if len(scenario.AllSchemes()) != 4 {
		t.Error("AllSchemes must list the paper's four systems")
	}
}

func TestScaled(t *testing.T) {
	p := scenario.PaperDumbbell(25, 25)
	s := scaled(p, 0.2)
	if s.LongSources != 5 || s.ShortSources != 5 {
		t.Fatalf("scaled sources = %d/%d", s.LongSources, s.ShortSources)
	}
	if s.Duration >= p.Duration {
		t.Fatal("scaled duration not reduced")
	}
	if s.Epochs < 1 {
		t.Fatal("scaled epochs vanished")
	}
	// Degenerate scales are identity.
	for _, sc := range []float64{0, 1, 2} {
		got := scaled(p, sc)
		if got.LongSources != p.LongSources || got.Duration != p.Duration || got.Epochs != p.Epochs {
			t.Fatalf("degenerate scale %v not identity", sc)
		}
	}
	// Floors.
	tiny := scaled(p, 0.01)
	if tiny.LongSources < 2 || tiny.ShortSources < 2 {
		t.Fatal("scaled below source floor")
	}
}

func TestRunSummaryFormat(t *testing.T) {
	p := scenario.PaperDumbbell(2, 2)
	p.Duration = 50 * sim.Millisecond
	p.Epochs = 1
	p.FirstEpoch = 5 * sim.Millisecond
	r := mustRun(t, dumbbellSpec(scenario.DropTail, p))
	s := r.Summary()
	for _, want := range []string{"TCP-DropTail", "shortFCT", "longGoodput", "drops="} {
		if !strings.Contains(s, want) {
			t.Errorf("summary %q missing %q", s, want)
		}
	}
}

func TestEmpiricalShapeSmall(t *testing.T) {
	p := DefaultEmpirical()
	p.Sources = 10
	p.Loads = []float64{0.4}
	p.Duration = 150 * sim.Millisecond
	res, err := RunEmpirical(context.Background(), []scenario.Scheme{scenario.HWatch, scenario.DCTCP}, p)
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, res,
		"TCP-HWATCH   load=40%  small p50/p99=   0.36/    0.70ms  large p50=    10.4ms  done=61/61 rto=0",
		"DCTCP        load=40%  small p50/p99=   0.31/  131.21ms  large p50=     3.3ms  done=61/61 rto=1")
	for _, r := range res {
		if r.Started == 0 {
			t.Fatalf("%v: no arrivals", r.Scheme)
		}
		if r.Completed < r.Started*9/10 {
			t.Fatalf("%v: completed %d/%d", r.Scheme, r.Completed, r.Started)
		}
		if r.SmallFCT.N() == 0 {
			t.Fatalf("%v: no small-flow samples", r.Scheme)
		}
		// At 40%% load neither scheme should be in the RTO regime for the
		// median small flow.
		if r.SmallFCT.Quantile(0.5) > 50 {
			t.Fatalf("%v: small p50 %.1fms at 40%% load", r.Scheme, r.SmallFCT.Quantile(0.5))
		}
		// A small flow a whole minRTO above the median timed out, and the
		// cell must say so.
		if r.SmallFCT.Quantile(0.99) > 100 && r.Timeouts == 0 {
			t.Fatalf("%v: small p99 %.1fms with rto=0", r.Scheme, r.SmallFCT.Quantile(0.99))
		}
	}
}

func TestIncastSweepShape(t *testing.T) {
	p := DefaultIncastSweep()
	p.Degrees = []int{8, 48}
	p.Epochs = 2
	p.Duration = 500 * sim.Millisecond
	pts, err := RunIncastSweep(context.Background(), []scenario.Scheme{scenario.HWatch}, p)
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, pts,
		"TCP-HWATCH   degree=  8 fct p50/p99=    0.92/     1.04ms drops=    0 rto=   0 done=16/16",
		"TCP-HWATCH   degree= 48 fct p50/p99=    1.36/     3.06ms drops=    0 rto=   0 done=96/96")
	for _, pt := range pts {
		if pt.Timeouts != 0 || pt.Done != pt.All {
			t.Fatalf("HWatch cliff at degree %d: %+v", pt.Degree, pt)
		}
	}
}

func TestCoflowShapeSmall(t *testing.T) {
	p := DefaultCoflow()
	p.LongSources = 12
	p.ShortSources = 16
	p.Jobs = 3
	p.Duration = 700 * sim.Millisecond
	res, err := RunCoflow(context.Background(), []scenario.Scheme{scenario.DropTail, scenario.HWatch}, p)
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, res,
		"TCP-DropTail JCT p50/p99=  201.49/   201.63ms straggler p50=  1.0x done=3/3",
		"TCP-HWATCH   JCT p50/p99=    0.90/     0.91ms straggler p50=  1.5x done=3/3")
	dt, hw := res[0], res[1]
	if hw.JobsDone != hw.JobsAll {
		t.Fatalf("HWatch jobs %d/%d", hw.JobsDone, hw.JobsAll)
	}
	if hw.JCTms.N() == 0 || dt.JCTms.N() == 0 {
		t.Fatal("no JCT samples")
	}
	if hw.JCTms.Quantile(0.99) >= dt.JCTms.Quantile(0.99) {
		t.Fatalf("HWatch JCT p99 %.1fms not below DropTail %.1fms",
			hw.JCTms.Quantile(0.99), dt.JCTms.Quantile(0.99))
	}
	// Straggler ratios are >= 1 by construction.
	if hw.Straggler.Min() < 1 {
		t.Fatalf("straggler ratio below 1: %f", hw.Straggler.Min())
	}
}

func TestPacingIsLoadBearingAt100Sources(t *testing.T) {
	// The headline ablation finding: at 100 sources HWatch without SYN-ACK
	// pacing re-admits the correlated-start overflow.
	base := scenario.PaperDumbbell(50, 50)
	base.ByteBuffers = true
	base.Duration = 600 * sim.Millisecond
	base.Epochs = 3

	r1 := mustRun(t, dumbbellSpec(scenario.HWatch, base))

	noPacing := dumbbellSpec(scenario.HWatch, base)
	noPacing.Shim.SynAckBurst = ptr(0)
	r2 := mustRun(t, noPacing)

	if r1.Drops != 0 || r1.Timeouts != 0 {
		t.Fatalf("paced run not clean: %+v", Summarize(r1))
	}
	if r2.Drops == 0 && r2.Timeouts == 0 {
		t.Fatalf("unpaced run survived; the ablation's premise broke: %+v", Summarize(r2))
	}
}

func TestGuestAgnosticismSmall(t *testing.T) {
	// R3: HWatch's guarantee must not depend on the guest stack flavour.
	base := scenario.PaperDumbbell(25, 25)
	base.ByteBuffers = true
	base.Duration = 500 * sim.Millisecond
	base.Epochs = 3
	cubic := tcp.CubicConfig()
	sack := tcp.DefaultConfig()
	sack.SACK = true
	for _, guest := range []tcp.Config{cubic, sack} {
		guest := guest
		spec := dumbbellSpec(scenario.HWatch, base)
		spec.Guest = &guest
		r := mustRun(t, spec)
		if r.Drops != 0 || r.Timeouts != 0 || r.ShortDone != r.ShortAll {
			t.Fatalf("guest %v broke the guarantee: %+v", guest.Variant, Summarize(r))
		}
	}
}

// TestFigureKeysMatchCurves pins the table's shape: every figure names
// exactly one key per spec it declares, with no duplicates.
func TestFigureKeysMatchCurves(t *testing.T) {
	for _, f := range figures {
		if got, want := len(f.Keys), len(f.specs(0.1)); got != want {
			t.Errorf("%s: %d keys for %d specs", f.Name, got, want)
		}
		seen := map[string]bool{}
		for _, k := range f.Keys {
			if seen[k] {
				t.Errorf("%s: duplicate key %q", f.Name, k)
			}
			seen[k] = true
		}
	}
}
