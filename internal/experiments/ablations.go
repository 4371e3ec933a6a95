package experiments

import (
	"context"
	"fmt"

	"hwatch/internal/core"
	"hwatch/internal/scenario"
	"hwatch/internal/sim"
	"hwatch/internal/tcp"
)

// The ablations quantify the design choices DESIGN.md calls out, on the
// Fig. 9 scenario (100 sources, HWatch scheme, byte-accounted buffers) —
// the scale at which the protective mechanisms actually bind; at 50
// sources every variant below survives without drops.

// AblationPoint is one configuration's outcome.
type AblationPoint struct {
	Label      string
	MeanFCTms  float64
	P99FCTms   float64
	Timeouts   int64
	Drops      int64
	Goodput    float64 // mean long-flow goodput, bit/s
	Done, All  int
	SetupDelay int64 // probe span (connection-setup cost), ns
}

func point(label string, r *scenario.Run, setupDelay int64) AblationPoint {
	return AblationPoint{
		Label:      label,
		MeanFCTms:  r.ShortFCTms.Mean(),
		P99FCTms:   r.ShortFCTms.Quantile(0.99),
		Timeouts:   r.Timeouts,
		Drops:      r.Drops,
		Goodput:    r.LongGoodputBps.Mean(),
		Done:       r.ShortDone,
		All:        r.ShortAll,
		SetupDelay: setupDelay,
	}
}

// String renders the point as a table row.
func (p AblationPoint) String() string {
	return fmt.Sprintf("%-22s meanFCT=%8.2fms p99=%8.2fms rto=%4d drops=%5d goodput=%5.2fGb/s done=%d/%d",
		p.Label, p.MeanFCTms, p.P99FCTms, p.Timeouts, p.Drops, p.Goodput/1e9, p.Done, p.All)
}

func ablationBase(scale float64) scenario.DumbbellParams {
	p := scaled(scenario.PaperDumbbell(50, 50), scale)
	p.ByteBuffers = true
	return p
}

// ablationCase is one row of an ablation sweep: a label, an optional
// scenario adjustment, and an optional explicit guest stack (used by the
// R3 agnosticism study instead of the scheme's default).
type ablationCase struct {
	label string
	prep  func(*scenario.DumbbellParams)
	guest *tcp.Config
}

// Ablation is one row of the ablation table: a named sweep over one of
// HWatch's design choices.
type Ablation struct {
	// Name is what sweep -what and hwatchd "ablation" jobs call the sweep.
	Name    string
	Caption string
	cases   func() []ablationCase
}

// Run executes the sweep's cases under ctx and returns one point per case
// in case order; a failed or cancelled case returns the error and no rows.
func (a Ablation) Run(ctx context.Context, scale float64) ([]AblationPoint, error) {
	cases := a.cases()
	specs := make([]*scenario.Spec, len(cases))
	for i, c := range cases {
		p := ablationBase(scale)
		if c.prep != nil {
			c.prep(&p)
		}
		// An explicit guest replaces the scheme's default stack; the shims
		// keep the scheme's default guest view, as a hypervisor module
		// would: it cannot know what stack the tenant boots.
		specs[i] = dumbbellSpec(scenario.HWatch, p)
		specs[i].Guest = c.guest
	}
	runs, err := runSpecs(ctx, specs)
	if err != nil {
		return nil, err
	}
	out := make([]AblationPoint, len(runs))
	for i, r := range runs {
		out[i] = point(cases[i].label, r, 0)
	}
	return out, nil
}

var ablations = []Ablation{
	{"probes", "probe count per connection setup", probesCases},
	{"k", "ECN marking threshold (fraction of buffer)", thresholdCases},
	{"icw", "initial-window policy (probe credit)", startWindowCases},
	{"batch", "Rule 1 batch merge and growth cadence", batchesCases},
	{"pacing", "SYN-ACK token-bucket pacing", pacingCases},
	{"guests", "guest stack agnosticism (R3)", guestStackCases},
}

// Ablations lists the ablation sweeps in the order sweep -what all runs
// them (DESIGN.md §5).
func Ablations() []Ablation { return append([]Ablation(nil), ablations...) }

// LookupAblation finds an ablation by name.
func LookupAblation(name string) (Ablation, error) {
	return find("ablation", ablations, func(a Ablation) string { return a.Name }, name)
}

// probesCases sweeps the probe count and compares uniform vs. non-uniform
// spacing (the paper argues for 10 probes, jittered).
func probesCases() []ablationCase {
	var cases []ablationCase
	for _, n := range []int{0, 2, 5, 10, 20} {
		n := n
		cases = append(cases, ablationCase{
			label: fmt.Sprintf("probes=%d", n),
			prep: func(p *scenario.DumbbellParams) {
				p.ShimTweak = func(c *core.Config) { c.ProbeCount = n }
			},
		})
	}
	// Spacing comparison at the paper's probe count.
	cases = append(cases, ablationCase{
		label: "probes=10 uniform",
		prep: func(p *scenario.DumbbellParams) {
			p.ShimTweak = func(c *core.Config) { c.UniformProbeSpacing = true }
		},
	})
	return cases
}

// thresholdCases sweeps the ECN marking threshold as a fraction of the
// buffer (the paper fixes 20%).
func thresholdCases() []ablationCase {
	var cases []ablationCase
	for _, frac := range []float64{0.05, 0.10, 0.20, 0.35, 0.50} {
		frac := frac
		cases = append(cases, ablationCase{
			label: fmt.Sprintf("K=%.0f%%", frac*100),
			prep:  func(p *scenario.DumbbellParams) { p.MarkFrac = frac },
		})
	}
	return cases
}

// startWindowCases compares initial-window policies: the cautious
// default (marked probes earn nothing), the Corollary IV.2.2 credit
// (marked probes earn half), full credit (probing only confirms
// reachability), and probing disabled (stock ICW always).
func startWindowCases() []ablationCase {
	cases := []struct {
		label  string
		credit float64
		probes int
	}{
		{"credit=0 (cautious)", 0, 10},
		{"credit=0.5 (merged)", 0.5, 10},
		{"credit=1.0", 1.0, 10},
		{"no probing (ICW)", 0, 0},
	}
	var rows []ablationCase
	for _, c := range cases {
		c := c
		rows = append(rows, ablationCase{
			label: c.label,
			prep: func(p *scenario.DumbbellParams) {
				p.ShimTweak = func(cc *core.Config) {
					cc.StartMarkedCredit = c.credit
					cc.ProbeCount = c.probes
				}
			},
		})
	}
	return rows
}

// batchesCases compares Rule 1 batch policies: merged first+second
// batches (Cor IV.2.2) vs. the strict three-batch split, and the growth
// cadence.
func batchesCases() []ablationCase {
	cases := []struct {
		label string
		merge bool
		every int
	}{
		{"merge batches, grow/4", true, 4},
		{"merge batches, grow/1", true, 1},
		{"3 batches, grow/4", false, 4},
		{"3 batches, grow/1", false, 1},
	}
	var rows []ablationCase
	for _, c := range cases {
		c := c
		rows = append(rows, ablationCase{
			label: c.label,
			prep: func(p *scenario.DumbbellParams) {
				p.ShimTweak = func(cc *core.Config) {
					cc.MergeBatch1 = c.merge
					cc.GrowthEvery = c.every
				}
			},
		})
	}
	return rows
}

// pacingCases toggles the SYN-ACK token bucket.
func pacingCases() []ablationCase {
	cases := []struct {
		label string
		burst int
		every int64
	}{
		{"pacing on (default)", 4, 0}, // 0 = keep default refill
		{"pacing off", 0, 0},
		{"pacing slow", 2, 200 * sim.Microsecond},
	}
	var rows []ablationCase
	for _, c := range cases {
		c := c
		rows = append(rows, ablationCase{
			label: c.label,
			prep: func(p *scenario.DumbbellParams) {
				p.ShimTweak = func(cc *core.Config) {
					cc.SynAckBurst = c.burst
					if c.every > 0 {
						cc.RefillEvery = c.every
					}
				}
			},
		})
	}
	return rows
}

// guestStackCases quantifies requirement R3 (VM autonomy): HWatch must
// deliver its guarantee regardless of what the unmodified guest stack
// happens to be. Each variant runs the 100-source scenario with a
// different guest flavour under the same shims.
func guestStackCases() []ablationCase {
	newReno := tcp.DefaultConfig()
	sack := tcp.DefaultConfig()
	sack.SACK = true
	delack := tcp.DefaultConfig()
	delack.DelayedAck = true
	cubic := tcp.CubicConfig()
	cases := []struct {
		label string
		cfg   tcp.Config
	}{
		{"guest=newreno", newReno},
		{"guest=newreno+sack", sack},
		{"guest=newreno+delack", delack},
		{"guest=cubic", cubic},
	}
	var rows []ablationCase
	for _, c := range cases {
		cfg := c.cfg
		rows = append(rows, ablationCase{label: c.label, guest: &cfg})
	}
	return rows
}
