package experiments

import (
	"context"
	"fmt"

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

// ablationRow is one configuration of an ablation sweep, as data: a
// label, a marking threshold (0 = the base's), the shim settings, and an
// explicit guest stack (the R3 agnosticism study; nil = the scheme's).
type ablationRow struct {
	label    string
	markFrac float64
	shim     scenario.ShimParams
	guest    *tcp.Config
}

// Ablation is one row of the ablation table: a named sweep over one of
// HWatch's design choices.
type Ablation struct {
	// Name is what sweep -what and hwatchd "ablation" jobs call the sweep.
	Name    string
	Caption string
	rows    []ablationRow
}

// Run executes the sweep's rows under ctx and returns one point per row
// in row order; a failed or cancelled row returns the error and no rows.
func (a Ablation) Run(ctx context.Context, scale float64) ([]AblationPoint, error) {
	runs, err := runSpecs(ctx, a.specs(scale))
	if err != nil {
		return nil, err
	}
	out := make([]AblationPoint, len(runs))
	for i, r := range runs {
		out[i] = point(a.rows[i].label, r, 0)
	}
	return out, nil
}

// specs declares the sweep's scenarios, one per row in row order.
func (a Ablation) specs(scale float64) []*scenario.Spec {
	specs := make([]*scenario.Spec, len(a.rows))
	for i, r := range a.rows {
		p := ablationBase(scale)
		if r.markFrac > 0 {
			p.MarkFrac = r.markFrac
		}
		specs[i] = dumbbellSpec(scenario.HWatch, p)
		specs[i].Shim = r.shim
		specs[i].Guest = r.guest
	}
	return specs
}

var ablations = []Ablation{
	// The probe count, and uniform against jittered spacing at the
	// paper's count (the paper argues for 10 probes, jittered).
	{"probes", "probe count per connection setup", []ablationRow{
		{label: "probes=0", shim: scenario.ShimParams{ProbeCount: ptr(0)}},
		{label: "probes=2", shim: scenario.ShimParams{ProbeCount: ptr(2)}},
		{label: "probes=5", shim: scenario.ShimParams{ProbeCount: ptr(5)}},
		{label: "probes=10", shim: scenario.ShimParams{ProbeCount: ptr(10)}},
		{label: "probes=20", shim: scenario.ShimParams{ProbeCount: ptr(20)}},
		{label: "probes=10 uniform", shim: scenario.ShimParams{UniformProbeSpacing: ptr(true)}},
	}},
	// The marking threshold as a fraction of the buffer (the paper fixes
	// 20%).
	{"k", "ECN marking threshold (fraction of buffer)", []ablationRow{
		{label: "K=5%", markFrac: 0.05},
		{label: "K=10%", markFrac: 0.10},
		{label: "K=20%", markFrac: 0.20},
		{label: "K=35%", markFrac: 0.35},
		{label: "K=50%", markFrac: 0.50},
	}},
	// Initial-window policies: the cautious default (marked probes earn
	// nothing), the Corollary IV.2.2 credit (marked probes earn half),
	// full credit (probing only confirms reachability), and probing
	// disabled (stock ICW always).
	{"icw", "initial-window policy (probe credit)", []ablationRow{
		{label: "credit=0 (cautious)", shim: scenario.ShimParams{StartMarkedCredit: ptr(0.0), ProbeCount: ptr(10)}},
		{label: "credit=0.5 (merged)", shim: scenario.ShimParams{StartMarkedCredit: ptr(0.5), ProbeCount: ptr(10)}},
		{label: "credit=1.0", shim: scenario.ShimParams{StartMarkedCredit: ptr(1.0), ProbeCount: ptr(10)}},
		{label: "no probing (ICW)", shim: scenario.ShimParams{StartMarkedCredit: ptr(0.0), ProbeCount: ptr(0)}},
	}},
	// Rule 1 batch policies: merged first+second batches (Cor IV.2.2)
	// against the strict three-batch split, and the growth cadence.
	{"batch", "Rule 1 batch merge and growth cadence", []ablationRow{
		{label: "merge batches, grow/4", shim: scenario.ShimParams{MergeBatch1: ptr(true), GrowthEvery: ptr(4)}},
		{label: "merge batches, grow/1", shim: scenario.ShimParams{MergeBatch1: ptr(true), GrowthEvery: ptr(1)}},
		{label: "3 batches, grow/4", shim: scenario.ShimParams{MergeBatch1: ptr(false), GrowthEvery: ptr(4)}},
		{label: "3 batches, grow/1", shim: scenario.ShimParams{MergeBatch1: ptr(false), GrowthEvery: ptr(1)}},
	}},
	// The SYN-ACK token bucket.
	{"pacing", "SYN-ACK token-bucket pacing", []ablationRow{
		{label: "pacing on (default)", shim: scenario.ShimParams{SynAckBurst: ptr(4)}},
		{label: "pacing off", shim: scenario.ShimParams{SynAckBurst: ptr(0)}},
		{label: "pacing slow", shim: scenario.ShimParams{SynAckBurst: ptr(2), RefillEvery: ptr(200 * sim.Microsecond)}},
	}},
	{"guests", "guest stack agnosticism (R3)", guestRows()},
}

// Ablations lists the ablation sweeps in the order sweep -what all runs
// them (DESIGN.md §5).
func Ablations() []Ablation { return append([]Ablation(nil), ablations...) }

// LookupAblation finds an ablation by name.
func LookupAblation(name string) (Ablation, error) {
	return find("ablation", ablations, func(a Ablation) string { return a.Name }, name)
}

// guestRows quantifies requirement R3 (VM autonomy): HWatch must deliver
// its guarantee whatever the unmodified guest stack is, so each row runs
// a different guest flavour under the same shims.
func guestRows() []ablationRow {
	sack := tcp.DefaultConfig()
	sack.SACK = true
	delack := tcp.DefaultConfig()
	delack.DelayedAck = true
	return []ablationRow{
		{label: "guest=newreno", guest: ptr(tcp.DefaultConfig())},
		{label: "guest=newreno+sack", guest: &sack},
		{label: "guest=newreno+delack", guest: &delack},
		{label: "guest=cubic", guest: ptr(tcp.CubicConfig())},
	}
}

// ptr returns a pointer to a copy of v: a set field of a params struct.
func ptr[T any](v T) *T { return &v }
