package experiments

import (
	"context"
	"fmt"

	"hwatch/internal/harness"
	"hwatch/internal/scenario"
	"hwatch/internal/sim"
	"hwatch/internal/stats"
)

// IncastPoint is one (scheme, degree) cell of the incast-cliff sweep: where
// does each system fall off the latency cliff as the number of
// synchronized senders grows? This generalizes the paper's fixed-degree
// scenarios into the full curve.
type IncastPoint struct {
	Scheme   scenario.Scheme
	Degree   int
	FCTms    stats.Sample
	Drops    int64
	Timeouts int64
	Done     int
	All      int
}

// String renders the point as a table row.
func (p IncastPoint) String() string {
	return fmt.Sprintf("%-12s degree=%3d fct p50/p99=%8.2f/%9.2fms drops=%5d rto=%4d done=%d/%d",
		p.Scheme, p.Degree, p.FCTms.Quantile(0.5), p.FCTms.Quantile(0.99),
		p.Drops, p.Timeouts, p.Done, p.All)
}

// IncastSweepParams configures the cliff sweep.
type IncastSweepParams struct {
	Degrees     []int
	LongSources int
	FlowSize    int64
	Epochs      int
	Duration    int64
	Seed        int64
}

// DefaultIncastSweep sweeps the degrees the incast example explores.
func DefaultIncastSweep() IncastSweepParams {
	return IncastSweepParams{
		Degrees:     []int{8, 16, 32, 64},
		LongSources: 8,
		FlowSize:    10_000,
		Epochs:      3,
		Duration:    700 * sim.Millisecond,
		Seed:        42,
	}
}

// RunIncastSweep executes the sweep for the given schemes under ctx.
// Every (scheme, degree) cell derives its seed from the degree alone, so
// the schemes at one degree see identical traffic while distinct degrees
// draw independent randomness. A failed or cancelled cell returns the
// error and no rows.
func RunIncastSweep(ctx context.Context, schemes []scenario.Scheme, p IncastSweepParams) ([]IncastPoint, error) {
	var specs []*scenario.Spec
	var out []IncastPoint
	for _, sc := range schemes {
		for _, deg := range p.Degrees {
			dp := scenario.PaperDumbbell(p.LongSources, deg)
			dp.ByteBuffers = true
			dp.ShortSize = p.FlowSize
			dp.Epochs = p.Epochs
			dp.Duration = p.Duration
			dp.Seed = harness.SeedFor(fmt.Sprintf("incast/deg=%d", deg), p.Seed)
			specs = append(specs, dumbbellSpec(sc, dp))
			out = append(out, IncastPoint{Scheme: sc, Degree: deg})
		}
	}
	runs, err := runSpecs(ctx, specs)
	if err != nil {
		return nil, err
	}
	for i, r := range runs {
		out[i].FCTms = r.ShortFCTms
		out[i].Drops = r.Drops
		out[i].Timeouts = r.Timeouts
		out[i].Done = r.ShortDone
		out[i].All = r.ShortAll
	}
	return out, nil
}
