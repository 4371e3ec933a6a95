package experiments

import (
	"context"
	"fmt"

	"hwatch/internal/harness"
	"hwatch/internal/scenario"
	"hwatch/internal/sim"
	"hwatch/internal/stats"
	"hwatch/internal/tcp"
	"hwatch/internal/workload"
)

// EmpiricalResult is one (scheme, load) cell of the trace-driven extension
// study: FCT statistics split by flow size, the standard data-center
// evaluation the paper's related work uses.
type EmpiricalResult struct {
	Scheme    scenario.Scheme
	Load      float64
	SmallFCT  stats.Sample // flows < 100 KB, ms
	LargeFCT  stats.Sample // flows >= 1 MB, ms
	AllFCT    stats.Sample
	Started   int
	Completed int
	Timeouts  int64
}

// String renders the cell as a table row.
func (r EmpiricalResult) String() string {
	return fmt.Sprintf("%-12s load=%.0f%%  small p50/p99=%7.2f/%8.2fms  large p50=%8.1fms  done=%d/%d rto=%d",
		r.Scheme, r.Load*100,
		r.SmallFCT.Quantile(0.5), r.SmallFCT.Quantile(0.99),
		r.LargeFCT.Quantile(0.5),
		r.Completed, r.Started, r.Timeouts)
}

// EmpiricalParams configures the trace-driven study.
type EmpiricalParams struct {
	Sources       int
	Dist          workload.SizeDist
	Loads         []float64
	Duration      int64
	BottleneckBps int64
	BufferPkts    int
	MarkFrac      float64
	LinkDelay     int64
	Seed          int64
}

// DefaultEmpirical returns a web-search workload on the paper's dumbbell.
func DefaultEmpirical() EmpiricalParams {
	return EmpiricalParams{
		Sources:       20,
		Dist:          workload.WebSearch(),
		Loads:         []float64{0.3, 0.6},
		Duration:      500 * sim.Millisecond,
		BottleneckBps: 10e9,
		BufferPkts:    250,
		MarkFrac:      0.20,
		LinkDelay:     25 * sim.Microsecond,
		Seed:          13,
	}
}

// RunEmpirical executes the study for the given schemes under ctx. Cells
// at one load level share a load-derived seed, so the schemes compare
// against identical arrival processes. A failed or cancelled cell returns
// the error and no rows.
func RunEmpirical(ctx context.Context, schemes []scenario.Scheme, p EmpiricalParams) ([]EmpiricalResult, error) {
	var specs []*scenario.Spec
	var cells []*poissonTraffic
	for _, load := range p.Loads {
		for _, sc := range schemes {
			cell := &poissonTraffic{p: p, res: EmpiricalResult{Scheme: sc, Load: load}}
			spec := dumbbellSpec(sc, scenario.DumbbellParams{
				LongSources:   p.Sources,
				BottleneckBps: p.BottleneckBps,
				EdgeBps:       p.BottleneckBps,
				LinkDelay:     p.LinkDelay,
				BufferPkts:    p.BufferPkts,
				MarkFrac:      p.MarkFrac,
				ByteBuffers:   true,
				Duration:      p.Duration,
				// Run past the arrival window so in-flight flows can finish.
				DrainAfter: 2 * sim.Second,
				Seed:       harness.SeedFor(fmt.Sprintf("empirical/load=%g", load), p.Seed),
			})
			spec.Workload = cell
			// workload.RunPoisson schedules every arrival on one engine.
			spec.Shards = 1
			specs = append(specs, spec)
			cells = append(cells, cell)
		}
	}
	if _, err := runSpecs(ctx, specs); err != nil {
		return nil, err
	}
	out := make([]EmpiricalResult, len(cells))
	for i, cell := range cells {
		out[i] = cell.res
	}
	return out, nil
}

// poissonTraffic is the study's scenario.Workload: every sender host is
// an open-loop Poisson source of flows sized from the empirical CDF.
type poissonTraffic struct {
	p   EmpiricalParams
	po  *workload.Poisson
	res EmpiricalResult
}

func (w *poissonTraffic) Wire(rc *scenario.RunContext, _ *scenario.Run) {
	d, p, res := rc.Dumbbell, w.p, &w.res
	tcfg := rc.ConfigFor(d.Senders[0])
	d.Receiver.Listen(scenario.DefaultPort, tcp.NewListener(d.Receiver, tcfg, nil))
	w.po = workload.RunPoisson(d.Senders, d.Receiver.ID, tcfg, workload.PoissonConfig{
		Port:        scenario.DefaultPort,
		ArrivalRate: workload.LoadFor(res.Load, p.BottleneckBps, p.Dist),
		Dist:        p.Dist,
		StartAt:     0,
		StopAt:      p.Duration,
		Rng:         rc.Rng.Fork(),
	}, func(fct, size int64) {
		ms := float64(fct) / float64(sim.Millisecond)
		res.AllFCT.Add(ms)
		if size < 100_000 {
			res.SmallFCT.Add(ms)
		}
		if size >= 1_000_000 {
			res.LargeFCT.Add(ms)
		}
	})
}

func (w *poissonTraffic) Finish(*scenario.RunContext, *scenario.Run) {
	w.res.Started = w.po.Started
	w.res.Completed = w.po.Completed
	w.res.Timeouts = w.po.Timeouts()
}
