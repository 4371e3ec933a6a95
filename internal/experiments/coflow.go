package experiments

import (
	"context"
	"fmt"

	"hwatch/internal/netem"
	"hwatch/internal/scenario"
	"hwatch/internal/sim"
	"hwatch/internal/stats"
	"hwatch/internal/tcp"
	"hwatch/internal/workload"
)

// CoflowResult is one scheme's job-completion outcome: the application-
// level metric the paper's introduction motivates (a job of parallel flows
// finishes with its slowest flow; one RTO victim delays the whole job).
type CoflowResult struct {
	Scheme    scenario.Scheme
	JCTms     stats.Sample // job completion times
	Straggler stats.Sample // JCT / median constituent FCT, per job
	JobsDone  int
	JobsAll   int
}

// String renders the result as a table row.
func (r CoflowResult) String() string {
	return fmt.Sprintf("%-12s JCT p50/p99=%8.2f/%9.2fms straggler p50=%5.1fx done=%d/%d",
		r.Scheme, r.JCTms.Quantile(0.5), r.JCTms.Quantile(0.99),
		r.Straggler.Quantile(0.5), r.JobsDone, r.JobsAll)
}

// CoflowParams configures the job-completion study.
type CoflowParams struct {
	LongSources  int
	ShortSources int
	Width        int // parallel flows per job
	FlowSize     int64
	Jobs         int
	JobEvery     int64
	Duration     int64
	Seed         int64
}

// DefaultCoflow returns partition-aggregate style jobs on the paper's
// dumbbell: 16-wide jobs of 10 KB flows against 25 background elephants.
func DefaultCoflow() CoflowParams {
	return CoflowParams{
		LongSources:  25,
		ShortSources: 25,
		Width:        16,
		FlowSize:     10_000,
		Jobs:         8,
		JobEvery:     150 * sim.Millisecond,
		Duration:     1500 * sim.Millisecond,
		Seed:         17,
	}
}

// RunCoflow executes the study for the given schemes under ctx; every
// scheme sees the same seed and hence the same job arrivals. A failed or
// cancelled cell returns the error and no rows.
func RunCoflow(ctx context.Context, schemes []scenario.Scheme, p CoflowParams) ([]CoflowResult, error) {
	if p.Width <= 0 || p.Width > p.ShortSources {
		return nil, fmt.Errorf("coflow width %d: want 1..%d (the short sources)", p.Width, p.ShortSources)
	}
	dp := scenario.PaperDumbbell(p.LongSources, p.ShortSources)
	dp.ByteBuffers = true
	dp.Duration = p.Duration
	dp.SampleEvery = 0 // the study reads job times, not bottleneck telemetry
	dp.Seed = p.Seed
	specs := make([]*scenario.Spec, len(schemes))
	jobs := make([]*coflowTraffic, len(schemes))
	for i, sc := range schemes {
		jobs[i] = &coflowTraffic{p: p, res: CoflowResult{Scheme: sc}}
		specs[i] = dumbbellSpec(sc, dp)
		specs[i].Workload = jobs[i]
		// workload.RunCoflows schedules every arrival on one engine.
		specs[i].Shards = 1
	}
	if _, err := runSpecs(ctx, specs); err != nil {
		return nil, err
	}
	out := make([]CoflowResult, len(schemes))
	for i, job := range jobs {
		out[i] = job.res
	}
	return out, nil
}

// coflowTraffic is the study's scenario.Workload: background elephants
// from the first LongSources hosts, jobs of parallel flows from the rest.
type coflowTraffic struct {
	p   CoflowParams
	co  *workload.Coflows
	res CoflowResult
}

func (w *coflowTraffic) Wire(rc *scenario.RunContext, _ *scenario.Run) {
	d, dp, p := rc.Dumbbell, rc.DumbbellP, w.p
	tcfg := rc.ConfigFor(d.Senders[0])
	d.Receiver.Listen(scenario.DefaultPort, tcp.NewListener(d.Receiver, tcfg, nil))

	workload.StartLongLived(d.Senders[:p.LongSources], d.Receiver.ID, tcfg,
		workload.LongLivedConfig{Port: scenario.DefaultPort, Jitter: dp.LinkDelay, Rng: rc.Rng.Fork()})

	segTime := int64(netem.DefaultMTU) * 8 * sim.Second / dp.BottleneckBps
	w.co = workload.RunCoflows(d.Senders[p.LongSources:], d.Receiver.ID, tcfg,
		workload.CoflowConfig{
			Port:     scenario.DefaultPort,
			Width:    p.Width,
			FlowSize: p.FlowSize,
			Jobs:     p.Jobs,
			FirstJob: 100 * sim.Millisecond,
			JobEvery: p.JobEvery,
			Jitter:   segTime,
			Rng:      rc.Rng.Fork(),
		}, nil)
}

func (w *coflowTraffic) Finish(*scenario.RunContext, *scenario.Run) {
	w.res.JobsAll = w.p.Jobs
	w.res.JobsDone = w.co.JobsCompleted
	for _, j := range w.co.JCTs {
		w.res.JCTms.Add(float64(j) / float64(sim.Millisecond))
	}
	for _, r := range w.co.StragglerRatio {
		w.res.Straggler.Add(r)
	}
}
