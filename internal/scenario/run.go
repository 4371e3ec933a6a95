package scenario

import (
	"fmt"

	"hwatch/internal/core"
	"hwatch/internal/harness"
	"hwatch/internal/netem"
	"hwatch/internal/stats"
)

// Run is the measured outcome of one scenario run, holding exactly the
// series the paper's figures plot.
type Run struct {
	Label string

	// Short-lived flows (Fig. 1a/2a/8a/9a/11a).
	ShortFCTms stats.Sample // per-flow completion time, milliseconds
	// Per-source average and variance of FCT across the incast epochs —
	// the AVG and VAR CDFs of Fig. 2a.
	PerSourceAvgMs stats.Sample
	PerSourceVarMs stats.Sample
	// Per-short-flow retransmitted segments (proxy for Fig. 1b's per-flow
	// drop counts, observed at the sender like ns-2 traces do).
	ShortRetrans stats.Sample

	// Long-lived flows (Fig. 1c/2c/8b/9b/11b): per-flow goodput in bit/s
	// averaged over the run.
	LongGoodputBps stats.Sample
	// LongFairness is Jain's index over the long flows' goodputs
	// (quantifies the Fig. 2 unfairness).
	LongFairness float64

	// Bottleneck telemetry (Fig. 1d/2b/8c/9c and 2d/8d/9d), sampled once
	// per period on one time axis that the three series share read-only:
	// QueuePkts.T and QueueBytes.T are the whole axis, Utilization.T the
	// axis from its second sample (a window's rate is stamped at its end).
	// Each T is a window with cap == len, so an append copies.
	QueuePkts   stats.TimeSeries
	QueueBytes  stats.TimeSeries
	Utilization stats.TimeSeries // fraction of line rate per sample window

	// Totals.
	Drops     int64 // queue drops at the bottleneck (tail + early)
	Marks     int64 // CE marks applied at the bottleneck
	Timeouts  int64 // RTO expiries across short flows
	ShortDone int
	ShortAll  int

	ShimStats *core.Stats // aggregate over all hosts (shim-deploying schemes)

	// ChaosStats aggregates the per-kind impairment counters of an armed
	// chaos schedule (nil when none armed). Like ShimStats it describes
	// the injected chaos, not the schemes' observable outcome, so Digest
	// excludes it.
	ChaosStats *netem.ImpairStats

	// Execution metadata. WallNs and Events describe the machine that ran
	// the scenario, not the scenario itself, so Digest excludes them.
	WallNs int64 // wall-clock time spent inside the event loop
	// Events counts simulator events executed. An idle Rule 1 epoch of a
	// tracked flow is not one (see ShimStats.EpochsSkipped), and neither
	// is the completion of a packet after which its port's queue was
	// empty and stayed so (see sim.Reservation). The count is the same at
	// any shard count.
	Events uint64

	// InvariantViolations holds the checker's findings when checking was
	// enabled (DumbbellParams.Check / TestbedParams.Check or
	// SetInvariantChecks); empty on a sound run.
	InvariantViolations []string
}

// Digest folds the run's complete observable outcome — every queue and
// utilization sample, every FCT, retransmit and per-source statistic, the
// drop/mark/timeout totals — into one FNV-64 value. Two runs of the same
// spec and seed digest identically at any parallelism; timing metadata is
// deliberately excluded.
func (r *Run) Digest() uint64 {
	d := harness.NewDigest()
	d.String(r.Label)
	d.Floats(r.ShortFCTms.Values())
	d.Floats(r.PerSourceAvgMs.Values())
	d.Floats(r.PerSourceVarMs.Values())
	d.Floats(r.ShortRetrans.Values())
	d.Floats(r.LongGoodputBps.Values())
	d.Float64(r.LongFairness)
	d.Series(r.QueuePkts.T, r.QueuePkts.V)
	d.Series(r.QueueBytes.T, r.QueueBytes.V)
	d.Series(r.Utilization.T, r.Utilization.V)
	d.Int64(r.Drops)
	d.Int64(r.Marks)
	d.Int64(r.Timeouts)
	d.Int(r.ShortDone)
	d.Int(r.ShortAll)
	return d.Sum()
}

// DigestHex renders Digest the way golden files and -digest output print it.
func (r *Run) DigestHex() string { return fmt.Sprintf("%016x", r.Digest()) }

// Summary renders the run's headline numbers in one line.
func (r *Run) Summary() string {
	return fmt.Sprintf("%-12s shortFCT(ms): p50=%.2f p99=%.2f mean=%.2f | longGoodput(Gb/s): mean=%.2f | q(pkts): mean=%.0f | drops=%d marks=%d rto=%d | done=%d/%d",
		r.Label,
		r.ShortFCTms.Quantile(0.5), r.ShortFCTms.Quantile(0.99), r.ShortFCTms.Mean(),
		r.LongGoodputBps.Mean()/1e9,
		r.QueuePkts.Mean(),
		r.Drops, r.Marks, r.Timeouts, r.ShortDone, r.ShortAll)
}
