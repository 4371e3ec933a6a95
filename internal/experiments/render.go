package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"hwatch/internal/scenario"
	"hwatch/internal/stats"
)

// Rendering helpers: every figure's data is emitted the way the paper
// plots it — CDFs as "x,P" series, telemetry as "t,value" series — so the
// curves can be regenerated with any plotting tool.

// WriteCDF writes a sample's empirical CDF as CSV ("value,probability").
func WriteCDF(w io.Writer, s *stats.Sample, maxPoints int) error {
	for _, pt := range s.CDF(maxPoints) {
		if _, err := fmt.Fprintf(w, "%g,%g\n", pt.X, pt.P); err != nil {
			return err
		}
	}
	return nil
}

// WriteSeries writes a time series as CSV ("t_ns,value").
func WriteSeries(w io.Writer, ts *stats.TimeSeries) error {
	_, err := io.WriteString(w, ts.CSV())
	return err
}

// SaveRun writes one run's four figure series into dir, named
// <prefix>_fct_cdf.csv, <prefix>_goodput_cdf.csv, <prefix>_queue.csv,
// <prefix>_util.csv.
func SaveRun(dir, prefix string, r *scenario.Run) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	save := func(name string, f func(io.Writer) error) error {
		fh, err := os.Create(filepath.Join(dir, prefix+"_"+name+".csv"))
		if err != nil {
			return err
		}
		defer fh.Close()
		return f(fh)
	}
	if err := save("fct_cdf", func(w io.Writer) error { return WriteCDF(w, &r.ShortFCTms, 2000) }); err != nil {
		return err
	}
	if r.PerSourceAvgMs.N() > 0 {
		if err := save("fct_avg_cdf", func(w io.Writer) error { return WriteCDF(w, &r.PerSourceAvgMs, 2000) }); err != nil {
			return err
		}
		if err := save("fct_var_cdf", func(w io.Writer) error { return WriteCDF(w, &r.PerSourceVarMs, 2000) }); err != nil {
			return err
		}
	}
	if err := save("goodput_cdf", func(w io.Writer) error { return WriteCDF(w, &r.LongGoodputBps, 2000) }); err != nil {
		return err
	}
	if err := save("queue_bytes", func(w io.Writer) error { return WriteSeries(w, &r.QueueBytes) }); err != nil {
		return err
	}
	return save("util", func(w io.Writer) error { return WriteSeries(w, &r.Utilization) })
}

// Summary is the machine-readable digest of one run.
type Summary struct {
	Label        string  `json:"label"`
	FCTP50Ms     float64 `json:"fct_p50_ms"`
	FCTP99Ms     float64 `json:"fct_p99_ms"`
	FCTMeanMs    float64 `json:"fct_mean_ms"`
	GoodputGbps  float64 `json:"goodput_gbps"`
	Fairness     float64 `json:"fairness"`
	QueueMeanPkt float64 `json:"queue_mean_pkts"`
	Drops        int64   `json:"drops"`
	Marks        int64   `json:"marks"`
	Timeouts     int64   `json:"timeouts"`
	ShortDone    int     `json:"short_done"`
	ShortAll     int     `json:"short_all"`
}

// Summarize extracts the digest of a run.
func Summarize(r *scenario.Run) Summary {
	return Summary{
		Label:        r.Label,
		FCTP50Ms:     r.ShortFCTms.Quantile(0.5),
		FCTP99Ms:     r.ShortFCTms.Quantile(0.99),
		FCTMeanMs:    r.ShortFCTms.Mean(),
		GoodputGbps:  r.LongGoodputBps.Mean() / 1e9,
		Fairness:     r.LongFairness,
		QueueMeanPkt: r.QueuePkts.Mean(),
		Drops:        r.Drops,
		Marks:        r.Marks,
		Timeouts:     r.Timeouts,
		ShortDone:    r.ShortDone,
		ShortAll:     r.ShortAll,
	}
}

// JSON renders runs as an indented JSON array of summaries.
func JSON(runs []*scenario.Run) (string, error) {
	out := make([]Summary, 0, len(runs))
	for _, r := range runs {
		out = append(out, Summarize(r))
	}
	b, err := json.MarshalIndent(out, "", "  ")
	return string(b), err
}

// Table renders a set of runs as an aligned comparison table (the textual
// equivalent of one figure's panel set).
func Table(runs []*scenario.Run) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %10s %10s %10s %12s %9s %10s %8s %8s %6s %9s\n",
		"scheme", "fct-p50ms", "fct-p99ms", "fct-mean", "goodput-Gbps", "fairness",
		"queue-mean", "drops", "marks", "rto", "done")
	for _, r := range runs {
		fmt.Fprintf(&b, "%-14s %10.2f %10.2f %10.2f %12.3f %9.3f %10.0f %8d %8d %6d %4d/%d\n",
			r.Label,
			r.ShortFCTms.Quantile(0.5), r.ShortFCTms.Quantile(0.99), r.ShortFCTms.Mean(),
			r.LongGoodputBps.Mean()/1e9, r.LongFairness,
			r.QueuePkts.Mean(),
			r.Drops, r.Marks, r.Timeouts, r.ShortDone, r.ShortAll)
	}
	return b.String()
}
