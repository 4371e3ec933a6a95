package experiments

import (
	"context"
	"fmt"

	"hwatch/internal/scenario"
)

// studies is the extension-study part of the target table: each study
// runs at its default parameters over a scheme set and prints one row per
// cell.
var studies = []Target{
	studyTarget("empirical", "web-search Poisson workload (extension)",
		func(ctx context.Context, set []scenario.Scheme) ([]string, error) {
			return rows(RunEmpirical(ctx, set, DefaultEmpirical()))
		}),
	studyTarget("coflow", "job completion times, 16-wide jobs (extension)",
		func(ctx context.Context, set []scenario.Scheme) ([]string, error) {
			return rows(RunCoflow(ctx, set, DefaultCoflow()))
		}),
	studyTarget("incast", "latency cliff vs synchronized senders (extension)",
		func(ctx context.Context, set []scenario.Scheme) ([]string, error) {
			return rows(RunIncastSweep(ctx, set, DefaultIncastSweep()))
		}),
}

// studyTarget makes a study a target; a nil scheme set runs it over the
// paper's four.
func studyTarget(name, caption string, run func(context.Context, []scenario.Scheme) ([]string, error)) Target {
	return Target{Kind: "study", Name: name, Title: name, Caption: caption, Schemed: true,
		Run: func(ctx context.Context, _ float64, set []scenario.Scheme, _ func(int64, uint64)) ([]*scenario.Run, []string, error) {
			if len(set) == 0 {
				set = scenario.AllSchemes()
			}
			rows, err := run(ctx, set)
			return nil, rows, err
		}}
}

func rows[T fmt.Stringer](items []T, err error) ([]string, error) {
	if err != nil {
		return nil, err
	}
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = it.String()
	}
	return out, nil
}
