package experiments

import (
	"context"
	"fmt"

	"hwatch/internal/scenario"
)

// Study is one row of the study table: an extension study run with its
// default parameters over a scheme set, rendered as table rows.
type Study struct {
	// Name is what sweep -what and hwatchd "study" jobs call the study.
	Name    string
	Caption string
	// Run executes the study for the given schemes under ctx and returns
	// one printable row per cell.
	Run func(ctx context.Context, schemes []scenario.Scheme) ([]string, error)
}

var studies = []Study{
	{"empirical", "web-search Poisson workload (extension)",
		func(ctx context.Context, set []scenario.Scheme) ([]string, error) {
			return rows(RunEmpirical(ctx, set, DefaultEmpirical()))
		}},
	{"coflow", "job completion times, 16-wide jobs (extension)",
		func(ctx context.Context, set []scenario.Scheme) ([]string, error) {
			return rows(RunCoflow(ctx, set, DefaultCoflow()))
		}},
	{"incast", "latency cliff vs synchronized senders (extension)",
		func(ctx context.Context, set []scenario.Scheme) ([]string, error) {
			return rows(RunIncastSweep(ctx, set, DefaultIncastSweep()))
		}},
}

// Studies lists the extension studies in the order sweep -what all runs
// them.
func Studies() []Study { return append([]Study(nil), studies...) }

// LookupStudy finds a study by name.
func LookupStudy(name string) (Study, error) {
	return find("study", studies, func(s Study) string { return s.Name }, name)
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
