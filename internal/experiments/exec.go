// Package experiments reproduces every data figure of the HWatch paper:
// the DCTCP initial-window study (Fig. 1), the congestion-controller
// coexistence study (Fig. 2), the 50- and 100-source scheme comparisons
// (Figs. 8-9), the leaf-spine testbed experiment (Fig. 11), the ablations
// DESIGN.md calls out and three extension studies. Each is one row of a
// table (Figures, Ablations, Studies) that declares scenario.Specs —
// topology kind, registered scheme name(s), workload — and every row
// executes through the same path: the harness pool over Spec.RunContext.
package experiments

import (
	"context"
	"fmt"
	"sync/atomic"

	"hwatch/internal/harness"
	"hwatch/internal/scenario"
)

var parallel atomic.Int64

// SetParallel bounds how many scenario runs execute concurrently across
// every figure, ablation and study (n <= 0 restores the default,
// GOMAXPROCS). Parallelism never affects results: each run owns its engine
// and seeded RNG. With scenario.SetDefaultShards it is one of the two
// process-wide execution defaults bench/ pins; CLIs set both from flags.
func SetParallel(n int) {
	if n < 0 {
		n = 0
	}
	parallel.Store(int64(n))
}

func parallelN() int {
	if n := int(parallel.Load()); n > 0 {
		return n
	}
	return harness.DefaultParallel()
}

// runSpecs executes the specs through the harness pool and returns their
// runs in spec order: the one way any experiment reaches the simulator.
// On a failed or cancelled spec it returns the first error and no runs.
func runSpecs(ctx context.Context, specs []*scenario.Spec) ([]*scenario.Run, error) {
	runs, err := harness.Map(ctx, parallelN(), specs,
		func(ctx context.Context, s *scenario.Spec) (*scenario.Run, error) {
			return s.RunContext(ctx)
		})
	if err != nil {
		return nil, err
	}
	return runs, nil
}

// find looks want up in one of the name tables; the error lists the
// table's names in table order.
func find[T any](kind string, table []T, name func(T) string, want string) (T, error) {
	names := make([]string, len(table))
	for i, e := range table {
		if names[i] = name(e); names[i] == want {
			return e, nil
		}
	}
	var zero T
	return zero, fmt.Errorf("unknown %s %q: the %s table has %v", kind, want, kind, names)
}
