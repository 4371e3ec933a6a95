// Package suite assembles the hwatchvet analyzer set: the seven custom
// contract analyzers plus the two standard go/analysis passes that stock
// `go vet` does not run.
//
// The vendored x/tools subset carries an offline go/ssa layer (naive-form
// IR built over the go/cfg graphs, see vendor/golang.org/x/tools/go/ssa),
// which backs the standard passes nilness and unusedwrite and the custom
// concurrency and purity contracts lockscope, hookpure, and ctxflow.
// DESIGN.md §6k documents the SSA layer and the three contract analyzers.
// Every pass `go tool vet help` lists runs under `go vet ./...`, which
// `make lint` and CI run before hwatchvet; none of them belongs here.
//
// Standard() must stay sorted by analyzer name with no duplicates;
// suite_test.go enforces both.
package suite

import (
	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/nilness"
	"golang.org/x/tools/go/analysis/passes/unusedwrite"

	"hwatch/internal/analysis/ctxflow"
	"hwatch/internal/analysis/detrand"
	"hwatch/internal/analysis/directive"
	"hwatch/internal/analysis/hookpure"
	"hwatch/internal/analysis/lockscope"
	"hwatch/internal/analysis/pktown"
	"hwatch/internal/analysis/schedclosure"
)

// Custom returns the hwatchvet contract analyzers. directive must run
// last-registered so its stale-allow report sees every other analyzer's
// Used map.
func Custom() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		detrand.Analyzer,
		pktown.Analyzer,
		schedclosure.Analyzer,
		lockscope.Analyzer,
		hookpure.Analyzer,
		ctxflow.Analyzer,
		directive.Analyzer,
	}
}

// Standard returns the vendored x/tools passes hwatchvet runs alongside
// the custom set — the ones `go vet` lacks — sorted by name.
func Standard() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		nilness.Analyzer,
		unusedwrite.Analyzer,
	}
}

// All returns the full hwatchvet suite.
func All() []*analysis.Analyzer {
	return append(Custom(), Standard()...)
}
