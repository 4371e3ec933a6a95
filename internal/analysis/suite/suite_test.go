package suite

import (
	"slices"
	"sort"
	"testing"

	"golang.org/x/tools/go/analysis"
)

// TestStandardSortedNoDuplicates pins the package-comment contract: the
// curated standard-pass list stays sorted by analyzer name and never
// registers a pass twice (a duplicate would run the pass twice and
// double-report every diagnostic).
func TestStandardSortedNoDuplicates(t *testing.T) {
	std := Standard()
	names := make([]string, 0, len(std))
	for _, a := range std {
		names = append(names, a.Name)
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("Standard() is not sorted by analyzer name: %v", names)
	}
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if seen[n] {
			t.Errorf("Standard() registers %q twice", n)
		}
		seen[n] = true
	}
}

// TestStandardHoldsOnlyWhatGoVetLacks pins the division of labour with the
// stock tool: `make lint` and CI run `go vet ./...` first, so a pass that
// `go tool vet help` lists (assign, copylock, lostcancel, stringintconv, …)
// would run twice if it were registered here as well.
func TestStandardHoldsOnlyWhatGoVetLacks(t *testing.T) {
	got := analyzerNames(Standard())
	want := []string{"nilness", "unusedwrite"}
	if !slices.Equal(got, want) {
		t.Fatalf("Standard() = %v, want %v: vendor a pass only when go vet does not run it", got, want)
	}
}

// TestAllNoDuplicates extends the uniqueness check across the full suite:
// a custom analyzer must never shadow a standard pass's name (the allow
// directives address analyzers by name).
func TestAllNoDuplicates(t *testing.T) {
	seen := make(map[string]bool)
	for _, a := range All() {
		if a.Name == "" {
			t.Error("suite contains an analyzer with an empty name")
		}
		if seen[a.Name] {
			t.Errorf("suite registers analyzer %q twice", a.Name)
		}
		seen[a.Name] = true
	}
}

// TestDirectiveRunsLast pins the ordering contract Custom documents: the
// directive analyzer must be registered last so its stale-allow report
// sees every other analyzer's Used map.
func TestDirectiveRunsLast(t *testing.T) {
	c := Custom()
	if len(c) == 0 || c[len(c)-1].Name != "hwatchdirective" {
		t.Fatalf("directive analyzer must be last in Custom(); got order %v", analyzerNames(c))
	}
}

func analyzerNames(as []*analysis.Analyzer) []string {
	out := make([]string, 0, len(as))
	for _, a := range as {
		out = append(out, a.Name)
	}
	return out
}
