package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"hwatch/internal/scenario"
)

// readGolden loads the checked-in digest map the parity matrix compares
// against: the goldens are recorded single-loop, so matching them at every
// (shards, GOMAXPROCS) combination proves sharding is execution-invisible.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden digests (regenerate with -args -update): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parsing %s: %v", goldenPath, err)
	}
	return want
}

// TestShardDigestParityMatrix is the PDES determinism gate: every golden
// scenario (the 13 figure digests plus the two chaos schedules) must be
// byte-identical to its checked-in digest at shards ∈ {1, 2, 4} ×
// GOMAXPROCS ∈ {1, 8}. Any cross-shard ordering leak — a merge that
// depends on which worker finished first, a rank chain that differs by
// partition — lands here as a digest mismatch naming the run and combo.
// The event count is shard-count invariant too: each run fires as many
// events as at shards=1.
func TestShardDigestParityMatrix(t *testing.T) {
	type combo struct{ shards, procs int }
	matrix := []combo{{1, 1}, {1, 8}, {2, 1}, {2, 8}, {4, 1}, {4, 8}}
	if testing.Short() {
		// The event reference still needs one shards=1 cell.
		matrix = []combo{{1, 8}, {2, 8}, {4, 1}}
	}
	want := readGolden(t)

	defer scenario.SetDefaultShards(0)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var wantEvents map[string]uint64 // from the first cell, at shards=1
	for _, c := range matrix {
		t.Run(fmt.Sprintf("shards=%d,procs=%d", c.shards, c.procs), func(t *testing.T) {
			scenario.SetDefaultShards(c.shards)
			runtime.GOMAXPROCS(c.procs)
			got, events := goldenRuns(t)
			if wantEvents == nil {
				wantEvents = events
			}
			for k, w := range want {
				if g, ok := got[k]; !ok {
					t.Errorf("%s: missing from run", k)
				} else if g != w {
					t.Errorf("%s: digest %s, golden %s", k, g, w)
				}
				if events[k] != wantEvents[k] {
					t.Errorf("%s: %d events, %d at shards=1", k, events[k], wantEvents[k])
				}
			}
		})
	}
}
