package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
)

// TestLadderShardParityMatrix extends the PDES parity gate to the scale
// ladder and incast storms: every rung's digest must match its checked-in
// single-loop golden at shards ∈ {1, 2, 4} × GOMAXPROCS ∈ {1, 8}. The
// storm rungs are the interesting half — thousands of open-loop flows give
// cross-shard same-instant ties every window. Each rung also fires as many
// events as at shards=1.
func TestLadderShardParityMatrix(t *testing.T) {
	type combo struct{ shards, procs int }
	matrix := []combo{{1, 1}, {1, 8}, {2, 1}, {2, 8}, {4, 1}, {4, 8}}
	if testing.Short() {
		// The event reference still needs one shards=1 cell.
		matrix = []combo{{1, 8}, {2, 8}, {4, 1}}
	}
	raw, err := os.ReadFile(ladderGoldenPath)
	if err != nil {
		t.Fatalf("missing %s (run with -args -update to create): %v", ladderGoldenPath, err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}

	defer SetDefaultShards(0)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	wantEvents := map[string]uint64{} // from the first cell, at shards=1
	for _, c := range matrix {
		t.Run(fmt.Sprintf("shards=%d,procs=%d", c.shards, c.procs), func(t *testing.T) {
			SetDefaultShards(c.shards)
			runtime.GOMAXPROCS(c.procs)
			for name, w := range want {
				r, ok := LookupRung(name)
				if !ok {
					t.Errorf("rung %s: in golden file but not registered", name)
					continue
				}
				run, err := r.Spec(r.DigestScale).RunContext(context.Background())
				if err != nil {
					t.Fatalf("rung %s: %v", name, err)
				}
				if g := run.DigestHex(); g != w {
					t.Errorf("rung %s: digest %s, golden %s", name, g, w)
				}
				if n, ok := wantEvents[name]; !ok {
					wantEvents[name] = run.Events
				} else if run.Events != n {
					t.Errorf("rung %s: %d events, %d at shards=1", name, run.Events, n)
				}
			}
		})
	}
}
