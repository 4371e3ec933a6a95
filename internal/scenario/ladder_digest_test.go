package scenario

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateLadder = flag.Bool("update", false, "rewrite testdata/ladder_digests.json from this run")

const ladderGoldenPath = "testdata/ladder_digests.json"

// ladderRuns executes every registered rung at its digest scale and
// returns the outcome digests keyed by rung name.
func ladderRuns(t *testing.T) map[string]string {
	t.Helper()
	got := map[string]string{}
	for _, r := range Rungs() {
		run, err := r.Spec(r.DigestScale).RunContext(context.Background())
		if err != nil {
			t.Fatalf("rung %s: %v", r.Name, err)
		}
		got[r.Name] = run.DigestHex()
	}
	return got
}

// TestLadderGoldenDigests pins a golden digest for every ladder rung and
// storm spec, at the rung's digest scale: the scale ladder is the standing
// regression gate for the flat-flow-state work, so each rung's outcome
// must be bit-reproducible the same way the figure scenarios are.
// Regenerate with:
//
//	go test ./internal/scenario -run TestLadderGoldenDigests -args -update
func TestLadderGoldenDigests(t *testing.T) {
	got := ladderRuns(t)

	if *updateLadder {
		if err := os.MkdirAll(filepath.Dir(ladderGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ladderGoldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d ladder digests to %s", len(got), ladderGoldenPath)
		return
	}

	buf, err := os.ReadFile(ladderGoldenPath)
	if err != nil {
		t.Fatalf("missing %s (run with -args -update to create): %v", ladderGoldenPath, err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("rung %s: in golden file but not registered", name)
		} else if g != w {
			t.Errorf("rung %s: digest %s, want %s", name, g, w)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("rung %s: registered but missing from golden file (run -args -update)", name)
		}
	}
}

// TestLadderRegistry sanity-checks the rung registry shape the tools rely
// on: the three ladder factors plus both storm CDFs, stable ordering, and
// digest scales inside (0, 1].
func TestLadderRegistry(t *testing.T) {
	rungs := Rungs()
	if len(rungs) < 5 {
		t.Fatalf("want >= 5 rungs, got %d", len(rungs))
	}
	wantOrder := []string{"ladder/1x", "ladder/10x", "ladder/100x", "storm/websearch", "storm/datamining"}
	for i, w := range wantOrder {
		if rungs[i].Name != w {
			t.Fatalf("rung %d = %s, want %s", i, rungs[i].Name, w)
		}
	}
	factors := map[string]int{"ladder/1x": 1, "ladder/10x": 10, "ladder/100x": 100}
	for _, r := range rungs {
		if r.DigestScale <= 0 || r.DigestScale > 1 {
			t.Errorf("rung %s: digest scale %v out of (0,1]", r.Name, r.DigestScale)
		}
		if f, ok := factors[r.Name]; ok && r.Factor != f {
			t.Errorf("rung %s: factor %d, want %d", r.Name, r.Factor, f)
		}
		if _, ok := LookupRung(r.Name); !ok {
			t.Errorf("rung %s: not resolvable via LookupRung", r.Name)
		}
	}
	if _, err := RunRung(context.Background(), "ladder/nope", 1); err == nil {
		t.Fatal("unknown rung must error")
	}
}

// TestStormRungCompletes smoke-runs the websearch storm at a small scale
// and checks the open-loop accounting: flows start per the plan, some
// complete with FCT samples, and the digest is reproducible run to run.
func TestStormRungCompletes(t *testing.T) {
	r, ok := LookupRung("storm/websearch")
	if !ok {
		t.Fatal("storm/websearch not registered")
	}
	runA, err := r.Spec(0.02).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if runA.ShortAll < 8 {
		t.Fatalf("storm started %d flows, want >= 8", runA.ShortAll)
	}
	if runA.ShortDone == 0 || runA.ShortFCTms.N() == 0 {
		t.Fatalf("no storm flows completed (started %d)", runA.ShortAll)
	}
	if runA.ShortDone > runA.ShortAll {
		t.Fatalf("completed %d > started %d", runA.ShortDone, runA.ShortAll)
	}
	runB, err := r.Spec(0.02).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if runA.DigestHex() != runB.DigestHex() {
		t.Fatalf("storm digest not reproducible: %s vs %s", runA.DigestHex(), runB.DigestHex())
	}
}
