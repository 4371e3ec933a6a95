package server

import (
	"strings"
	"testing"

	"hwatch/internal/experiments"
)

// TestParseJobNamesAreTheTables pins the job kinds to the experiment
// tables: parseJob accepts exactly the names the figure, ablation and
// study tables list, and a made-up name is rejected with an error that
// lists the table. There is no second copy of the names to drift.
func TestParseJobNamesAreTheTables(t *testing.T) {
	kinds := map[string][]string{}
	for _, f := range experiments.Figures() {
		kinds["fig"] = append(kinds["fig"], f.Name)
	}
	for _, a := range experiments.Ablations() {
		kinds["ablation"] = append(kinds["ablation"], a.Name)
	}
	for _, s := range experiments.Studies() {
		kinds["study"] = append(kinds["study"], s.Name)
	}
	if len(kinds["fig"]) != 5 || len(kinds["ablation"]) != 6 || len(kinds["study"]) != 3 {
		t.Fatalf("tables list %d figures, %d ablations, %d studies; the paper's evaluation has 5, 6 and 3",
			len(kinds["fig"]), len(kinds["ablation"]), len(kinds["study"]))
	}
	digests := map[string]string{}
	for kind, names := range kinds {
		for _, name := range names {
			p, digest, err := parseJob(&JobRequest{Kind: kind, Name: name, Scale: 0.1})
			if err != nil {
				t.Errorf("%s %q is in the table but parseJob rejects it: %v", kind, name, err)
				continue
			}
			if p.kind != kind || p.name != name {
				t.Errorf("%s %q parsed as %s %q", kind, name, p.kind, p.name)
			}
			if prev, dup := digests[digest]; dup {
				t.Errorf("%s %q shares its content address with %s", kind, name, prev)
			}
			digests[digest] = kind + " " + name
		}
		_, _, err := parseJob(&JobRequest{Kind: kind, Name: "no-such-name"})
		if err == nil {
			t.Errorf("%s job with a made-up name was accepted", kind)
			continue
		}
		for _, name := range names {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("%s: error %q does not list the table's %q", kind, err, name)
			}
		}
		// A name from another kind's table is just as unknown here.
		for other, otherNames := range kinds {
			if other == kind {
				continue
			}
			if _, _, err := parseJob(&JobRequest{Kind: kind, Name: otherNames[0]}); err == nil {
				t.Errorf("%s job accepted the %s name %q", kind, other, otherNames[0])
			}
		}
	}
}
