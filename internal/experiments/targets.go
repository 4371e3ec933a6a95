package experiments

import (
	"context"
	"fmt"
	"io"
	"regexp"
	"strings"

	"hwatch/internal/scenario"
)

// Target is one row of the target table: a named experiment (a figure, an
// ablation, an extension study or a ladder rung) that every front end
// finds and runs the same way. hwatchsim takes targets as arguments and
// hwatchd jobs name them; the table is the only place that knows which
// experiments exist.
type Target struct {
	// Kind and Name are the target's identity, written kind/name:
	// "fig/fig8", "ablation/k", "study/coflow", "rung/storm/websearch".
	// A hwatchd job carries them as its kind and name.
	Kind, Name string
	// Title heads the target's printed block; Caption says what it shows.
	Title, Caption string
	// Keys names a figure's curves in run order (nil for other kinds).
	Keys []string
	// Scaled and Schemed say which settings Run reads: a scale in (0,1],
	// a scheme set (nil = the paper's four). A setting Run does not read
	// is no part of the target's identity.
	Scaled, Schemed bool
	// Spec is the FileSpec a SpecTarget runs (nil for the table's rows);
	// its canonical digest is the job id hwatchd gives it.
	Spec *scenario.FileSpec
	// Run executes the target under ctx. Figures and rungs return runs,
	// ablations and studies printable rows. progress, when non-nil, is
	// handed to a rung's one spec; the other kinds run many specs through
	// the pool and ignore it.
	Run func(ctx context.Context, scale float64, schemes []scenario.Scheme,
		progress func(simNow int64, processed uint64)) ([]*scenario.Run, []string, error)
}

// ID is the target's name on the command line: kind/name.
func (t Target) ID() string { return t.Kind + "/" + t.Name }

// Targets lists the table: the figures in paper order, the extension
// studies, the ablations, then every registered ladder rung. The rungs are
// read from their registry on each call, so a rung registered after init
// is a target too.
func Targets() []Target {
	ts := append([]Target(nil), fixedTargets...)
	for _, r := range scenario.Rungs() {
		ts = append(ts, rungTarget(r))
	}
	return ts
}

// LookupTarget finds a target by kind and name; the error lists the table.
// hwatchd calls it on every request, cache hits included, so a hit builds
// no table.
func LookupTarget(kind, name string) (Target, error) {
	for _, t := range fixedTargets {
		if t.Kind == kind && t.Name == name {
			return t, nil
		}
	}
	if r, ok := scenario.LookupRung(name); ok && kind == "rung" {
		return rungTarget(r), nil
	}
	return find("target", Targets(), Target.ID, kind+"/"+name)
}

// fixedTargets is the part of the table that is fixed at build time: the
// figure, study and ablation tables as targets.
var fixedTargets = func() []Target {
	var ts []Target
	for _, f := range figures {
		ts = append(ts, Target{Kind: "fig", Name: f.Name, Caption: f.Caption,
			Title: "Figure " + strings.TrimPrefix(f.Name, "fig"), Keys: f.Keys, Scaled: true,
			Run: func(ctx context.Context, scale float64, _ []scenario.Scheme, _ func(int64, uint64)) ([]*scenario.Run, []string, error) {
				runs, err := f.Run(ctx, scale)
				return runs, nil, err
			}})
	}
	ts = append(ts, studies...)
	for _, a := range ablations {
		ts = append(ts, Target{Kind: "ablation", Name: a.Name, Title: "ablation " + a.Name, Caption: a.Caption, Scaled: true,
			Run: func(ctx context.Context, scale float64, _ []scenario.Scheme, _ func(int64, uint64)) ([]*scenario.Run, []string, error) {
				rows, err := rows(a.Run(ctx, scale))
				return nil, rows, err
			}})
	}
	return ts
}()

func rungTarget(r scenario.Rung) Target {
	return Target{Kind: "rung", Name: r.Name, Title: "rung " + r.Name, Caption: r.Description, Scaled: true,
		Run: func(ctx context.Context, scale float64, _ []scenario.Scheme, progress func(int64, uint64)) ([]*scenario.Run, []string, error) {
			return runOne(ctx, r.Spec(scale), progress)
		}}
}

// SelectTargets resolves a target name as hwatchsim takes it: kind/name,
// a figure's bare name, all (every figure, study and ablation) or ladder
// (every rung). An unknown name errors, listing the table.
func SelectTargets(arg string) ([]Target, error) {
	var out []Target
	for _, t := range Targets() {
		if arg == t.ID() || arg == "all" && t.Kind != "rung" || arg == "ladder" && t.Kind == "rung" ||
			t.Kind == "fig" && arg == t.Name {
			out = append(out, t)
		}
	}
	if len(out) == 0 {
		_, err := find("target", Targets(), Target.ID, arg)
		return nil, err
	}
	return out, nil
}

// SpecTarget makes a FileSpec a target outside the table, kind:name on
// the command line (spec:<file>, scheme:<name>): one run of the spec.
func SpecTarget(kind, name string, fs *scenario.FileSpec) Target {
	return Target{Kind: kind, Name: name, Title: kind + ":" + name, Caption: fs.Kind + " scenario", Spec: fs,
		Run: func(ctx context.Context, _ float64, _ []scenario.Scheme, progress func(int64, uint64)) ([]*scenario.Run, []string, error) {
			return runOne(ctx, fs.Scenario(), progress)
		}}
}

func runOne(ctx context.Context, s *scenario.Spec, progress func(int64, uint64)) ([]*scenario.Run, []string, error) {
	s.Progress = progress
	run, err := s.RunContext(ctx)
	if err != nil {
		return nil, nil, err
	}
	return []*scenario.Run{run}, nil, nil
}

// Print writes a target's outcome as one titled block: the note (when
// not empty), the runs' comparison table, each invariant violation, the
// short-flow FCT variance, then the rows. It returns the violation count.
func (t Target) Print(w io.Writer, note string, runs []*scenario.Run, rows []string) (violations int) {
	fmt.Fprintf(w, "\n== %s — %s ==\n", t.Title, t.Caption)
	if note != "" {
		fmt.Fprintln(w, note)
	}
	if len(runs) > 0 {
		fmt.Fprint(w, Table(runs))
		var variances []string
		for _, r := range runs {
			for _, v := range r.InvariantViolations {
				violations++
				fmt.Fprintf(w, "!! invariant violation [%s]: %s\n", r.Label, v)
			}
			variances = append(variances, fmt.Sprintf("%s=%.1f ms^2", r.Label, r.ShortFCTms.Var()))
		}
		fmt.Fprintf(w, "FCT variance: %s\n", strings.Join(variances, ", "))
	}
	for _, row := range rows {
		fmt.Fprintln(w, row)
	}
	return violations
}

// Save writes the runs' CSV curves under dir, one csvPrefix per run, and
// the gnuplot scripts that draw them.
func (t Target) Save(dir string, runs []*scenario.Run) error {
	var labels, prefixes []string
	for i, r := range runs {
		curve := r.Label
		if i < len(t.Keys) {
			curve = t.Keys[i]
		}
		prefix := csvPrefix(t.Name, curve)
		if err := SaveRun(dir, prefix, r); err != nil {
			return fmt.Errorf("saving %s: %w", prefix, err)
		}
		labels, prefixes = append(labels, r.Label), append(prefixes, prefix)
	}
	return WriteFigurePlots(dir, unsafeFileChars.ReplaceAllString(t.Name, "_"), labels, prefixes)
}

// csvPrefix names one curve's CSV files: the target's name and the
// curve's key (a figure's) or run label, with every character but letters,
// digits and '-' made '_' ("fig2_mix_hwatch", "fig8_tcp-droptail").
func csvPrefix(name, curve string) string {
	return unsafeFileChars.ReplaceAllString(name+"_"+curve, "_")
}

var unsafeFileChars = regexp.MustCompile(`[^A-Za-z0-9-]`)
