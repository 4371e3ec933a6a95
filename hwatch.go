// Package hwatch is a faithful, self-contained reproduction of
// "HWatch: Reducing Latency in Multi-Tenant Data Centers via Cautious
// Congestion Watch" (Abdelmoniem, Bensaou, Susanto — ICPP 2020).
//
// It bundles a deterministic packet-level network simulator (the ns-2
// stand-in), segment-level TCP stacks (NewReno, ECN-responsive and
// non-responsive flavours, DCTCP), the AQM disciplines of commodity
// switches (DropTail, RED, DCTCP threshold marking), and — the
// paper's contribution — the HWatch hypervisor shim that watches ECN
// statistics and steers unmodified guests by rewriting TCP receive
// windows and pacing connection setup.
//
// The package has one name per concept. A run is described by a Spec (the
// JSON form hwatchsim spec:<file> and hwatchd take) and executed by
// RunSpec; Table and JSON render runs. The paper's evaluation is the
// target table: Targets lists every figure, study, ablation and ladder
// rung, and SelectTargets resolves a name as hwatchsim takes it. Every run
// takes a context first and returns an error — cancelling the context
// stops a run mid-flight. All runs are deterministic in their seed.
//
//	spec, err := hwatch.ParseSpec([]byte(`{"kind":"dumbbell","scheme":"hwatch","seed":1}`))
//	if err != nil {
//	    log.Fatal(err)
//	}
//	run, err := hwatch.RunSpec(ctx, spec)
//	if err != nil {
//	    log.Fatal(err)
//	}
//	fmt.Print(hwatch.Table([]*hwatch.Run{run}))
package hwatch

import (
	"context"

	"hwatch/internal/experiments"
	"hwatch/internal/faults"
	"hwatch/internal/scenario"
)

// Spec is the one serialisable description of a run: topology kind,
// scheme or scheme mix, fabric and workload knobs, seed and fault
// timeline. ParseSpec and LoadSpec validate it.
type Spec = scenario.FileSpec

// ParseSpec validates a Spec from JSON bytes.
func ParseSpec(raw []byte) (*Spec, error) { return scenario.ParseSpec(raw) }

// LoadSpec reads and validates a Spec from a JSON file.
func LoadSpec(path string) (*Spec, error) { return scenario.LoadSpec(path) }

// LoadFaults reads a standalone JSON fault-schedule file, the value of a
// Spec's Faults; ParseSpec validates it.
func LoadFaults(path string) ([]scenario.FaultSpec, error) { return scenario.LoadFaults(path) }

// Run is one run's measured outcome: the series the paper's figures plot
// (FCT and goodput CDFs, queue and utilization time series) plus drop,
// mark and timeout totals, shim statistics and the run digest.
type Run = scenario.Run

// RunSpec executes one Spec under ctx.
func RunSpec(ctx context.Context, s *Spec) (*Run, error) { return s.Scenario().RunContext(ctx) }

// Table renders runs as an aligned comparison table.
func Table(runs []*Run) string { return experiments.Table(runs) }

// JSON renders runs as an indented JSON array of summaries.
func JSON(runs []*Run) (string, error) { return experiments.JSON(runs) }

// Target is one row of the target table: a figure, an ablation, an
// extension study or a ladder rung, named kind/name ("fig/fig8",
// "ablation/k", "study/coflow", "rung/storm/websearch"). Its Run executes
// it at a scale and over a scheme set; figures and rungs return runs,
// ablations and studies printable rows.
type Target = experiments.Target

// Targets lists the table: the figures in paper order (Figs. 1, 2, 8, 9,
// 11), the extension studies, the ablations, then the ladder rungs.
func Targets() []Target { return experiments.Targets() }

// SelectTargets resolves a target name as hwatchsim takes it: kind/name,
// a figure's bare name, all (every figure, study and ablation) or ladder
// (every rung).
func SelectTargets(arg string) ([]Target, error) { return experiments.SelectTargets(arg) }

// SpecTarget makes a Spec a target outside the table (hwatchsim
// spec:<file> and scheme:<name>): one run of the spec.
func SpecTarget(kind, name string, s *Spec) Target { return experiments.SpecTarget(kind, name, s) }

// Schemes lists every registered scheme, sorted by name: the paper's four
// and the extension schemes (hwatchsim -list-schemes).
func Schemes() []scenario.Definition { return scenario.Definitions() }

// LookupSchemes resolves scheme names, ignoring case and surrounding
// space; an unknown name errors, listing the registered ones.
func LookupSchemes(names []string) ([]scenario.Scheme, error) { return scenario.LookupSchemes(names) }

// FaultKinds lists every fault kind a Spec's fault timeline can arm, in
// registry order (hwatchsim -list-faults).
func FaultKinds() []faults.KindInfo { return faults.Infos() }

// SetParallel bounds how many runs execute concurrently across every
// target (n <= 0 restores the default, GOMAXPROCS). It never moves a
// digest.
func SetParallel(n int) { experiments.SetParallel(n) }

// SetShards sets how many engine shards a run partitions its fabric across
// when its Spec does not say (n <= 1 is the single-loop engine). It never
// moves a digest.
func SetShards(n int) { scenario.SetDefaultShards(n) }

// SetInvariantChecks arms the physical-invariant checker on every run;
// findings land in Run.InvariantViolations. It never moves a digest.
func SetInvariantChecks(on bool) { scenario.SetInvariantChecks(on) }
