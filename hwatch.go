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
// The package surface mirrors the paper's evaluation as one table:
// Targets lists every named experiment (the data figures, the ablations
// over the design choices, the extension studies and the ladder rungs;
// FigRuns runs one figure by name); RunDumbbell/RunTestbed run single
// scenarios and a Scenario describes any other. Every entry point takes a
// context first and returns an error — cancelling the context stops a run
// mid-flight; the root context belongs to main (signal.NotifyContext, so
// Ctrl-C cancels). All runs are deterministic in their Seed.
//
//	runs, err := hwatch.FigRuns(ctx, "fig8", 1.0) // the 50-source scheme comparison
//	if err != nil {
//	    log.Fatal(err)
//	}
//	fmt.Print(hwatch.Table(runs)) // DropTail, RED, HWatch, DCTCP
package hwatch

import (
	"context"

	"hwatch/internal/core"
	"hwatch/internal/experiments"
	"hwatch/internal/faults"
	"hwatch/internal/harness"
	"hwatch/internal/scenario"
	"hwatch/internal/stats"
	"hwatch/internal/tcp"
)

// SetParallel bounds how many scenario runs execute concurrently across
// every figure, ablation and study (n <= 0 restores the default,
// GOMAXPROCS). Parallelism never affects results: every run owns its
// simulation engine and seeded RNG, so the same spec and seed digest
// identically at any setting. Process-wide, like SetShards.
func SetParallel(n int) { experiments.SetParallel(n) }

// SetShards sets how many engine shards every subsequent run partitions
// its fabric across when its scenario does not say (n <= 1 restores the
// default single-loop engine). Sharding is an execution detail, never a
// scenario parameter: the conservative-lookahead windows and the
// causal-rank event order keep every run's digest byte-identical at any
// shard count and any GOMAXPROCS — the only thing that changes is
// wall-clock time.
func SetShards(n int) { scenario.SetDefaultShards(n) }

// SetInvariantChecks enables the physical-invariant checker (packet
// conservation at the bottleneck, TCP sequence monotonicity, cwnd/rwnd
// floors) on every subsequent run; findings land in
// Run.InvariantViolations. It is the process-wide default that
// Scenario.Check adds to: a run is checked when either is on. Checking
// never moves a digest.
func SetInvariantChecks(on bool) { scenario.SetInvariantChecks(on) }

// SeedFor derives a deterministic per-run seed from a spec identity string
// and a base seed (FNV-64a of the spec, mixed with the base through one
// splitmix64 step).
func SeedFor(spec string, base int64) int64 { return harness.SeedFor(spec, base) }

// Scheme names one of the registered end-to-end systems. The value is
// the registry key ("dctcp", "hwatch", ...); String renders the display
// label the figures print.
type Scheme = scenario.Scheme

// The paper's four schemes (Figs. 8-9).
const (
	DropTail = scenario.DropTail
	RED      = scenario.RED
	DCTCP    = scenario.DCTCP
	HWatch   = scenario.HWatch
)

// Extension schemes registered out of the box.
const (
	CubicRED  = scenario.CubicRED
	DCTCPSack = scenario.DCTCPSack
	HWatchOvS = scenario.HWatchOvS
	RenoECN   = scenario.RenoECN
	RenoDeaf  = scenario.RenoDeaf
)

// AllSchemes lists the comparison set in the paper's order.
func AllSchemes() []Scheme { return scenario.AllSchemes() }

// SchemeDef is one registered scheme: display label plus factories for
// the guest stack, the bottleneck queue discipline and an optional
// hypervisor-shim deployment.
type SchemeDef = scenario.Definition

// SchemeEnv carries the fabric-level quantities a scheme definition may
// need (buffer sizes, mean packet time, base RTT, run RNG and clock).
type SchemeEnv = scenario.Env

// ShimDeployment installs a scheme's hypervisor shims on a scenario's
// hosts and returns them for stats aggregation.
type ShimDeployment = scenario.Deployment

// RegisterScheme adds a scheme definition to the registry; it becomes
// available to RunDumbbell, JSON specs, the studies' scheme sets and
// hwatchsim scheme:<name> without touching any figure code. Panics on
// duplicate or invalid definitions.
func RegisterScheme(def SchemeDef) { scenario.Register(def) }

// Schemes lists every registered scheme definition, sorted by name.
func Schemes() []SchemeDef { return scenario.Definitions() }

// LookupSchemes resolves scheme names, ignoring case and surrounding
// space; an unknown name errors, listing the registered ones.
func LookupSchemes(names []string) ([]Scheme, error) { return scenario.LookupSchemes(names) }

// Scenario is the declarative description the unified run path executes:
// a topology kind, one or more registered schemes (more than one = mixed
// tenancy), a workload and observers, and as data the guest-stack and
// shim-setting overrides (Guest, Shim); Scenario.RunContext(ctx) runs it.
// Every target of the table is a list of these.
type Scenario = scenario.Spec

// SchemeShare assigns a scheme a relative host share in a mixed-tenancy
// Scenario.
type SchemeShare = scenario.Share

// Scenario topology kinds.
const (
	KindDumbbell = scenario.KindDumbbell
	KindTestbed  = scenario.KindTestbed
)

// FaultKindInfo describes one fault kind: its doc line, whether it
// covers a window, and the JSON fields it reads.
type FaultKindInfo = faults.KindInfo

// FaultKinds lists every fault kind a Scenario's fault timeline can arm
// (link flaps, ECN blackholes, shim crashes, probe blackouts, burst loss
// and the impairment matrix), in registry order (hwatchsim -list-faults).
func FaultKinds() []FaultKindInfo { return faults.Infos() }

// LoadFaults reads a standalone JSON fault-schedule file, the value of a
// Spec's Faults; ParseSpec validates it.
func LoadFaults(path string) ([]scenario.FaultSpec, error) { return scenario.LoadFaults(path) }

// Run is one scenario's measured outcome: the exact series the paper's
// figures plot (FCT CDFs, goodput CDFs, queue and utilization time series)
// plus drop/mark/timeout totals.
type Run = scenario.Run

// DumbbellParams parameterizes the ns-2-style scenarios (Figs. 1, 2, 8, 9).
type DumbbellParams = scenario.DumbbellParams

// TestbedParams parameterizes the leaf-spine testbed scenario (Fig. 11).
type TestbedParams = scenario.TestbedParams

// ShimConfig is the HWatch hypervisor-module configuration (probe train,
// window policy, SYN-ACK pacing, ECT dyeing).
type ShimConfig = core.Config

// TCPConfig is a guest stack configuration.
type TCPConfig = tcp.Config

// Sample and TimeSeries are the measurement containers inside Run.
type (
	Sample     = stats.Sample
	TimeSeries = stats.TimeSeries
)

// PaperDumbbell returns the paper's dumbbell parameters (10 Gb/s, 100 us
// RTT, 250-packet buffer, 20% marking, minRTO 200 ms) for the given
// long/short source split.
func PaperDumbbell(longN, shortN int) DumbbellParams {
	return scenario.PaperDumbbell(longN, shortN)
}

// PaperTestbed returns the paper's 4-rack 84-host testbed parameters.
func PaperTestbed() TestbedParams { return scenario.PaperTestbed() }

// DefaultShimConfig returns the paper's HWatch deployment parameters for a
// fabric with the given base RTT (ns).
func DefaultShimConfig(baseRTT int64) ShimConfig { return core.DefaultConfig(baseRTT) }

// DefaultTCPConfig mirrors a Linux data-center host's stack (MSS for
// 1500-byte frames, ICW 10, minRTO 200 ms).
func DefaultTCPConfig() TCPConfig { return tcp.DefaultConfig() }

// DCTCPTCPConfig returns the DCTCP guest configuration.
func DCTCPTCPConfig() TCPConfig { return tcp.DCTCPConfig() }

// RunDumbbell executes one scheme on the dumbbell scenario under ctx.
func RunDumbbell(ctx context.Context, s Scheme, p DumbbellParams) (*Run, error) {
	return scenario.RunDumbbell(ctx, s, p)
}

// RunTestbed executes the leaf-spine scenario with or without HWatch.
func RunTestbed(ctx context.Context, withHWatch bool, p TestbedParams) (*Run, error) {
	return scenario.RunTestbed(ctx, withHWatch, p)
}

// Target is one row of the target table: a figure, an ablation, an
// extension study or a ladder rung, named kind/name ("fig/fig8",
// "ablation/k", "study/coflow", "rung/storm/websearch"). Its Run executes
// it at a scale and over a scheme set; figures and rungs return runs,
// ablations and studies printable rows. hwatchsim and hwatchd run the same
// rows.
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

// FigRuns executes one named figure under ctx and returns its runs in the
// figure's curve order; an unknown name errors, listing the figures.
func FigRuns(ctx context.Context, name string, scale float64) ([]*Run, error) {
	return experiments.FigRuns(ctx, name, scale)
}

// EmpiricalParams and EmpiricalResult belong to the trace-driven extension
// study (web-search / data-mining flow sizes under Poisson load).
type (
	EmpiricalParams = experiments.EmpiricalParams
	EmpiricalResult = experiments.EmpiricalResult
)

// DefaultEmpirical returns the web-search Poisson workload on the paper's
// dumbbell.
func DefaultEmpirical() EmpiricalParams { return experiments.DefaultEmpirical() }

// RunEmpirical executes the trace-driven study for the given schemes.
func RunEmpirical(ctx context.Context, schemes []Scheme, p EmpiricalParams) ([]EmpiricalResult, error) {
	return experiments.RunEmpirical(ctx, schemes, p)
}

// CoflowParams and CoflowResult belong to the job-completion extension
// study (partition-aggregate jobs of parallel flows; the application-level
// metric the paper's introduction motivates).
type (
	CoflowParams = experiments.CoflowParams
	CoflowResult = experiments.CoflowResult
)

// DefaultCoflow returns partition-aggregate jobs on the paper's dumbbell.
func DefaultCoflow() CoflowParams { return experiments.DefaultCoflow() }

// RunCoflow executes the job-completion study for the given schemes.
func RunCoflow(ctx context.Context, schemes []Scheme, p CoflowParams) ([]CoflowResult, error) {
	return experiments.RunCoflow(ctx, schemes, p)
}

// IncastSweepParams and IncastPoint belong to the incast-cliff sweep: FCT
// vs. number of synchronized senders, per scheme.
type (
	IncastSweepParams = experiments.IncastSweepParams
	IncastPoint       = experiments.IncastPoint
)

// DefaultIncastSweep sweeps degrees 8-64 on the paper's dumbbell.
func DefaultIncastSweep() IncastSweepParams { return experiments.DefaultIncastSweep() }

// RunIncastSweep executes the cliff sweep for the given schemes.
func RunIncastSweep(ctx context.Context, schemes []Scheme, p IncastSweepParams) ([]IncastPoint, error) {
	return experiments.RunIncastSweep(ctx, schemes, p)
}

// Rung is one step of the benchmark scale ladder: a named scenario at a
// fixed multiple of the paper's testbed (1x/10x/100x) or an open-loop
// incast storm drawn from an empirical flow-size CDF. Rungs back the
// bench-ladder regression gate (`make bench-ladder`, cmd/benchdiff),
// carry their own golden digests and are the table's rung/<name> targets.
type Rung = scenario.Rung

// RegisterRung adds a rung to the ladder registry; it becomes the target
// rung/<name> of hwatchsim and hwatchd and joins the bench-ladder
// tooling. Panics on duplicate names.
func RegisterRung(r Rung) { scenario.RegisterRung(r) }

// Spec is a JSON-file description of a runnable scenario (hwatchsim
// spec:file.json); Spec.Scenario() converts it to a Scenario.
type Spec = scenario.FileSpec

// LoadSpec reads and validates a scenario spec from a JSON file.
func LoadSpec(path string) (*Spec, error) { return scenario.LoadSpec(path) }

// ParseSpec validates a scenario spec from JSON bytes.
func ParseSpec(raw []byte) (*Spec, error) { return scenario.ParseSpec(raw) }

// Table renders runs as an aligned comparison table.
func Table(runs []*Run) string { return experiments.Table(runs) }

// JSON renders runs as an indented JSON array of summaries.
func JSON(runs []*Run) (string, error) { return experiments.JSON(runs) }

// SaveRun writes a run's figure series (FCT CDF, goodput CDF, queue and
// utilization series) as CSV files under dir with the given prefix.
func SaveRun(dir, prefix string, r *Run) error { return experiments.SaveRun(dir, prefix, r) }
