// Package hwatch is a faithful, self-contained reproduction of
// "HWatch: Reducing Latency in Multi-Tenant Data Centers via Cautious
// Congestion Watch" (Abdelmoniem, Bensaou, Susanto — ICPP 2020).
//
// It bundles a deterministic packet-level network simulator (the ns-2
// stand-in), segment-level TCP stacks (NewReno, ECN-responsive and
// non-responsive flavours, DCTCP), the AQM disciplines of commodity
// switches (DropTail, RED, WRED, DCTCP threshold marking), and — the
// paper's contribution — the HWatch hypervisor shim that watches ECN
// statistics and steers unmodified guests by rewriting TCP receive
// windows and pacing connection setup.
//
// The package surface mirrors the paper's evaluation, one table per kind
// of name: Figures lists each data figure (FigRuns runs one by name),
// Ablations the sweeps over the design choices, Studies the extension
// studies; RunDumbbell/RunTestbed run single scenarios and a Scenario
// describes any other. Every entry point takes a context first and
// returns an error — cancelling the context stops a run mid-flight; the
// root context belongs to main (signal.NotifyContext, so Ctrl-C cancels).
// All runs are deterministic in their Seed.
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
// scenario parameter: the conservative-lookahead windows and deterministic
// merge keep every run's digest byte-identical at any shard count and any
// GOMAXPROCS — the only thing that changes is wall-clock time.
func SetShards(n int) { scenario.SetDefaultShards(n) }

// SetInvariantChecks enables the physical-invariant checker (packet
// conservation at the bottleneck, TCP sequence monotonicity, cwnd/rwnd
// floors) on every subsequent run; findings land in
// Run.InvariantViolations.
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
// available to RunDumbbell, JSON specs and cmd/hwatchsim -scheme without
// touching any figure code. Panics on duplicate or invalid definitions.
func RegisterScheme(def SchemeDef) { scenario.Register(def) }

// SchemeNames lists every registered scheme name, sorted.
func SchemeNames() []string { return scenario.Names() }

// Schemes lists every registered scheme definition, sorted by name.
func Schemes() []SchemeDef { return scenario.Definitions() }

// LookupScheme returns the definition registered under name.
func LookupScheme(name string) (SchemeDef, bool) { return scenario.Lookup(name) }

// Scenario is the declarative description the unified run path executes:
// a topology kind, one or more registered schemes (more than one = mixed
// tenancy), a workload and observers; Scenario.RunContext(ctx) runs it.
// Every figure, ablation and study is a list of these.
type Scenario = scenario.Spec

// SchemeShare assigns a scheme a relative host share in a mixed-tenancy
// Scenario.
type SchemeShare = scenario.Share

// Scenario topology kinds.
const (
	KindDumbbell = scenario.KindDumbbell
	KindTestbed  = scenario.KindTestbed
)

// FaultSchedule is a deterministic fault timeline a Scenario arms on its
// fabric (link flaps, ECN blackholes, shim crashes, probe blackouts,
// burst-loss windows, and the impairment matrix: corruption, duplication,
// reordering, jitter, rate limiting); FaultEvent is one entry, optionally
// recurring (FaultRecurrence) or with random per-occurrence targets
// (Pick). Same seed + spec + schedule ⇒ identical digest.
type (
	FaultSchedule   = faults.Schedule
	FaultEvent      = faults.Event
	FaultRecurrence = faults.Recurrence
	FaultImpair     = faults.ImpairParams
	FaultKindInfo   = faults.KindInfo
)

// FaultKinds lists every registered fault kind with a one-line doc, in
// the order Validate's error messages use (hwatchsim -list-faults).
func FaultKinds() []FaultKindInfo { return faults.Infos() }

// FaultSpec is the JSON (millisecond-unit) form of one fault event, as
// used in spec files' "faults" arrays and hwatchsim -faults files.
type FaultSpec = scenario.FaultSpec

// LoadFaults reads and renders a standalone JSON fault-schedule file.
func LoadFaults(path string) (FaultSchedule, error) { return scenario.LoadFaults(path) }

// RenderFaults converts JSON fault specs into an engine-ready schedule.
func RenderFaults(specs []FaultSpec) (FaultSchedule, error) { return scenario.RenderFaults(specs) }

// RecoveryObserver is the observer a faulted Scenario appends
// automatically: it asserts every finite flow completes, queues drain and
// no shim state leaks once the last fault clears.
type RecoveryObserver = scenario.RecoveryObserver

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

// AblationPoint is one row of an ablation sweep.
type AblationPoint = experiments.AblationPoint

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

// Figure is one row of the figure table: name ("fig8"), caption, one key
// per curve, and Run(ctx, scale), which regenerates the figure's runs in
// curve order. scale in (0,1] shrinks sources/duration for quick runs;
// 1.0 is the paper's scale.
type Figure = experiments.Figure

// Figures lists the paper's data figures (Figs. 1, 2, 8, 9, 11) in paper
// order; the CLIs and the hwatchd "fig" job kind read this table.
func Figures() []Figure { return experiments.Figures() }

// FigRuns executes one named figure under ctx and returns its runs in the
// figure's curve order; an unknown name errors, listing the table.
func FigRuns(ctx context.Context, name string, scale float64) ([]*Run, error) {
	return experiments.FigRuns(ctx, name, scale)
}

// Ablation is one row of the ablation table (see DESIGN.md §5): name,
// caption and Run(ctx, scale), which returns one AblationPoint per case.
type Ablation = experiments.Ablation

// Ablations lists the sweeps over HWatch's design choices: probes, k,
// icw, batch, pacing, guests.
func Ablations() []Ablation { return experiments.Ablations() }

// Study is one row of the extension-study table: name, caption and
// Run(ctx, schemes), which runs the study at its default parameters and
// returns one printable row per cell.
type Study = experiments.Study

// Studies lists the extension studies: empirical, coflow, incast.
func Studies() []Study { return experiments.Studies() }

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
// bench-ladder regression gate (`make bench-ladder`, cmd/benchdiff) and
// carry their own golden digests.
type Rung = scenario.Rung

// Rungs lists the registered ladder rungs, bottom to top.
func Rungs() []Rung { return scenario.Rungs() }

// RungNames lists the registered rung names, sorted.
func RungNames() []string { return scenario.RungNames() }

// LookupRung finds a ladder rung by name ("ladder/10x", "storm/websearch").
func LookupRung(name string) (Rung, bool) { return scenario.LookupRung(name) }

// RunRung executes a registered ladder rung at the given scale (1 = the
// full rung; smaller values shrink sources/flows proportionally).
func RunRung(ctx context.Context, name string, scale float64) (*Run, error) {
	return scenario.RunRung(ctx, name, scale)
}

// RegisterRung adds a rung to the ladder registry; it becomes available
// to RunRung, `hwatchsim -exp ladder` and the bench-ladder tooling.
// Panics on duplicate names.
func RegisterRung(r Rung) { scenario.RegisterRung(r) }

// Spec is a JSON-file description of a runnable scenario (cmd/hwatchsim
// -exp spec -spec file.json); Spec.Scenario() converts it to a Scenario.
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

// WriteFigurePlots emits gnuplot scripts rendering the standard four-panel
// figure from curves saved by SaveRun: `gnuplot out/<fig>_fct.plt` etc.
func WriteFigurePlots(dir, figName string, labels, prefixes []string) error {
	return experiments.WriteFigurePlots(dir, figName, labels, prefixes)
}
