package scenario

import (
	"fmt"
	"sync/atomic"

	"hwatch/internal/aqm"
	"hwatch/internal/core"
	"hwatch/internal/faults"
	"hwatch/internal/harness"
	"hwatch/internal/netem"
	"hwatch/internal/sim"
	"hwatch/internal/stats"
	"hwatch/internal/tcp"
	"hwatch/internal/topo"
)

// DefaultPort is the well-known service port every built-in workload
// listens on (long-flow sinks use DefaultPort+1 on the testbed).
const DefaultPort = 80

var invariantsOn atomic.Bool

// SetInvariantChecks enables the physical-invariant checker (packet
// conservation, sequence monotonicity, window floors) on every subsequent
// run (the CLIs' -check flag). It is the process-wide default Spec.Check
// adds to: a run is checked when either is set.
func SetInvariantChecks(on bool) { invariantsOn.Store(on) }

// InvariantChecksOn reports the package-wide checker default.
func InvariantChecksOn() bool { return invariantsOn.Load() }

var defaultShards atomic.Int32

// SetDefaultShards sets the shard count every subsequent run uses when its
// Spec names none (the CLIs' -shards flag; <= 1 restores the single-loop
// engine). Sharding never moves a digest — it only buys wall-clock. With
// experiments.SetParallel it is one of the two process-wide execution
// defaults bench/ pins; a Spec that must not inherit it sets Shards itself.
func SetDefaultShards(n int) {
	if n < 1 {
		n = 1
	}
	defaultShards.Store(int32(n))
}

// DefaultShards reports the package-wide shard default (minimum 1).
func DefaultShards() int {
	if n := defaultShards.Load(); n > 1 {
		return int(n)
	}
	return 1
}

// queueStats is satisfied by every aqm discipline.
type queueStats interface{ Stats() aqm.Stats }

// RunContext is the assembled scenario a Workload wires traffic onto and
// an Observer instruments: the engine and run RNG, the topology (exactly
// one of Dumbbell/LeafSpine is set, matching the Spec's Kind), the
// per-host guest configuration, and the bottleneck the telemetry and
// invariant observers watch.
type RunContext struct {
	// Eng is the hub engine: the shard owning the bottleneck port (the
	// only engine of a single-loop run). Telemetry and fault arming
	// schedule here; workloads must schedule per-host work on the owning
	// host's engine.
	Eng *sim.Engine
	// Group is the conservative-lookahead shard group (nil single-loop).
	// Observers needing a cross-shard view register barrier callbacks on
	// it instead of engine events.
	Group *sim.Group
	Rng   *sim.RNG

	Dumbbell  *topo.Dumbbell
	DumbbellP DumbbellParams

	LeafSpine *topo.LeafSpine
	TestbedP  TestbedParams

	// ConfigFor assigns a guest stack configuration per sender host
	// (mixed-scheme tenancy gives different hosts different controllers).
	ConfigFor func(*netem.Host) tcp.Config

	// Bottleneck telemetry: the shared queue, its transmitting port, the
	// label the invariant checker reports it under, and the line rate the
	// utilization series normalizes to.
	Bottleneck     netem.Queue
	BottleneckPort *netem.Port
	PortLabel      string
	LineRateBps    int64

	SampleEvery int64
	Duration    int64
	// Horizon is the instant the run stops: Duration, plus the dumbbell's
	// drain.
	Horizon int64
	// Check arms the invariant checker (Spec.Check).
	Check bool

	// Shims holds the scheme's deployed hypervisor shims (empty for
	// shimless schemes); the shim-stats observer aggregates them.
	Shims []*core.Shim

	// Fabric names the assembled topology's fault-injection targets
	// (links, switches, shims); Spec.Faults events resolve against it.
	Fabric faults.Fabric
	// Injector is the armed fault timeline (nil in a fault-free run).
	Injector *faults.Injector

	senderFns []func() []*tcp.Sender
}

// WatchSenders registers a dynamic TCP-sender source (workloads create
// senders over time) for the invariant checker.
func (rc *RunContext) WatchSenders(f func() []*tcp.Sender) {
	rc.senderFns = append(rc.senderFns, f)
}

// Senders snapshots every registered sender source.
func (rc *RunContext) Senders() []*tcp.Sender {
	var out []*tcp.Sender
	for _, f := range rc.senderFns {
		out = append(out, f()...)
	}
	return out
}

// Workload wires traffic onto an assembled scenario and harvests its
// flow-level metrics after the run. Spec.Workload overrides the kind's
// default (dumbbell: long-lived + incast epochs; testbed: iperf + web).
type Workload interface {
	Wire(rc *RunContext, run *Run)
	Finish(rc *RunContext, run *Run)
}

// Observer instruments one run: Start is called after the workload is
// wired but before the engine runs, Finish after the engine stops. The
// built-in observers (bottleneck telemetry, invariant checker, shim
// stats) are wired once here instead of per-runner; Spec.Observers
// appends custom ones.
type Observer interface {
	Start(rc *RunContext, run *Run)
	Finish(rc *RunContext, run *Run)
}

// telemetryObserver samples the bottleneck queue and utilization on the
// run's sampling period and harvests the queue's drop/mark totals. Every
// sample lands on one time axis; the three series share it (see Run).
type telemetryObserver struct {
	t           []int64   // the sample instants, one per period from 0
	pkts, bytes []float64 // queue occupancy at t[i]
	util        []float64 // util[i-1]: fraction of line rate over (t[i-1], t[i]]
}

func (o *telemetryObserver) Start(rc *RunContext, run *Run) {
	if rc.SampleEvery <= 0 || rc.Bottleneck == nil {
		return
	}
	// One sample per period from 0 to the horizon: size the arrays once
	// instead of growing them by doubling.
	n := int(rc.Horizon/rc.SampleEvery) + 2
	o.t = make([]int64, 0, n)
	o.pkts = make([]float64, 0, n)
	o.bytes = make([]float64, 0, n)
	o.util = make([]float64, 0, n-1)
	eng := rc.Eng
	var lastTx int64
	var sample func()
	sample = func() {
		now, tx := eng.Now(), rc.BottleneckPort.Stats().TxBytes
		if k := len(o.t); k > 0 {
			rate := float64(tx-lastTx) * 8 * 1e9 / float64(now-o.t[k-1])
			o.util = append(o.util, rate/float64(rc.LineRateBps))
		}
		o.t = append(o.t, now)
		o.pkts = append(o.pkts, float64(rc.Bottleneck.Len()))
		o.bytes = append(o.bytes, float64(rc.Bottleneck.Bytes()))
		lastTx = tx
		eng.Schedule(rc.SampleEvery, sample)
	}
	eng.Schedule(0, sample)
}

func (o *telemetryObserver) Finish(rc *RunContext, run *Run) {
	// Windows with cap == len: an append to one series copies instead of
	// writing into the axis the others read.
	if k := len(o.t); k > 0 {
		run.QueuePkts = stats.TimeSeries{T: o.t[:k:k], V: o.pkts}
		run.QueueBytes = stats.TimeSeries{T: o.t[:k:k], V: o.bytes}
		if k > 1 {
			run.Utilization = stats.TimeSeries{T: o.t[1:k:k], V: o.util}
		}
	}
	if qs, ok := rc.Bottleneck.(queueStats); ok {
		st := qs.Stats()
		run.Drops = st.Dropped + st.EarlyDrop
		run.Marks = st.Marked
	}
}

// invariantObserver arms the opt-in physical-invariant checker on the
// bottleneck port and every TCP sender the workload registered.
type invariantObserver struct {
	chk *harness.Checker
}

func (o *invariantObserver) Start(rc *RunContext, run *Run) {
	if !rc.Check && !InvariantChecksOn() {
		return
	}
	o.chk = harness.NewChecker(rc.Eng, rc.SampleEvery)
	o.chk.WatchPort(rc.PortLabel, rc.BottleneckPort, rc.Bottleneck)
	o.chk.WatchSenders(rc.Senders)
	if rc.Group != nil {
		// A sharded run sweeps at window barriers, when every shard is
		// quiescent — the checker reads sender state that lives on other
		// shards, so an engine-scheduled sweep would race. Cadence stays
		// the checker's own period; barriers are at least as frequent.
		every := o.chk.Every()
		var next int64
		rc.Group.OnBarrier(func(now int64) {
			for now >= next {
				o.chk.Sweep()
				next += every
			}
		})
		return
	}
	o.chk.Start()
}

func (o *invariantObserver) Finish(rc *RunContext, run *Run) {
	if o.chk == nil {
		return
	}
	for _, v := range o.chk.Finish() {
		run.InvariantViolations = append(run.InvariantViolations, v.String())
	}
}

// shimStatsObserver aggregates the deployed shims' counters into the run.
type shimStatsObserver struct{}

func (shimStatsObserver) Start(*RunContext, *Run) {}

func (shimStatsObserver) Finish(rc *RunContext, run *Run) {
	if len(rc.Shims) == 0 {
		return
	}
	agg := core.Stats{}
	for _, s := range rc.Shims {
		st := s.Stats()
		agg.ProbesSent += st.ProbesSent
		agg.ProbesSeen += st.ProbesSeen
		agg.ProbesMarked += st.ProbesMarked
		agg.SynsHeld += st.SynsHeld
		agg.SynAcksStamped += st.SynAcksStamped
		agg.SynAcksPaced += st.SynAcksPaced
		agg.RwndRewrites += st.RwndRewrites
		agg.EpochsClosed += st.EpochsClosed
		agg.EpochsSkipped += st.EpochsSkipped
		agg.Dyed += st.Dyed
		agg.CECleared += st.CECleared
		agg.FlowsTracked += st.FlowsTracked
		agg.FlowsExpired += st.FlowsExpired
		agg.Crashes += st.Crashes
		agg.Restarts += st.Restarts
		agg.ProbeFallbacks += st.ProbeFallbacks
		agg.DarkReleases += st.DarkReleases
		agg.StaleRemints += st.StaleRemints
	}
	run.ShimStats = &agg
}

// chaosStatsObserver surfaces the per-kind impairment counters of an
// armed schedule into the run (excluded from the digest, like ShimStats).
type chaosStatsObserver struct{}

func (chaosStatsObserver) Start(*RunContext, *Run) {}

func (chaosStatsObserver) Finish(rc *RunContext, run *Run) {
	if rc.Injector == nil || !rc.Injector.HasImpairments() {
		return
	}
	st := rc.Injector.ImpairStats()
	run.ChaosStats = &st
}

// RecoveryObserver asserts the run heals after its fault timeline clears:
// every finite flow completes (or was deliberately aborted), the
// bottleneck queue drains, no shim stays crashed, and no flow-table entry
// outlives its completed flow — i.e. faults may hurt, but nothing sticks.
// For recurring schedules the clear point is the last occurrence's actual
// (jitter-drawn) end. Impairment schedules add three more invariants: the
// hold buffers of reorder/jitter windows retain nothing after drain,
// duplication leaves no duplicated-flow ghosts in any shim's flow slab,
// and checksum drops at the hosts stay bounded by the corruptions
// injected. Findings land in Run.InvariantViolations (reported by -check,
// excluded from the digest). Appended automatically when Spec.Faults is
// non-empty.
type RecoveryObserver struct{}

// Start implements Observer.
func (RecoveryObserver) Start(*RunContext, *Run) {}

// Finish implements Observer.
func (RecoveryObserver) Finish(rc *RunContext, run *Run) {
	viol := func(format string, args ...any) {
		run.InvariantViolations = append(run.InvariantViolations,
			"recovery: "+fmt.Sprintf(format, args...))
	}
	if rc.Injector != nil && rc.Injector.LastClear() >= rc.Horizon {
		viol("fault schedule clears at %d ns, at or after the run horizon %d ns — nothing left to recover in",
			rc.Injector.LastClear(), rc.Horizon)
	}
	done := map[netem.FlowKey]bool{}
	background := false // long-lived (infinite) sources run past the horizon
	for _, s := range rc.Senders() {
		if s.Done() {
			done[s.FlowKey()] = true
			continue
		}
		if !s.Finite() {
			background = true
			continue
		}
		if !s.Aborted() {
			viol("flow %v stuck in state %s after faults cleared", s.FlowKey(), s.State())
		}
	}
	// A standing queue is only a recovery failure when nothing legitimate
	// is feeding it: live long-lived sources keep the bottleneck occupied
	// by design.
	if !background && rc.Bottleneck != nil && rc.Bottleneck.Len() > 0 {
		viol("bottleneck queue still holds %d packets after drain", rc.Bottleneck.Len())
	}
	for i, sh := range rc.Shims {
		if sh.Crashed() {
			viol("shim %d still crashed at run end", i)
		}
		// Snapshot is sorted by key, so duplicated-flow ghosts — two slab
		// rows for one flow, as naive handling of duplicated SYNs would
		// mint — sit adjacent.
		var prev netem.FlowKey
		for j, fi := range sh.Snapshot() {
			if done[fi.Key] && !fi.Closed {
				viol("shim %d leaks a live flow-table entry for completed flow %v", i, fi.Key)
			}
			if j > 0 && fi.Key == prev {
				viol("shim %d holds duplicated-flow ghost rows for %v", i, fi.Key)
			}
			prev = fi.Key
		}
	}
	if rc.Injector != nil && rc.Injector.HasImpairments() {
		st := rc.Injector.ImpairStats()
		if st.Held != 0 {
			viol("reorder/jitter hold buffer retains %d packets after drain", st.Held)
		}
		if st.CorruptDrops > st.Corrupted {
			viol("port corrupt-drops %d exceed corruptions injected %d", st.CorruptDrops, st.Corrupted)
		}
		var chkDrops int64
		for _, h := range rc.Fabric.Hosts {
			chkDrops += h.Stats().ChecksumDrops
		}
		// Every checksum discard must trace to an injected flip that was
		// not already dropped at the port: more means corruption leaked
		// somewhere it was never injected.
		if chkDrops > st.Corrupted-st.CorruptDrops {
			viol("host checksum drops %d exceed surviving corruptions %d", chkDrops, st.Corrupted-st.CorruptDrops)
		}
	}
}
