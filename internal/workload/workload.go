// Package workload generates the paper's traffic patterns: persistent
// long-lived flows (iperf surrogates), correlated incast epochs of
// short-lived flows (Section V), closed-loop web-object fetches for the
// testbed scenario (Section VI), and ON-OFF background traffic.
//
// All generators schedule guest connections inside the simulation and
// report per-flow completion times through callbacks; they never reach
// around the public TCP API, so any shim/AQM combination applies.
package workload

import (
	"hwatch/internal/netem"
	"hwatch/internal/sim"
	"hwatch/internal/tcp"
)

// FlowDone receives a completed flow's FCT (ns) and byte size.
type FlowDone func(fct int64, size int64)

// LongLivedConfig describes a set of persistent bulk flows.
type LongLivedConfig struct {
	Port    uint16
	StartAt int64 // all flows start here (with per-flow jitter below)
	Jitter  int64 // uniform [0, Jitter) start offset per flow
	Rng     *sim.RNG
}

// LongLived tracks the senders of a persistent-flow set.
type LongLived struct {
	Senders []*tcp.Sender
}

// StartLongLived launches one infinite flow from each src host to dst.
// Receivers must already be listening on cfg.Port at dst.
func StartLongLived(srcs []*netem.Host, dst netem.NodeID, tcfg tcp.Config, cfg LongLivedConfig) *LongLived {
	ll := &LongLived{}
	for _, h := range srcs {
		h := h
		s := tcp.NewSender(h, dst, cfg.Port, tcp.Infinite, tcfg)
		ll.Senders = append(ll.Senders, s)
		at := cfg.StartAt
		if cfg.Jitter > 0 && cfg.Rng != nil {
			at += cfg.Rng.UniformRange(0, cfg.Jitter-1)
		}
		h.Eng.At(at, s.Start)
	}
	return ll
}

// IncastConfig describes the paper's short-flow surge pattern: E epochs; in
// each epoch every source transmits FlowSize bytes to the aggregator, in
// random order, with inter-arrival times averaging one segment
// transmission time — producing correlated starts (the incast problem).
type IncastConfig struct {
	Port          uint16
	FlowSize      int64
	Epochs        int
	FirstEpoch    int64 // start of epoch 0
	EpochInterval int64 // spacing between epoch starts
	JitterMean    int64 // mean inter-arrival between consecutive flow starts
	Rng           *sim.RNG
}

// flowSlot is one planned flow's private cell. The start event — scheduled
// on the source host's own engine, so sharded fabrics fire it on the owning
// shard — and the completion callback write only their slot, never shared
// state; Finalize folds the slots into the public counters once the run is
// quiescent.
type flowSlot struct {
	host *netem.Host
	s    *tcp.Sender
	fct  int64
	done bool
}

// liveSenders snapshots the senders the slots have created so far, in plan
// order. Safe whenever no engine is mid-event: between events on a
// single-loop run, at window barriers on a sharded one.
func liveSenders(slots []flowSlot) []*tcp.Sender {
	out := make([]*tcp.Sender, 0, len(slots))
	for i := range slots {
		if s := slots[i].s; s != nil {
			out = append(out, s)
		}
	}
	return out
}

// Incast tracks generator progress. The counters and slices are zero until
// Finalize folds the per-flow slots in — call it (idempotent) after the
// engine stops; use LiveSenders for a mid-run view.
type Incast struct {
	Started   int
	Completed int
	TimedOut  []*tcp.Sender // senders whose flows saw >= 1 RTO
	Senders   []*tcp.Sender
	// FCTsByHost groups completion times by source host, so per-source
	// averages and variances across epochs can be computed (the paper's
	// Fig. 2a plots exactly those AVG/VAR CDFs).
	FCTsByHost map[netem.NodeID][]int64

	slots     []flowSlot
	size      int64
	onDone    FlowDone
	finalized bool
}

// RunIncastConfigs schedules the epochs, each host's flows under the guest
// configuration cfgFor gives it — the coexistence scenarios give different
// tenants different congestion controllers. onDone (optional) fires once
// per completed flow with its FCT, from Finalize, in plan order.
func RunIncastConfigs(srcs []*netem.Host, dst netem.NodeID, cfgFor func(*netem.Host) tcp.Config, cfg IncastConfig, onDone FlowDone) *Incast {
	if cfg.Rng == nil {
		panic("workload: incast needs an RNG")
	}
	if len(srcs) == 0 || cfg.Epochs <= 0 {
		panic("workload: incast needs sources and epochs")
	}
	inc := &Incast{
		FCTsByHost: make(map[netem.NodeID][]int64),
		size:       cfg.FlowSize,
		onDone:     onDone,
	}
	for e := 0; e < cfg.Epochs; e++ {
		epochStart := cfg.FirstEpoch + int64(e)*cfg.EpochInterval
		// Random sender order per epoch.
		order := cfg.Rng.Perm(len(srcs))
		at := epochStart
		for _, idx := range order {
			h := srcs[idx]
			at += cfg.Rng.Exp(cfg.JitterMean)
			start := at
			slot := len(inc.slots)
			inc.slots = append(inc.slots, flowSlot{host: h})
			// Each flow starts on its own host's engine: a sharded fabric
			// fires it on the owning shard, and the shared setup sequence
			// keeps the plan order on simultaneous starts.
			h.Eng.At(start, func() {
				sl := &inc.slots[slot]
				s := tcp.NewSender(h, dst, cfg.Port, cfg.FlowSize, cfgFor(h))
				sl.s = s
				s.OnComplete = func(fct int64) {
					sl.fct = fct
					sl.done = true
				}
				s.Start()
			})
		}
	}
	return inc
}

// LiveSenders snapshots the senders created so far, in plan order (for
// mid-run instrumentation such as the invariant checker).
func (inc *Incast) LiveSenders() []*tcp.Sender { return liveSenders(inc.slots) }

// Finalize folds the per-flow slots into the public counters and fires the
// onDone callbacks, all in plan order. Call it once the engines are
// stopped; repeated calls are no-ops.
func (inc *Incast) Finalize() {
	if inc.finalized {
		return
	}
	inc.finalized = true
	for i := range inc.slots {
		sl := &inc.slots[i]
		if sl.s == nil {
			continue
		}
		inc.Senders = append(inc.Senders, sl.s)
		inc.Started++
		if !sl.done {
			continue
		}
		inc.Completed++
		inc.FCTsByHost[sl.host.ID] = append(inc.FCTsByHost[sl.host.ID], sl.fct)
		if sl.s.Stats().Timeouts > 0 {
			inc.TimedOut = append(inc.TimedOut, sl.s)
		}
		if inc.onDone != nil {
			inc.onDone(sl.fct, inc.size)
		}
	}
}
