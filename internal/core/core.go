// Package core implements HWatch, the paper's contribution: a
// hypervisor-resident "cautious congestion watch" that improves flow
// completion times without touching the guest TCP stack, the switches or
// the NICs (requirements R1-R4).
//
// A Shim attaches to a host's ingress/egress filter chains (the analogue of
// the paper's NetFilter hook or patched OvS kernel datapath) and applies
// the two control rules of Section IV-C:
//
//	Rule 1 (steady state): the receiver-side shim counts CE-marked vs.
//	unmarked data packets per flow and, once per RTT epoch, re-derives the
//	flow's window from the Next Fit batch rule W' = X_UM + X_M/2
//	(internal/binpack.Batcher). Every ACK leaving the receiver host has
//	its TCP receive-window field clamped to that window, with the checksum
//	patched incrementally (RFC 1624), honouring the guest's advertised
//	window scale.
//
//	Rule 2 (connection start): the sender-side shim intercepts the guest's
//	SYN, first transmitting a train of small raw-IP probe packets (38 B,
//	ECT-capable, non-uniformly spaced within ~RTT/2). The receiver-side
//	shim counts how many probes arrived CE-marked and stamps the guest's
//	SYN-ACK with the safe initial window derived from the probe verdict,
//	so a flow entering a congested fabric never starts with the full
//	default initial window. SYN-ACKs are additionally paced through a
//	token bucket to stagger correlated incast starts.
//
// The shim can also "dye" traffic of non-ECN guests: outbound data is made
// ECT(0) so switches mark instead of drop, and the CE codepoint is cleared
// again before delivery so the guest stack never observes ECN — preserving
// VM autonomy (R3).
package core

import (
	"hwatch/internal/netem"
	"hwatch/internal/sim"
)

// Config parameterizes a Shim. Zero value is not useful; start from
// DefaultConfig.
type Config struct {
	MSS int // segment payload size used to convert windows to bytes

	// Rule 2: probing.
	ProbeCount int   // probes per connection setup (paper: 10)
	ProbeWire  int   // bytes on the wire per probe (paper: <= 38)
	ProbeSpan  int64 // total train duration; SYN is held this long (<= RTT/2)
	// UniformProbeSpacing removes the per-probe jitter (the paper argues
	// inter-departures should be "not zero nor uniform"; this switch
	// exists for the ablation that tests that claim).
	UniformProbeSpacing bool

	// Window policy.
	DefaultICW  int  // guest stack's default initial window, segments
	MinWndSegs  int  // floor for any clamp (>= 1 so flows always progress)
	MaxWndSegs  int  // cap for additive growth
	GrowthSegs  int  // additive growth granted after GrowthEvery clean epochs
	GrowthEvery int  // consecutive mark-free epochs required per growth step
	MergeBatch1 bool // Corollary IV.2.2: send batches 1+2 together
	// StartMarkedCredit: fraction of marked probes still credited to the
	// initial window (0 = cautious, 0.5 = merged-batch theory). See
	// binpack.Batcher.StartMarkedCredit.
	StartMarkedCredit float64

	// Rule 1: epoch length for mark accounting; the operator's RTT
	// estimate for the fabric (paper testbed: ~200 us).
	BaseRTT int64

	// SYN-ACK pacing token bucket: Burst tokens, one token regenerated
	// every RefillEvery ns. Zero Burst disables pacing.
	SynAckBurst int
	RefillEvery int64

	// DyeECT makes non-ECN guest traffic ECT(0) on egress and clears CE on
	// ingress so switches can mark while guests stay ECN-oblivious.
	DyeECT bool

	// Flow-table hygiene: entries idle longer than IdleTimeout are garbage
	// collected by a sweep every GCInterval (guests that die without a FIN
	// must not leak table rows). Zero disables the sweep.
	IdleTimeout int64
	GCInterval  int64

	// Graceful degradation when the signal path misbehaves. Both default
	// off so the paper's behaviour is bit-identical unless a deployment
	// (e.g. a fault-injected scenario) opts in.
	//
	// ProbeLossFallback: when the guest's SYN-ACK goes out and *no* probe
	// of the train was seen — a probe blackout, a crashed sender shim, a
	// middlebox eating raw IP — the shim passes the SYN-ACK through
	// unstamped instead of clamping to DefaultICW on zero evidence. Rule 1
	// re-tightens the window as soon as data marks are observed.
	ProbeLossFallback bool
	// EcnDarkEpochs: after this many consecutive mark-free data epochs the
	// shim assumes ECN has gone dark (a blackhole, a legacy hop) and
	// releases the rwnd clamp exponentially — doubling per further clean
	// epoch up to MaxWndSegs — so it never strangles flows on a signal
	// that no longer exists. The first mark observed snaps the window back
	// to the Next Fit verdict (exponential re-tightening in reverse).
	// Zero disables the fallback.
	EcnDarkEpochs int

	// Seed drives probe spacing jitter and the odd-marked-packet coin.
	Seed int64
}

// DefaultConfig returns the paper's deployment parameters for a fabric with
// the given base RTT.
func DefaultConfig(baseRTT int64) Config {
	return Config{
		MSS:         netem.DefaultMSS,
		ProbeCount:  10,
		ProbeWire:   netem.MinProbeSize,
		ProbeSpan:   baseRTT / 2,
		DefaultICW:  10,
		MinWndSegs:  1,
		MaxWndSegs:  1024,
		GrowthSegs:  1,
		GrowthEvery: 4,
		MergeBatch1: true,
		BaseRTT:     baseRTT,
		SynAckBurst: 4,
		RefillEvery: baseRTT / 2,
		DyeECT:      true,
		IdleTimeout: 30 * sim.Second,
		GCInterval:  5 * sim.Second,
		Seed:        1,
	}
}

// Stats counts shim activity on one host.
type Stats struct {
	ProbesSent     int64
	ProbesSeen     int64 // probes consumed at the receiver side
	ProbesMarked   int64
	SynsHeld       int64 // SYNs delayed behind a probe train
	SynAcksStamped int64 // SYN-ACKs rewritten with a probe-derived window
	SynAcksPaced   int64 // SYN-ACKs delayed by the token bucket
	RwndRewrites   int64 // ACK receive-window clamps applied
	EpochsClosed   int64 // Rule 1 epochs elapsed on tracked flows
	// EpochsSkipped is the part of EpochsClosed that ran no code: idle
	// epochs of a parked flow, accounted when it woke or was removed.
	EpochsSkipped int64
	Dyed          int64 // packets dyed ECT(0)
	CECleared     int64 // CE codepoints cleared before guest delivery
	FlowsTracked  int64
	FlowsExpired  int64

	// Degradation and fault counters.
	Crashes        int64 // Crash() calls: flow table wiped, clamps released
	Restarts       int64 // Restart() calls after a crash
	ProbeFallbacks int64 // SYN-ACKs passed unstamped (whole train lost)
	DarkReleases   int64 // clamp doublings taken because ECN went dark
	StaleRemints   int64 // probes/SYNs for tombstoned flows, not re-minted
}

// role distinguishes which end of a flow this host's shim is on.
type role uint8

const (
	roleSender   role = iota // local guest transmits the data
	roleReceiver             // local guest receives the data
)

// updateECN rewrites the packet's ECN codepoint. The codepoint lives in
// the IP header, outside the TCP checksum, so no transport-sum patch is
// needed (the datapath recomputes the cheap IP header sum in hardware).
func updateECN(p *netem.Packet, e netem.ECN) {
	p.ECN = e
}

// updateRwnd rewrites the receive-window field with incremental checksum
// maintenance (RFC 1624) — the exact datapath operation HWatch performs.
func updateRwnd(p *netem.Packet, field uint16) {
	old := p.Rwnd
	p.Rwnd = field
	p.Checksum = netem.UpdateChecksum16(p.Checksum, old, field)
}
