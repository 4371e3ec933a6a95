package core

import (
	"sort"

	"hwatch/internal/binpack"
	"hwatch/internal/netem"
	"hwatch/internal/sim"
)

// Shim is the HWatch hypervisor module for one physical server. It plays
// the sender-side role (probing, SYN holding) for flows the local guests
// originate and the receiver-side role (mark accounting, rwnd stamping,
// SYN-ACK pacing) for flows the local guests terminate — exactly as in
// the paper, where the module is deployed at both ends.
//
// A Shim attaches to one or more netem.Hosts. One-host attachment models
// the NetFilter deployment; attaching several hosts (guest VMs on one
// server) models the patched-OvS datapath, where a single kernel module —
// one flow table, one SYN-ACK pacer, one statistics block — processes
// inter-VM, intra-host and inter-host traffic for the whole server
// (Section IV-D).
type Shim struct {
	cfg      Config
	eng      *sim.Engine
	rng      *sim.RNG
	table    *flowTable
	bucket   *tokenBucket
	stats    Stats
	hosts    int
	crashed  bool
	unparked bool // tests' oracle: idle epochs stay events, as before parking

	// Tombstones of recently removed rows. Network impairments (reorder
	// holds, jitter, duplication) can delay a packet past the row's linger
	// window; a straggler probe or SYN arriving after removal would
	// otherwise re-mint a receiver row that no FIN will ever close (probe
	// trains only exist at flow start), leaking it until the idle sweep.
	// Ephemeral ports are allocated monotonically per host, so within the
	// TTL a tombstoned key can only refer to the removed flow, never to a
	// legitimate new one. Lookup-only on packet paths: no events, no RNG.
	tombs map[netem.FlowKey]int64
	tombQ []tombstone

	// Bound callbacks cached at construction so the per-flow timers
	// (epoch close, post-expiry linger) and the periodic GC sweep schedule
	// without allocating a closure per event (DESIGN.md §6e).
	epochs    sim.Periodic
	removeFn  func(any)
	gcSweepFn func()
}

// Attach builds a Shim and installs it on the host's filter chains (the
// NetFilter-style single-host deployment).
func Attach(host *netem.Host, cfg Config) *Shim {
	s := NewShim(host.Eng, cfg, int64(host.ID))
	s.AttachHost(host)
	return s
}

// NewShim builds an unattached shim (the OvS-style deployment: call
// AttachHost for every guest VM on the server). seedSalt differentiates
// the jitter streams of shims sharing one Config.
func NewShim(eng *sim.Engine, cfg Config, seedSalt int64) *Shim {
	if cfg.MSS <= 0 {
		panic("core: config needs a positive MSS")
	}
	if cfg.MinWndSegs < 1 {
		cfg.MinWndSegs = 1
	}
	s := &Shim{
		cfg:    cfg,
		eng:    eng,
		rng:    sim.NewRNG(cfg.Seed + seedSalt),
		table:  newFlowTable(),
		bucket: newTokenBucket(cfg.SynAckBurst, cfg.RefillEvery),
	}
	s.epochs = sim.NewPeriodic(eng, cfg.BaseRTT, s.closeEpochArg)
	s.removeFn = s.removeExpired
	s.gcSweepFn = s.gcSweep
	if cfg.GCInterval > 0 && cfg.IdleTimeout > 0 {
		s.eng.Schedule(cfg.GCInterval, s.gcSweepFn)
	}
	return s
}

// Eng returns the engine the shim's timers run on — the shard that owns
// the shim's host(s). Fault injection schedules shim events there.
func (s *Shim) Eng() *sim.Engine { return s.eng }

// AttachHost installs the shim on a (further) host's filter chains. All
// attached hosts share the flow table, statistics and SYN-ACK pacer, as VM
// ports on one OvS do.
func (s *Shim) AttachHost(host *netem.Host) {
	t := &hostTap{shim: s, host: host}
	t.injectOutFn = t.injectOutbound
	host.AddFilter(t)
	s.hosts++
}

// Hosts returns how many hosts the shim is attached to.
func (s *Shim) Hosts() int { return s.hosts }

// hostTap binds the shared shim to one host's filter chains, carrying the
// host identity the injection paths need.
type hostTap struct {
	shim *Shim
	host *netem.Host

	// injectOutFn is the bound injection callback, cached at attach time
	// so deferred injections (held SYNs, probes, paced SYN-ACKs) schedule
	// without a per-event closure.
	injectOutFn func(any)
}

// Name implements netem.Filter.
func (t *hostTap) Name() string { return "hwatch" }

// Outbound implements netem.Filter.
func (t *hostTap) Outbound(p *netem.Packet) netem.Verdict {
	return t.shim.outbound(t, p)
}

// Inbound implements netem.Filter.
func (t *hostTap) Inbound(p *netem.Packet) netem.Verdict {
	return t.shim.inbound(t, p)
}

// injectOutbound is the ScheduleArg form of host.InjectOutbound.
func (t *hostTap) injectOutbound(a any) { t.host.InjectOutbound(a.(*netem.Packet)) }

// gcSweep expires entries whose flows went silent without a FIN (crashed
// guests, migrated VMs): the paper's flow table must not grow unboundedly.
func (s *Shim) gcSweep() {
	now := s.eng.Now()
	// Stable slot-order iteration: expire schedules the linger event, so
	// the sweep order feeds event seq assignment and must be
	// deterministic. Slot order is insertion/reuse order — reproducible
	// across runs, and unlike the old sorted-key snapshot it allocates
	// nothing (BenchmarkGCSweep holds this at zero).
	for slot, n := uint32(0), s.table.next; slot < n; slot++ {
		e := s.table.at(slot)
		if e.live && !e.closed && now-e.lastActive > s.cfg.IdleTimeout {
			s.expire(e)
		}
	}
	s.eng.Schedule(s.cfg.GCInterval, s.gcSweepFn)
}

// Crash models the hypervisor module dying while the host keeps
// forwarding (the deployment hazard the implementation papers hit: a
// module reload or OvS restart mid-connection). The flow table is wiped —
// epoch timers cancelled, rwnd clamps implicitly released, SYN holds and
// probe accounting forgotten — and until Restart the shim passes all
// traffic through untouched, exactly like a host it was never installed
// on.
func (s *Shim) Crash() {
	if s.crashed {
		return
	}
	s.crashed = true
	s.stats.Crashes++
	for slot, n := uint32(0), s.table.next; slot < n; slot++ {
		e := s.table.at(slot)
		if !e.live {
			continue
		}
		e.closed = true
		s.stats.skip(s.epochs.Stop(&e.epoch))
	}
	// The replacement table continues the generation counter, so linger
	// handles already in flight against the wiped table can never resolve
	// to rows the fresh table mints after Restart. Tombstones die with the
	// module too: a crashed shim remembers nothing.
	s.table = newFlowTableGen(s.table.genc)
	s.tombs = nil
	s.tombQ = nil
}

// Restart brings a crashed shim back with a cold flow table: connections
// established during the outage run unwatched to completion (their SYNs
// were never seen), while new connections are processed normally again.
func (s *Shim) Restart() {
	if !s.crashed {
		return
	}
	s.crashed = false
	s.stats.Restarts++
}

// Crashed reports whether the shim is currently down.
func (s *Shim) Crashed() bool { return s.crashed }

// Stats returns a copy of the shim counters, with the idle epochs of flows
// still parked accounted up to now.
func (s *Shim) Stats() Stats {
	st := s.stats
	for slot, n := uint32(0), s.table.next; slot < n; slot++ {
		if e := s.table.at(slot); e.live {
			st.skip(s.epochs.Skipped(&e.epoch))
		}
	}
	return st
}

// skip accounts n idle epochs that elapsed on a parked flow.
func (st *Stats) skip(n int64) {
	st.EpochsClosed += n
	st.EpochsSkipped += n
}

// TrackedFlows returns the current flow-table size.
func (s *Shim) TrackedFlows() int { return s.table.len() }

// FlowInfo is an operator-visible view of one tracked flow (the rows the
// paper's flow table holds).
type FlowInfo struct {
	Key          netem.FlowKey
	Receiver     bool // this host terminates the data
	WndSegs      int  // current window verdict (-1 before establishment)
	ProbesSeen   int
	ProbesMarked int
	Marked       int // current epoch's CE count
	Unmarked     int
	Closed       bool
}

// Snapshot returns the flow table's rows, ordered by 4-tuple, for
// debugging and operations tooling.
func (s *Shim) Snapshot() []FlowInfo {
	out := make([]FlowInfo, 0, s.table.len())
	for slot, n := uint32(0), s.table.next; slot < n; slot++ {
		e := s.table.at(slot)
		if !e.live {
			continue
		}
		out = append(out, FlowInfo{
			Key:          e.key,
			Receiver:     e.role == roleReceiver,
			WndSegs:      e.wndSegs,
			ProbesSeen:   e.probesSeen,
			ProbesMarked: e.probesMarked,
			Marked:       e.marked,
			Unmarked:     e.unmarked,
			Closed:       e.closed,
		})
	}
	sort.Slice(out, func(i, j int) bool { return keyLess(out[i].Key, out[j].Key) })
	return out
}

// batcher builds the Next Fit batcher with this shim's policy.
func (s *Shim) batcher() binpack.Batcher {
	return binpack.Batcher{
		MergeFirstTwo:     s.cfg.MergeBatch1,
		MinBatch:          s.cfg.MinWndSegs,
		StartMarkedCredit: s.cfg.StartMarkedCredit,
		Rand:              s.rng.Float64,
	}
}

// outbound handles guest -> network packets for one attached host.
func (s *Shim) outbound(t *hostTap, p *netem.Packet) netem.Verdict {
	if s.crashed {
		return netem.VerdictPass
	}
	switch {
	case p.Flags.Has(netem.FlagSYN) && !p.Flags.Has(netem.FlagACK):
		return s.outSYN(t, p)
	case p.Flags.Has(netem.FlagSYN) && p.Flags.Has(netem.FlagACK):
		return s.outSynAck(t, p)
	default:
		return s.outEstablished(p)
	}
}

// outSYN is the Rule 2 sender side: hold the guest's SYN behind a probe
// train so the receiver shim can measure path congestion first.
func (s *Shim) outSYN(t *hostTap, p *netem.Packet) netem.Verdict {
	e, created := s.table.ensure(p.FlowKey(), roleSender)
	e.lastActive = s.eng.Now()
	if created {
		s.stats.FlowsTracked++
		e.guestECN = p.Flags.Has(netem.FlagECE) && p.Flags.Has(netem.FlagCWR)
	}
	if !created || s.cfg.ProbeCount <= 0 {
		// Retransmitted SYN, or probing disabled: pass straight through.
		return netem.VerdictPass
	}
	s.stats.SynsHeld++
	s.sendProbeTrain(t, p.FlowKey())
	s.eng.ScheduleArg(s.cfg.ProbeSpan, t.injectOutFn, p)
	return netem.VerdictStolen
}

// sendProbeTrain emits the probe packets with non-uniform inter-departure
// times within ProbeSpan (Section IV-C: spacing must be neither zero nor
// uniform for an unbiased queue sample).
func (s *Shim) sendProbeTrain(t *hostTap, k netem.FlowKey) {
	n := s.cfg.ProbeCount
	base := s.cfg.ProbeSpan / int64(n+1)
	for i := 0; i < n; i++ {
		at := base * int64(i+1)
		if !s.cfg.UniformProbeSpacing {
			at = base*int64(i) + s.rng.UniformRange(base/4, base)
		}
		if at >= s.cfg.ProbeSpan {
			at = s.cfg.ProbeSpan - 1
		}
		probe := t.host.AllocPacket()
		probe.ID = t.host.NextPacketID()
		probe.Src = k.Src
		probe.Dst = k.Dst
		probe.SrcPort = k.SrcPort
		probe.DstPort = k.DstPort
		probe.ECN = netem.ECT0 // probes are always markable
		probe.Probe = true
		probe.Wire = s.cfg.ProbeWire
		probe.WScaleOpt = -1
		probe.SentAt = s.eng.Now()
		netem.SetChecksum(probe)
		s.stats.ProbesSent++
		s.eng.ScheduleArg(at, t.injectOutFn, probe)
	}
}

// outSynAck is the Rule 2 receiver side: stamp the guest's SYN-ACK with the
// probe-derived initial window and pace correlated SYN-ACK bursts.
func (s *Shim) outSynAck(t *hostTap, p *netem.Packet) netem.Verdict {
	key := p.FlowKey().Reverse() // table is keyed by data direction
	e, created := s.table.ensure(key, roleReceiver)
	e.lastActive = s.eng.Now()
	if created {
		s.stats.FlowsTracked++
	}
	if p.WScaleOpt >= 0 {
		e.wscale = p.WScaleOpt
	}
	if !e.stamped {
		e.stamped = true
		if s.cfg.ProbeLossFallback && e.probesSeen == 0 {
			// The whole train vanished (probe blackout, crashed sender
			// shim, probe-eating middlebox): zero evidence is not a verdict,
			// so degrade to pass-through rather than clamp blind. wndSegs
			// stays -1; the epoch loop still runs so Rule 1 re-tightens the
			// moment marks appear.
			s.stats.ProbeFallbacks++
		} else {
			e.wndSegs = s.batcher().StartWindow(e.probesSeen, e.probesMarked, s.cfg.DefaultICW)
			s.stats.SynAcksStamped++
		}
		s.startEpoch(e)
	}
	s.clampRwnd(p, e)

	if d := s.bucket.take(s.eng.Now()); d > 0 {
		s.stats.SynAcksPaced++
		s.eng.ScheduleArg(d, t.injectOutFn, p)
		return netem.VerdictStolen
	}
	return netem.VerdictPass
}

// outEstablished handles post-handshake egress: rwnd clamping on the
// receiver side, ECT dyeing on the sender side, FIN cleanup on both.
func (s *Shim) outEstablished(p *netem.Packet) netem.Verdict {
	// Receiver side: ACKs leaving toward the data sender.
	if e := s.table.get(p.FlowKey().Reverse()); e != nil && e.role == roleReceiver {
		e.lastActive = s.eng.Now()
		if p.Flags.Has(netem.FlagACK) {
			s.clampRwnd(p, e)
		}
		if p.Flags.Has(netem.FlagFIN) || p.Flags.Has(netem.FlagRST) {
			s.expire(e)
		}
		return netem.VerdictPass
	}
	// Sender side: data leaving toward the receiver.
	if e := s.table.get(p.FlowKey()); e != nil && e.role == roleSender {
		e.lastActive = s.eng.Now()
		if s.cfg.DyeECT && !e.guestECN && p.ECN == netem.NotECT && (p.IsData() || p.Flags.Has(netem.FlagFIN)) {
			updateECN(p, netem.ECT0)
			s.stats.Dyed++
		}
		if p.Flags.Has(netem.FlagFIN) || p.Flags.Has(netem.FlagRST) {
			s.expire(e)
		}
	}
	return netem.VerdictPass
}

// inbound handles network -> guest packets for one attached host.
func (s *Shim) inbound(t *hostTap, p *netem.Packet) netem.Verdict {
	if s.crashed {
		// Pass-through, probes included: with the shim dead nothing steals
		// them, so they fall off the host's demux like any unclaimed raw IP.
		return netem.VerdictPass
	}
	if p.Probe {
		return s.inProbe(t, p)
	}
	switch {
	case p.Flags.Has(netem.FlagSYN) && !p.Flags.Has(netem.FlagACK):
		s.inSYN(p)
	default:
		s.inEstablished(p)
	}
	return netem.VerdictPass
}

// inProbe is the receiver-side probe counter: consume the probe, record
// whether the fabric marked it.
func (s *Shim) inProbe(t *hostTap, p *netem.Packet) netem.Verdict {
	key := p.FlowKey()
	if s.table.get(key) == nil && s.tombstoned(key) {
		// Straggler outliving its flow: an impairment held this probe past
		// the removed row's linger window. Consume it rowlessly — probe
		// trains only exist at flow start, so minting here would leave a
		// row no FIN will ever close.
		s.stats.StaleRemints++
		t.host.ReleasePacket(p)
		return netem.VerdictStolen
	}
	e, created := s.table.ensure(key, roleReceiver)
	e.lastActive = s.eng.Now()
	if created {
		s.stats.FlowsTracked++
	}
	e.probesSeen++
	s.stats.ProbesSeen++
	if p.ECN == netem.CE {
		e.probesMarked++
		s.stats.ProbesMarked++
	}
	t.host.ReleasePacket(p) // stolen and consumed: probes never reach a guest
	return netem.VerdictStolen
}

func (s *Shim) inSYN(p *netem.Packet) {
	key := p.FlowKey()
	if s.table.get(key) == nil && s.tombstoned(key) {
		// A duplicated or delayed SYN for a flow that already completed:
		// the guest still sees it (the verdict stays pass), but the shim
		// must not resurrect the row.
		s.stats.StaleRemints++
		return
	}
	e, created := s.table.ensure(key, roleReceiver)
	e.lastActive = s.eng.Now()
	if created {
		s.stats.FlowsTracked++
	}
	// If the guests negotiate ECN themselves, the shim must not repaint
	// codepoints they rely on.
	e.guestECN = p.Flags.Has(netem.FlagECE) && p.Flags.Has(netem.FlagCWR)
}

func (s *Shim) inEstablished(p *netem.Packet) {
	// Receiver side: account data marks for Rule 1, clear CE for non-ECN
	// guests.
	if e := s.table.get(p.FlowKey()); e != nil && e.role == roleReceiver {
		e.lastActive = s.eng.Now()
		if p.IsData() || p.Flags.Has(netem.FlagFIN) {
			if e.epoch.Parked() {
				s.stats.skip(s.epochs.Resume(&e.epoch, e.self))
			}
			if p.ECN == netem.CE {
				e.marked++
				if s.cfg.DyeECT && !e.guestECN {
					updateECN(p, netem.ECT0)
					s.stats.CECleared++
				}
			} else {
				e.unmarked++
			}
		}
		if p.Flags.Has(netem.FlagFIN) || p.Flags.Has(netem.FlagRST) {
			s.expire(e)
		}
		return
	}
	// Sender side: a RST arriving from the remote end kills the local
	// guest's connection, which will never emit the FIN the outbound path
	// expires on — drop the entry now instead of leaking it until the idle
	// sweep. (The table is keyed by data direction, so the sender-side row
	// sits under the reversed key of an inbound packet.)
	if p.Flags.Has(netem.FlagRST) {
		if e := s.table.get(p.FlowKey().Reverse()); e != nil && e.role == roleSender {
			s.expire(e)
		}
	}
}

// clampRwnd applies the current window verdict to an outgoing ACK/SYN-ACK.
func (s *Shim) clampRwnd(p *netem.Packet, e *flowEntry) {
	if e.wndSegs < 0 {
		return
	}
	wndBytes := int64(e.wndSegs) * int64(s.cfg.MSS)
	if cur := int64(p.Rwnd) << uint(e.wscale); cur > wndBytes {
		field := encodeCeil(wndBytes, e.wscale)
		if field != p.Rwnd {
			updateRwnd(p, field)
			s.stats.RwndRewrites++
		}
	}
}

// encodeCeil converts bytes to the raw window field rounding up, so a clamp
// of exactly MinWndSegs segments never quantizes to less under scaling.
func encodeCeil(bytes int64, scale int8) uint16 {
	unit := int64(1) << uint(scale)
	v := (bytes + unit - 1) >> uint(scale)
	if v > 0xffff {
		v = 0xffff
	}
	return uint16(v)
}

// startEpoch begins the Rule 1 per-RTT accounting loop for a flow.
func (s *Shim) startEpoch(e *flowEntry) {
	if s.cfg.BaseRTT <= 0 {
		return
	}
	s.epochs.Arm(&e.epoch, e.self)
}

// closeEpochArg adapts closeEpoch to the cached ScheduleArg callback
// shape. The event carries the entry's handle, not the pointer: if the row
// was removed or its slot recycled since the epoch was armed, resolve
// returns nil and the stale timer is inert (the same generation-check
// contract sim.Handle gives a handle whose event slot was recycled).
func (s *Shim) closeEpochArg(a any) {
	if e := s.table.resolve(a.(flowHandle)); e != nil {
		s.closeEpoch(e)
	}
}

// closeEpoch re-derives the flow's window from this epoch's mark counts via
// the Next Fit batch rule, then opens the next epoch. An epoch with no
// packets costs nothing: the chain parks, and the epochs that elapse until
// the next data packet are accounted on wake-up.
func (s *Shim) closeEpoch(e *flowEntry) {
	if e.closed {
		return
	}
	s.stats.EpochsClosed++
	switch {
	case e.marked == 0 && e.unmarked == 0:
		// Idle epoch: no evidence either way; hold the window.
		if !s.unparked {
			s.epochs.Park(&e.epoch)
			return
		}
	case e.marked == 0:
		// Clean epoch: grow additively, one step per GrowthEvery clean
		// epochs (slower than per-RTT AIMD so the aggregate of many
		// regulated flows does not outrun the marking threshold). The
		// counter only resets on a marked epoch, so the modulo fires at the
		// same instants a reset-and-compare would.
		e.cleanEpochs++
		every := s.cfg.GrowthEvery
		if every < 1 {
			every = 1
		}
		switch {
		case e.wndSegs < 0:
			// Already pass-through (probe-loss fallback): nothing to grow.
		case s.cfg.EcnDarkEpochs > 0 && e.cleanEpochs >= s.cfg.EcnDarkEpochs:
			// ECN has gone dark: data flowed for EcnDarkEpochs epochs with
			// not one mark. Trusting the clamp now means trusting a signal
			// that may no longer exist, so release it exponentially.
			if e.wndSegs < s.cfg.MaxWndSegs {
				e.wndSegs *= 2
				if e.wndSegs > s.cfg.MaxWndSegs {
					e.wndSegs = s.cfg.MaxWndSegs
				}
				s.stats.DarkReleases++
			}
		case e.cleanEpochs%every == 0:
			e.wndSegs += s.cfg.GrowthSegs
			if e.wndSegs > s.cfg.MaxWndSegs {
				e.wndSegs = s.cfg.MaxWndSegs
			}
		}
	default:
		e.cleanEpochs = 0
		// Congested epoch: W' = X_UM (+ X_M/2 if batches merged). After a
		// dark-release this is the exponential re-tightening: one mark and
		// the window snaps back to the Next Fit verdict.
		plan := s.batcher().Split(e.unmarked, e.marked)
		w := plan.Sizes()[0]
		if w > s.cfg.MaxWndSegs {
			w = s.cfg.MaxWndSegs
		}
		e.wndSegs = w
	}
	e.marked, e.unmarked = 0, 0
	s.epochs.Arm(&e.epoch, e.self)
}

// expire schedules flow-table cleanup after a linger period (so
// retransmitted FINs and the final ACK are still handled consistently).
func (s *Shim) expire(e *flowEntry) {
	if e.closed {
		return
	}
	e.closed = true
	s.stats.skip(s.epochs.Stop(&e.epoch))
	linger := 4 * s.cfg.BaseRTT
	if linger <= 0 {
		linger = sim.Millisecond
	}
	s.eng.ScheduleArg(linger, s.removeFn, e.self)
}

// tombstoneTTL bounds how long a removed row's key stays tombstoned. It
// must outlast any plausible straggler delay (chaos reorder holds run to
// a few milliseconds); packets held even longer re-mint as before and the
// recovery observer reports the leak.
const tombstoneTTL = 50 * sim.Millisecond

// tombstone records one removed row for the straggler guard.
type tombstone struct {
	key netem.FlowKey
	at  int64
}

// entomb marks key as recently removed and prunes tombstones past the
// TTL. The queue preserves removal order, so pruning is deterministic.
func (s *Shim) entomb(key netem.FlowKey) {
	now := s.eng.Now()
	for len(s.tombQ) > 0 && now-s.tombQ[0].at > tombstoneTTL {
		head := s.tombQ[0]
		if s.tombs[head.key] == head.at {
			delete(s.tombs, head.key)
		}
		s.tombQ = s.tombQ[1:]
	}
	if s.tombs == nil {
		s.tombs = make(map[netem.FlowKey]int64)
	}
	s.tombs[key] = now
	s.tombQ = append(s.tombQ, tombstone{key: key, at: now})
}

// tombstoned reports whether key belongs to a row removed within the TTL.
func (s *Shim) tombstoned(key netem.FlowKey) bool {
	at, ok := s.tombs[key]
	return ok && s.eng.Now()-at <= tombstoneTTL
}

// removeExpired drops an expired entry once its linger period ends. The
// linger event holds the entry's handle; if the row is already gone (a
// Crash wiped the table, or the slot was recycled) the handle no longer
// resolves and the event is a no-op — the handle-generation check replaces
// the old map implementation's `get(key) == entry` identity test.
func (s *Shim) removeExpired(a any) {
	if e := s.table.resolve(a.(flowHandle)); e != nil {
		key := e.key
		s.table.remove(key)
		s.stats.FlowsExpired++
		s.entomb(key)
	}
}
