package tcp

import (
	"fmt"
	"math"

	"hwatch/internal/netem"
	"hwatch/internal/sim"
)

// Sender is the active endpoint of a connection: it opens with a SYN,
// transmits Size bytes under congestion and flow control, closes with a FIN
// and reports the flow completion time.
type Sender struct {
	cfg  Config
	host *netem.Host
	eng  *sim.Engine

	dst          netem.NodeID
	sport, dport uint16
	size         int64 // payload bytes; Infinite for long-lived flows

	state     connState
	startTime int64

	// Sequence space (see package doc): SYN=0, data [1,size], FIN=size+1;
	// data occupies [1, dataEnd).
	dataEnd        int64
	sndUna, sndNxt int64
	finSent        bool
	sndMax         int64 // highest sequence ever transmitted

	// Congestion control, in bytes.
	cwnd, ssthresh float64
	dupAcks        int
	inRecovery     bool
	recover        int64

	// Peer flow control.
	peerRwnd   int64
	peerWScale int8
	ecnOn      bool

	// RTO estimation (RFC 6298), ns.
	srtt, rttvar, rto int64
	hasRTT            bool
	backoff           int
	timer             *sim.Timer

	// ECN / DCTCP state.
	cwrSeq   int64 // one reduction per window: next allowed at ack > cwrSeq
	sendCWR  bool
	alpha    float64
	epochEnd int64
	ackedB   int64 // DCTCP per-epoch acked bytes
	markedB  int64 // ... of which ECE-marked

	// Cubic state (RFC 8312).
	wMax       float64 // window before the last reduction, segments
	cubicEpoch int64   // time of the last reduction; 0 = no epoch yet

	// SACK state (RFC 2018/6675-lite).
	sackOn     bool
	board      scoreboard
	rexmitNext int64 // highest hole byte already repaired this recovery

	aborted bool // connection reset (by us or the peer)

	stats Stats

	// OnComplete fires once when the FIN is acknowledged, with the flow
	// completion time (ns since Start).
	OnComplete func(fct int64)
}

// NewSender prepares a connection from host to dst:dport carrying size
// payload bytes (tcp.Infinite for a long-lived flow). It binds an ephemeral
// local port immediately; call Start to begin the handshake.
func NewSender(host *netem.Host, dst netem.NodeID, dport uint16, size int64, cfg Config) *Sender {
	s := &Sender{
		cfg:   cfg,
		host:  host,
		eng:   host.Eng,
		dst:   dst,
		sport: host.AllocPort(),
		dport: dport,
		size:  size,
	}
	if size == Infinite {
		s.dataEnd = 1<<62 - 2
	} else {
		s.dataEnd = 1 + size
	}
	s.cwnd = float64(cfg.InitCwnd * cfg.MSS)
	s.ssthresh = float64(cfg.SsthreshInit * cfg.MSS)
	s.alpha = 1 // DCTCP starts conservative, per the original paper
	s.rto = cfg.InitRTO
	s.peerRwnd = 1 << 30 // until the SYN-ACK tells us otherwise
	s.timer = sim.NewTimer(s.eng, s.onRTO)
	host.Bind(netem.ConnID{LocalPort: s.sport, Remote: dst, RemotePort: dport}, s)
	return s
}

// FlowKey returns the forward (data-direction) 4-tuple.
func (s *Sender) FlowKey() netem.FlowKey {
	return netem.FlowKey{Src: s.host.ID, Dst: s.dst, SrcPort: s.sport, DstPort: s.dport}
}

// Stats returns a copy of the connection counters.
func (s *Sender) Stats() Stats { return s.stats }

// State returns a printable connection state (for tests and tracing).
func (s *Sender) State() string { return s.state.String() }

// Cwnd returns the congestion window in bytes.
func (s *Sender) Cwnd() float64 { return s.cwnd }

// SndUna returns the lowest unacknowledged sequence number.
func (s *Sender) SndUna() int64 { return s.sndUna }

// SndNxt returns the next sequence number to transmit.
func (s *Sender) SndNxt() int64 { return s.sndNxt }

// MSS returns the configured segment payload size in bytes.
func (s *Sender) MSS() int { return s.cfg.MSS }

// Established reports whether the handshake completed and the connection
// has not yet finished.
func (s *Sender) Established() bool { return s.state == stateEstablished }

// PeerRwnd returns the last advertised peer window in bytes.
func (s *Sender) PeerRwnd() int64 { return s.peerRwnd }

// Done reports whether the flow completed (FIN acknowledged).
func (s *Sender) Done() bool { return s.state == stateFinished }

// Finite reports whether the flow carries a bounded payload. Long-lived
// Infinite flows never Done() by design; recovery checks skip them.
func (s *Sender) Finite() bool { return s.size != Infinite }

// Start begins the handshake. Must be called inside the simulation (from an
// event or before Run at time 0).
func (s *Sender) Start() {
	if s.state != stateClosed {
		panic("tcp: Start on non-closed sender")
	}
	s.state = stateSynSent
	s.startTime = s.eng.Now()
	s.sndUna, s.sndNxt = 0, 1
	s.sendSYN()
}

func (s *Sender) sendSYN() {
	p := s.newPacket()
	p.Flags = netem.FlagSYN
	p.Seq = 0
	p.Wire = netem.HeaderSize
	p.WScaleOpt = wscaleFor(s.cfg.RcvBuf)
	p.Rwnd = EncodeRwnd(int64(s.cfg.RcvBuf), p.WScaleOpt)
	if s.cfg.ECN {
		// RFC 3168 ECN-setup SYN.
		p.Flags |= netem.FlagECE | netem.FlagCWR
	}
	p.SackOK = s.cfg.SACK
	s.transmit(p)
	s.timer.Reset(s.rto)
}

// newPacket fills the fields common to every outgoing segment. Packets come
// from the host's free list; ownership passes to the host on transmit and
// the far end releases them.
func (s *Sender) newPacket() *netem.Packet {
	p := s.host.AllocPacket()
	p.ID = s.host.NextPacketID()
	p.Src = s.host.ID
	p.Dst = s.dst
	p.SrcPort = s.sport
	p.DstPort = s.dport
	p.TSVal = s.eng.Now()
	p.WScaleOpt = -1
	p.SentAt = s.eng.Now()
	return p
}

func (s *Sender) transmit(p *netem.Packet) {
	netem.SetChecksum(p)
	s.host.Send(p)
}

// window returns the current send limit in bytes.
func (s *Sender) window() int64 {
	w := int64(s.cwnd)
	if s.peerRwnd < w {
		w = s.peerRwnd
	}
	return w
}

func (s *Sender) flight() int64 { return s.sndNxt - s.sndUna }

// trySend transmits as many new segments as the window allows, then the FIN
// once all data is out.
func (s *Sender) trySend() {
	if s.state != stateEstablished {
		return
	}
	for {
		if s.sndNxt < s.dataEnd {
			remaining := s.dataEnd - s.sndNxt
			seg := int64(s.cfg.MSS)
			if remaining < seg {
				seg = remaining
			}
			if s.flight()+seg > s.window() {
				// A receiver-clamped window below one MSS must still make
				// progress when nothing is in flight.
				if s.flight() > 0 {
					return
				}
				seg = s.window()
				if seg > remaining {
					seg = remaining
				}
				if seg <= 0 {
					return
				}
			}
			s.sendData(s.sndNxt, int(seg))
			s.sndNxt += seg
			continue
		}
		// All data transmitted; emit FIN for finite flows.
		if s.size != Infinite && !s.finSent {
			s.sendFIN()
			s.sndNxt = s.dataEnd + 1
			s.finSent = true
		}
		return
	}
}

func (s *Sender) sendData(seq int64, payload int) {
	p := s.newPacket()
	p.Flags = netem.FlagACK
	p.Seq = seq
	p.Ack = 1 // we receive no peer data beyond the SYN-ACK
	p.Payload = payload
	p.Wire = netem.HeaderSize + payload
	p.Rwnd = EncodeRwnd(int64(s.cfg.RcvBuf), wscaleFor(s.cfg.RcvBuf))
	if s.ecnOn {
		p.ECN = netem.ECT0
	}
	if s.sendCWR {
		p.Flags |= netem.FlagCWR
		s.sendCWR = false
	}
	s.stats.SegsSent++
	if seq < s.sndMax {
		s.stats.Retransmits++
	} else {
		s.sndMax = seq + int64(payload)
	}
	s.transmit(p)
	if !s.timer.Armed() {
		s.timer.Reset(s.rto)
	}
}

func (s *Sender) sendFIN() {
	p := s.newPacket()
	p.Flags = netem.FlagFIN | netem.FlagACK
	p.Seq = s.dataEnd
	p.Ack = 1
	p.Wire = netem.HeaderSize
	if s.ecnOn {
		p.ECN = netem.ECT0
	}
	s.stats.SegsSent++
	if s.dataEnd < s.sndMax {
		s.stats.Retransmits++
	} else {
		s.sndMax = s.dataEnd + 1
	}
	s.transmit(p)
	if !s.timer.Armed() {
		s.timer.Reset(s.rto)
	}
}

// retransmitOne resends the segment starting at sndUna.
func (s *Sender) retransmitOne() {
	switch {
	case s.sndUna == 0:
		s.sendSYN()
	case s.sndUna < s.dataEnd:
		remaining := s.dataEnd - s.sndUna
		seg := int64(s.cfg.MSS)
		if remaining < seg {
			seg = remaining
		}
		s.sendData(s.sndUna, int(seg))
	default:
		s.sendFIN()
	}
}

// HandlePacket implements netem.Handler.
func (s *Sender) HandlePacket(p *netem.Packet) {
	if p.Flags.Has(netem.FlagRST) && s.state != stateClosed && s.state != stateFinished {
		s.abortLocal()
		return
	}
	switch s.state {
	case stateSynSent:
		s.handleSynAck(p)
	case stateEstablished:
		s.handleAck(p)
	case stateFinished, stateClosed:
		// Stray segment after completion; ignore.
	}
}

// Abort tears the connection down immediately, sending a RST to the peer
// (the behaviour of a killed application). No completion callback fires.
func (s *Sender) Abort() {
	if s.state == stateClosed || s.state == stateFinished {
		return
	}
	rst := s.newPacket()
	rst.Flags = netem.FlagRST | netem.FlagACK
	rst.Seq = s.sndNxt
	rst.Wire = netem.HeaderSize
	s.transmit(rst)
	s.abortLocal()
}

// Aborted reports whether the connection was reset before completing.
func (s *Sender) Aborted() bool { return s.aborted }

func (s *Sender) abortLocal() {
	s.aborted = true
	s.state = stateFinished
	s.timer.Stop()
	s.host.Unbind(netem.ConnID{LocalPort: s.sport, Remote: s.dst, RemotePort: s.dport})
}

func (s *Sender) handleSynAck(p *netem.Packet) {
	if !p.Flags.Has(netem.FlagSYN) || !p.Flags.Has(netem.FlagACK) || p.Ack != 1 {
		return
	}
	s.state = stateEstablished
	s.sndUna = 1
	if p.WScaleOpt >= 0 {
		s.peerWScale = p.WScaleOpt
	}
	s.peerRwnd = DecodeRwnd(p.Rwnd, s.peerWScale)
	s.ecnOn = s.cfg.ECN && p.Flags.Has(netem.FlagECE)
	s.sackOn = s.cfg.SACK && p.SackOK
	if p.TSEcr > 0 {
		s.updateRTT(s.eng.Now() - p.TSEcr)
	}
	s.backoff = 0
	s.rto = s.clampRTO(s.rtoValue())
	s.timer.Stop()
	s.epochEnd = s.sndNxt
	// The handshake ACK rides along with the first data segment(s); a pure
	// ACK is sent only when there is nothing to transmit yet.
	if s.sndNxt >= s.dataEnd && s.size == 0 {
		s.sendFIN()
		s.sndNxt = s.dataEnd + 1
		s.finSent = true
		return
	}
	s.trySend()
}

func (s *Sender) handleAck(p *netem.Packet) {
	if !p.Flags.Has(netem.FlagACK) || p.Flags.Has(netem.FlagSYN) {
		return
	}
	s.peerRwnd = DecodeRwnd(p.Rwnd, s.peerWScale)
	ece := p.Flags.Has(netem.FlagECE)
	if ece {
		s.stats.EceAcks++
	}
	if s.sackOn {
		for _, b := range p.Sack {
			s.board.add(b)
		}
	}

	switch {
	case p.Ack > s.sndUna:
		s.newAck(p, ece)
	case p.Ack == s.sndUna && s.flight() > 0 && !p.IsData():
		s.dupAck(p, ece)
	}
	// ECE on any ACK triggers the classic once-per-RTT response for the
	// loss-based variants (NewReno halves, Cubic cuts by beta).
	if ece && s.ecnOn && s.cfg.ECNResponsive &&
		(s.cfg.Variant == NewReno || s.cfg.Variant == Cubic) {
		s.ecnReduce()
	}
	s.trySend()
}

// ecnReduce cuts the window once per RTT on ECE (RFC 3168 §6.1.2): by
// half for NewReno, by Cubic's beta for Cubic.
func (s *Sender) ecnReduce() {
	if s.inRecovery || s.sndUna <= s.cwrSeq {
		return
	}
	s.cwrSeq = s.sndNxt
	s.ssthresh = maxf(s.cwnd*s.reductionFactor(), float64(2*s.cfg.MSS))
	s.enterCubicEpoch()
	s.cwnd = s.ssthresh
	s.sendCWR = true
	s.stats.ECNReductions++
}

// reductionFactor is the multiplicative-decrease constant of the variant.
func (s *Sender) reductionFactor() float64 {
	if s.cfg.Variant == Cubic {
		return cubicBeta
	}
	return 0.5
}

// enterCubicEpoch records the pre-reduction window as W_max and restarts
// the cubic clock.
func (s *Sender) enterCubicEpoch() {
	if s.cfg.Variant != Cubic {
		return
	}
	s.wMax = s.cwnd / float64(s.cfg.MSS)
	s.cubicEpoch = s.eng.Now()
}

func (s *Sender) newAck(p *netem.Packet, ece bool) {
	acked := p.Ack - s.sndUna
	s.sndUna = p.Ack
	if s.sndNxt < s.sndUna {
		// A late ACK for data sent before a (spurious) timeout collapsed
		// sndNxt: everything up to the ACK is delivered, including a FIN
		// if the ACK covers its sequence slot.
		s.sndNxt = s.sndUna
		s.finSent = s.sndUna > s.dataEnd
	}
	s.stats.BytesAcked += acked
	s.backoff = 0
	if p.TSEcr > 0 {
		s.updateRTT(s.eng.Now() - p.TSEcr)
	}

	// DCTCP fraction accounting.
	if s.cfg.Variant == DCTCP && s.ecnOn {
		s.ackedB += acked
		if ece {
			s.markedB += acked
		}
		if s.sndUna >= s.epochEnd {
			s.dctcpEpoch()
		}
	}

	if s.sackOn {
		s.board.clearBelow(s.sndUna)
	}
	if s.inRecovery {
		if p.Ack >= s.recover {
			// Full acknowledgment: leave recovery.
			s.inRecovery = false
			s.dupAcks = 0
			s.cwnd = s.ssthresh
			s.board.clearBelow(s.sndUna)
			s.rexmitNext = 0
		} else if s.sackOn {
			// Partial ack with SACK: repair the next known hole from the
			// scoreboard, deflate.
			s.sackRetransmit()
			s.cwnd = maxf(s.cwnd-float64(acked)+float64(s.cfg.MSS), float64(s.cfg.MSS))
		} else {
			// Partial ack (RFC 6582): retransmit the next hole, deflate.
			s.retransmitOne()
			s.cwnd = maxf(s.cwnd-float64(acked)+float64(s.cfg.MSS), float64(s.cfg.MSS))
		}
	} else {
		s.dupAcks = 0
		switch {
		case s.cwnd < s.ssthresh:
			// Slow start: one MSS per full-MSS acked.
			s.cwnd += float64(minI64(acked, int64(s.cfg.MSS)))
		case s.cfg.Variant == Cubic && s.cubicEpoch > 0:
			s.cubicUpdate()
		default:
			// Congestion avoidance: ~1 MSS per RTT.
			s.cwnd += float64(s.cfg.MSS) * float64(s.cfg.MSS) / s.cwnd
		}
	}

	// Completion: the FIN's sequence slot (dataEnd) is acknowledged. An
	// ack of dataEnd+1 can only be generated by a receiver that consumed a
	// FIN, so finSent need not be consulted.
	if s.size != Infinite && s.sndUna >= s.dataEnd+1 {
		s.complete()
		return
	}
	if s.flight() == 0 {
		s.timer.Stop()
	} else {
		s.timer.Reset(s.rto)
	}
}

func (s *Sender) dupAck(p *netem.Packet, ece bool) {
	s.dupAcks++
	if s.inRecovery {
		// Window inflation during recovery; with SACK, also repair the
		// next known hole (one per ACK, preserving the clock).
		s.cwnd += float64(s.cfg.MSS)
		s.sackRetransmit()
		return
	}
	if s.dupAcks == 3 {
		s.stats.FastRecovery++
		s.inRecovery = true
		s.recover = s.sndNxt
		s.enterCubicEpoch()
		s.ssthresh = maxf(float64(s.flight())*s.reductionFactor(), float64(2*s.cfg.MSS))
		s.cwnd = s.ssthresh + float64(3*s.cfg.MSS)
		s.rexmitNext = 0
		s.retransmitOne()
		if s.sackOn {
			s.rexmitNext = s.sndUna + int64(s.cfg.MSS)
		}
		s.timer.Reset(s.rto)
	}
}

// sackRetransmit repairs the next scoreboard hole (at most one segment per
// invocation, keeping the ACK clock). Only meaningful during recovery with
// SACK negotiated.
func (s *Sender) sackRetransmit() {
	if !s.sackOn || !s.inRecovery {
		return
	}
	from := s.sndUna
	if s.rexmitNext > from {
		from = s.rexmitNext
	}
	start, end, ok := s.board.nextHole(from)
	if !ok {
		return
	}
	if start >= s.dataEnd {
		// The hole is the FIN's sequence slot.
		s.sendFIN()
		s.rexmitNext = start + 1
		return
	}
	seg := int64(s.cfg.MSS)
	if end-start < seg {
		seg = end - start
	}
	if s.dataEnd-start < seg {
		seg = s.dataEnd - start
	}
	s.sendData(start, int(seg))
	s.rexmitNext = start + seg
}

// Cubic constants (RFC 8312): beta the decrease factor, cubicC the scaling
// constant in segments/second^3.
const (
	cubicBeta = 0.7
	cubicC    = 0.4
)

// cubicUpdate advances the congestion-avoidance window along the cubic
// curve W(t) = C*(t-K)^3 + W_max, floored by the TCP-friendly window, with
// growth capped at one MSS per ACK (as real implementations pace it).
func (s *Sender) cubicUpdate() {
	t := float64(s.eng.Now()-s.cubicEpoch) / float64(sim.Second)
	k := math.Cbrt(s.wMax * (1 - cubicBeta) / cubicC)
	target := cubicC*(t-k)*(t-k)*(t-k) + s.wMax // segments

	// TCP-friendly region (RFC 8312 §4.2).
	rtt := float64(s.srtt) / float64(sim.Second)
	if rtt > 0 {
		friendly := s.wMax*cubicBeta + 3*(1-cubicBeta)/(1+cubicBeta)*(t/rtt)
		if friendly > target {
			target = friendly
		}
	}
	desired := target * float64(s.cfg.MSS)
	if desired > s.cwnd {
		step := desired - s.cwnd
		if step > float64(s.cfg.MSS) {
			step = float64(s.cfg.MSS)
		}
		s.cwnd += step
	}
}

// dctcpEpoch closes a DCTCP observation window: update alpha, apply the
// proportional cut if the window saw any marks, and open the next epoch.
func (s *Sender) dctcpEpoch() {
	if s.ackedB > 0 {
		f := float64(s.markedB) / float64(s.ackedB)
		g := s.cfg.DCTCPGain
		s.alpha = (1-g)*s.alpha + g*f
		if s.markedB > 0 && !s.inRecovery {
			s.cwnd = maxf(s.cwnd*(1-s.alpha/2), float64(s.cfg.MSS))
			s.ssthresh = s.cwnd
			s.sendCWR = true
			s.stats.ECNReductions++
		}
	}
	s.ackedB, s.markedB = 0, 0
	s.epochEnd = s.sndNxt
}

// Alpha returns the DCTCP congestion estimate (tests/instrumentation).
func (s *Sender) Alpha() float64 { return s.alpha }

func (s *Sender) onRTO() {
	if s.state == stateFinished || s.state == stateClosed {
		return
	}
	s.stats.Timeouts++
	s.backoff++
	s.rto = s.clampRTO(s.rto * 2)

	if s.state == stateSynSent {
		s.sendSYN()
		return
	}
	// Classic timeout recovery: collapse to one segment and go back to
	// una; trySend regenerates segments from there.
	s.enterCubicEpoch()
	s.ssthresh = maxf(float64(s.flight())*s.reductionFactor(), float64(2*s.cfg.MSS))
	s.cwnd = float64(s.cfg.MSS)
	s.dupAcks = 0
	s.inRecovery = false
	s.board.reset() // RFC 6675 allows keeping it; resetting is safest
	s.rexmitNext = 0
	s.sndNxt = s.sndUna
	if s.finSent && s.sndUna <= s.dataEnd {
		s.finSent = false // the FIN will be re-sent after the data refills
	}
	s.trySend()
	s.timer.Reset(s.rto)
}

func (s *Sender) complete() {
	s.state = stateFinished
	s.timer.Stop()
	s.host.Unbind(netem.ConnID{LocalPort: s.sport, Remote: s.dst, RemotePort: s.dport})
	if s.OnComplete != nil {
		s.OnComplete(s.eng.Now() - s.startTime)
	}
}

// updateRTT feeds one sample into the RFC 6298 estimator.
func (s *Sender) updateRTT(sample int64) {
	if sample <= 0 {
		return
	}
	if !s.hasRTT {
		s.srtt = sample
		s.rttvar = sample / 2
		s.hasRTT = true
	} else {
		d := sample - s.srtt
		if d < 0 {
			d = -d
		}
		s.rttvar = (3*s.rttvar + d) / 4
		s.srtt = (7*s.srtt + sample) / 8
	}
	s.rto = s.clampRTO(s.rtoValue())
}

func (s *Sender) rtoValue() int64 { return s.srtt + 4*s.rttvar }

func (s *Sender) clampRTO(v int64) int64 {
	if v < s.cfg.MinRTO {
		return s.cfg.MinRTO
	}
	if v > s.cfg.MaxRTO {
		return s.cfg.MaxRTO
	}
	return v
}

// SRTT returns the smoothed RTT estimate (0 before the first sample).
func (s *Sender) SRTT() int64 { return s.srtt }

// RTO returns the current retransmission timeout.
func (s *Sender) RTO() int64 { return s.rto }

func (s *Sender) String() string {
	return fmt.Sprintf("sender %s state=%s una=%d nxt=%d cwnd=%.0f rwnd=%d",
		s.FlowKey(), s.state, s.sndUna, s.sndNxt, s.cwnd, s.peerRwnd)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
