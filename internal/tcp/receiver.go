package tcp

import (
	"fmt"
	"sort"

	"hwatch/internal/netem"
	"hwatch/internal/sim"
)

// Receiver is the passive endpoint: it accepts a connection, acknowledges
// data cumulatively (generating duplicate ACKs on reordering/loss), echoes
// congestion marks per its variant, advertises its receive window, and
// consumes payload instantly (the application sink).
//
// ECN echo differs by variant, as in the respective RFCs/papers:
//   - NewReno: ECE latches on any CE and clears when the sender's CWR
//     arrives (RFC 3168).
//   - DCTCP: ECE on each ACK reflects the CE bit of the segment that
//     triggered it (precise per-packet echo; this model ACKs every
//     segment, so no delayed-ACK state machine is needed).
type Receiver struct {
	cfg  Config
	host *netem.Host
	eng  *sim.Engine

	peer         netem.NodeID
	lport, rport uint16

	established bool
	rcvNxt      int64
	ooo         []seqRun // out-of-order runs, sorted by start, disjoint
	finSeq      int64    // -1 until a FIN is seen
	closed      bool

	peerEcn  bool
	eceLatch bool
	sackOn   bool
	wscale   int8

	// Delayed-ACK state.
	pending   int
	delTimer  *sim.Timer
	lastCE    bool
	lastTSVal int64

	delivered int64 // in-order payload bytes accepted
	marksSeen int64 // CE data packets observed

	// OnData fires for every chunk of newly in-order payload (goodput
	// accounting); OnClose fires once when the FIN is consumed.
	OnData  func(n int)
	OnClose func()
}

// NewReceiver constructs the passive endpoint for a connection initiated by
// peer:rport toward lport on host. Typically called from a Listen callback
// via NewListener.
func NewReceiver(host *netem.Host, peer netem.NodeID, lport, rport uint16, cfg Config) *Receiver {
	r := &Receiver{
		cfg:    cfg,
		host:   host,
		eng:    host.Eng,
		peer:   peer,
		lport:  lport,
		rport:  rport,
		finSeq: -1,
		wscale: wscaleFor(cfg.RcvBuf),
	}
	if cfg.DelayedAck {
		r.delTimer = sim.NewTimer(host.Eng, r.flushAck)
	}
	return r
}

// NewListener returns a netem.Listener that spawns a Receiver per inbound
// connection. accept (optional) observes each new receiver, e.g. to attach
// OnData/OnClose hooks.
func NewListener(host *netem.Host, cfg Config, accept func(*Receiver)) netem.Listener {
	return func(syn *netem.Packet) netem.Handler {
		r := NewReceiver(host, syn.Src, syn.DstPort, syn.SrcPort, cfg)
		if accept != nil {
			accept(r)
		}
		return r
	}
}

// Peer returns the remote (data-sending) host's address.
func (r *Receiver) Peer() netem.NodeID { return r.peer }

// Delivered returns the total in-order payload bytes consumed.
func (r *Receiver) Delivered() int64 { return r.delivered }

// Closed reports whether the FIN has been consumed.
func (r *Receiver) Closed() bool { return r.closed }

// MarksSeen returns the number of CE-marked data segments observed.
func (r *Receiver) MarksSeen() int64 { return r.marksSeen }

// HandlePacket implements netem.Handler.
func (r *Receiver) HandlePacket(p *netem.Packet) {
	if p.Flags.Has(netem.FlagRST) {
		// Peer reset: close without acknowledgment (RFC 793).
		if !r.closed {
			r.closed = true
			if r.delTimer != nil {
				r.delTimer.Stop()
			}
			if r.OnClose != nil {
				r.OnClose()
			}
		}
		return
	}
	switch {
	case p.Flags.Has(netem.FlagSYN):
		r.handleSYN(p)
	case p.IsData() || p.Flags.Has(netem.FlagFIN):
		r.handleData(p)
	}
	// Pure ACKs from the peer (e.g. the handshake ACK) need no response.
}

func (r *Receiver) handleSYN(p *netem.Packet) {
	if !r.established {
		r.established = true
		r.rcvNxt = 1
		// RFC 3168 negotiation: ECN-setup SYN has ECE|CWR.
		r.peerEcn = r.cfg.ECN && p.Flags.Has(netem.FlagECE) && p.Flags.Has(netem.FlagCWR)
		r.sackOn = r.cfg.SACK && p.SackOK
	}
	// Reply (and re-reply on retransmitted SYNs).
	sa := r.newPacket()
	sa.Flags = netem.FlagSYN | netem.FlagACK
	if r.peerEcn {
		sa.Flags |= netem.FlagECE
	}
	sa.Seq = 0
	sa.Ack = 1
	sa.SackOK = r.sackOn
	sa.WScaleOpt = r.wscale
	sa.Rwnd = EncodeRwnd(int64(r.cfg.RcvBuf), r.wscale)
	sa.TSEcr = p.TSVal
	r.send(sa)
}

func (r *Receiver) handleData(p *netem.Packet) {
	if !r.established {
		return // data before SYN: drop silently
	}
	if p.ECN == netem.CE && p.IsData() {
		r.marksSeen++
		if r.cfg.Variant != DCTCP {
			// RFC 3168 latch (NewReno, Cubic): ECE until CWR arrives.
			r.eceLatch = true
		}
	}
	if p.Flags.Has(netem.FlagCWR) {
		r.eceLatch = false
	}

	seq := p.Seq
	end := seq + int64(p.Payload)
	if p.Flags.Has(netem.FlagFIN) {
		r.finSeq = seq + int64(p.Payload) // FIN occupies one seq after payload
		end++
	}

	advanced := false
	switch {
	case end <= r.rcvNxt:
		// Entirely duplicate segment (spurious retransmission).
	case seq <= r.rcvNxt:
		// In-order (possibly overlapping) delivery.
		newBytes := end - r.rcvNxt
		r.advance(end, newBytes, p)
		advanced = true
	default:
		// Out of order: buffer the run and emit a duplicate ACK.
		r.insertOOO(seq, end)
	}
	if advanced {
		r.drainOOO()
	}
	r.ackPolicy(p, advanced)
}

// ackPolicy decides whether the segment is acknowledged immediately or
// coalesced under delayed ACKs.
func (r *Receiver) ackPolicy(p *netem.Packet, advanced bool) {
	if !r.cfg.DelayedAck {
		r.sendAck(r.eceFor(p), p.TSVal)
		return
	}
	immediate := !advanced || p.Flags.Has(netem.FlagFIN) || r.closed
	if r.peerEcn && r.cfg.Variant == DCTCP {
		// DCTCP's two-state machine: a CE transition must be signalled at
		// once so the sender's fraction estimate stays byte-accurate.
		if cur := p.ECN == netem.CE; cur != r.lastCE {
			r.lastCE = cur
			immediate = true
		}
	}
	r.pending++
	r.lastTSVal = p.TSVal
	every := r.cfg.AckEvery
	if every < 1 {
		every = 1
	}
	if immediate || r.pending >= every {
		r.flushAck()
		return
	}
	if !r.delTimer.Armed() {
		r.delTimer.Reset(r.cfg.DelAckTimeout)
	}
}

// flushAck emits the pending cumulative acknowledgment.
func (r *Receiver) flushAck() {
	if r.delTimer != nil {
		r.delTimer.Stop()
	}
	r.pending = 0
	ece := false
	if r.peerEcn {
		if r.cfg.Variant == DCTCP {
			ece = r.lastCE
		} else {
			ece = r.eceLatch
		}
	}
	r.sendAck(ece, r.lastTSVal)
}

// eceFor computes the ECE bit for an immediate ACK of packet p.
func (r *Receiver) eceFor(p *netem.Packet) bool {
	if !r.peerEcn {
		return false
	}
	if r.cfg.Variant == DCTCP {
		return p.ECN == netem.CE
	}
	return r.eceLatch
}

// advance moves rcvNxt and accounts delivered payload. FIN consumption is
// detected against finSeq.
func (r *Receiver) advance(end, newBytes int64, p *netem.Packet) {
	r.rcvNxt = end
	payloadNew := newBytes
	if r.finSeq >= 0 && end > r.finSeq {
		payloadNew-- // the FIN's sequence slot is not payload
	}
	if payloadNew > 0 {
		r.delivered += payloadNew
		if r.OnData != nil {
			r.OnData(int(payloadNew))
		}
	}
	if r.finSeq >= 0 && r.rcvNxt > r.finSeq && !r.closed {
		r.closed = true
		if r.OnClose != nil {
			r.OnClose()
		}
	}
}

// seqRun is one contiguous buffered range [s, e) of the sequence space.
// The run list replaced a map[int64]int64 (seq -> end): flat sorted runs
// keep the receiver's per-flow state pointer-free and make every walk —
// merge, drain, window, SACK selection — a short linear scan over a slice
// that stays at most a window's worth of holes long.
type seqRun struct{ s, e int64 }

func (r *Receiver) insertOOO(seq, end int64) {
	// Runs [i, j) overlap or touch the new segment; merge them into it.
	i := sort.Search(len(r.ooo), func(k int) bool { return r.ooo[k].e >= seq })
	j := i
	for j < len(r.ooo) && r.ooo[j].s <= end {
		if r.ooo[j].s < seq {
			seq = r.ooo[j].s
		}
		if r.ooo[j].e > end {
			end = r.ooo[j].e
		}
		j++
	}
	if i == j { // no merge: open a slot at i
		r.ooo = append(r.ooo, seqRun{})
		copy(r.ooo[i+1:], r.ooo[i:])
		r.ooo[i] = seqRun{seq, end}
		return
	}
	r.ooo[i] = seqRun{seq, end}
	r.ooo = append(r.ooo[:i+1], r.ooo[j:]...)
}

func (r *Receiver) drainOOO() {
	for {
		e, ok := r.findRunAt(r.rcvNxt)
		if !ok {
			return
		}
		r.advance(e, e-r.rcvNxt, nil)
	}
}

func (r *Receiver) findRunAt(seq int64) (int64, bool) {
	// Drop fully consumed runs (a sorted prefix), then check whether the
	// first survivor covers seq.
	drop := 0
	for drop < len(r.ooo) && r.ooo[drop].e <= seq {
		drop++
	}
	if drop > 0 {
		r.ooo = r.ooo[:copy(r.ooo, r.ooo[drop:])]
	}
	if len(r.ooo) > 0 && r.ooo[0].s <= seq && seq < r.ooo[0].e {
		e := r.ooo[0].e
		r.ooo = r.ooo[:copy(r.ooo, r.ooo[1:])]
		return e, true
	}
	return 0, false
}

func (r *Receiver) sendAck(ece bool, tsecr int64) {
	a := r.newPacket()
	a.Flags = netem.FlagACK
	a.Seq = 1
	a.Ack = r.rcvNxt
	a.Rwnd = EncodeRwnd(r.window(), r.wscale)
	a.TSEcr = tsecr
	if ece {
		a.Flags |= netem.FlagECE
	}
	if r.sackOn && len(r.ooo) > 0 {
		a.Sack = r.sackBlocks()
		a.Wire += netem.SackOptionBytes(len(a.Sack))
	}
	r.send(a)
}

// sackBlocks reports up to 3 out-of-order runs, highest first (the most
// informative blocks for hole repair). The run list is sorted ascending,
// so the highest blocks are a reverse walk from its tail.
func (r *Receiver) sackBlocks() []netem.SackBlock {
	n := len(r.ooo)
	if n > 3 {
		n = 3
	}
	blocks := make([]netem.SackBlock, 0, n)
	for i := len(r.ooo) - 1; i >= 0 && len(blocks) < 3; i-- {
		blocks = append(blocks, netem.SackBlock{Start: r.ooo[i].s, End: r.ooo[i].e})
	}
	return blocks
}

// window is the advertised receive window: the app consumes instantly, so
// only buffered out-of-order bytes reduce it.
func (r *Receiver) window() int64 {
	var buffered int64
	for _, run := range r.ooo {
		buffered += run.e - run.s
	}
	w := int64(r.cfg.RcvBuf) - buffered
	if w < 0 {
		w = 0
	}
	return w
}

func (r *Receiver) newPacket() *netem.Packet {
	p := r.host.AllocPacket()
	p.ID = r.host.NextPacketID()
	p.Src = r.host.ID
	p.Dst = r.peer
	p.SrcPort = r.lport
	p.DstPort = r.rport
	p.TSVal = r.eng.Now()
	p.WScaleOpt = -1
	p.Wire = netem.HeaderSize
	p.SentAt = r.eng.Now()
	return p
}

func (r *Receiver) send(p *netem.Packet) {
	netem.SetChecksum(p)
	r.host.Send(p)
}

func (r *Receiver) String() string {
	return fmt.Sprintf("receiver %d:%d<%d:%d nxt=%d delivered=%d closed=%v",
		r.host.ID, r.lport, r.peer, r.rport, r.rcvNxt, r.delivered, r.closed)
}
