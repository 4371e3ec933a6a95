package harness

import (
	"fmt"

	"hwatch/internal/aqm"
	"hwatch/internal/netem"
	"hwatch/internal/sim"
	"hwatch/internal/tcp"
)

// Checker verifies physical sanity of a running scenario: packet
// conservation at every watched switch port (packets enqueued = packets
// transmitted + packets resident), sequence-space monotonicity of every
// watched TCP sender, and window floors (cwnd and the peer-advertised
// rwnd never fall below one MSS once a connection is established). It is
// opt-in — the sweep costs a walk over watched state every interval — and
// runs in tier-1 tests and behind the CLIs' -check flag.
type Checker struct {
	eng   *sim.Engine
	every int64

	ports   []portWatch
	senders []func() []*tcp.Sender
	lastUna map[*tcp.Sender]int64

	violations []Violation
	limit      int
}

// Violation is one detected invariant breach.
type Violation struct {
	At  int64 // simulation time, ns
	Msg string
}

func (v Violation) String() string {
	return fmt.Sprintf("t=%dns: %s", v.At, v.Msg)
}

// queueStats is satisfied by every aqm discipline.
type queueStats interface{ Stats() aqm.Stats }

type portWatch struct {
	label string
	port  *netem.Port
	q     netem.Queue
}

// NewChecker returns a checker sweeping every `every` ns (<= 0 defaults to
// 100 us, the scenarios' telemetry period). Call Start once watches are
// registered, and Finish after the run for the final sweep and verdict.
func NewChecker(eng *sim.Engine, every int64) *Checker {
	if every <= 0 {
		every = 100 * sim.Microsecond
	}
	return &Checker{
		eng:     eng,
		every:   every,
		lastUna: make(map[*tcp.Sender]int64),
		limit:   32,
	}
}

// WatchPort registers a switch port and its queue for packet-conservation
// checking.
func (c *Checker) WatchPort(label string, port *netem.Port, q netem.Queue) {
	c.ports = append(c.ports, portWatch{label: label, port: port, q: q})
}

// WatchSenders registers a dynamic source of TCP senders (workloads create
// senders over time; the callback is re-evaluated every sweep).
func (c *Checker) WatchSenders(src func() []*tcp.Sender) {
	c.senders = append(c.senders, src)
}

// Every returns the sweep period.
func (c *Checker) Every() int64 { return c.every }

// Sweep runs one check pass immediately. Sharded runs call it from window
// barriers, with every shard at the window's end, instead of Start's
// engine-scheduled tick: mid-window, the other shards' state may be a
// window behind or ahead of the ticking engine's clock.
func (c *Checker) Sweep() { c.sweep() }

// Start schedules the periodic sweep on the engine.
func (c *Checker) Start() {
	var tick func()
	tick = func() {
		c.sweep()
		c.eng.Schedule(c.every, tick)
	}
	c.eng.Schedule(0, tick)
}

// Finish performs one final sweep and returns every violation recorded.
func (c *Checker) Finish() []Violation {
	c.sweep()
	return c.violations
}

func (c *Checker) report(format string, args ...any) {
	if len(c.violations) >= c.limit {
		return // one class of bug can fire every sweep; cap the noise
	}
	c.violations = append(c.violations, Violation{
		At:  c.eng.Now(),
		Msg: fmt.Sprintf(format, args...),
	})
}

func (c *Checker) sweep() {
	for _, w := range c.ports {
		qs, ok := w.q.(queueStats)
		if !ok {
			continue
		}
		st := qs.Stats()
		tx := w.port.Stats().TxPackets
		resident := int64(w.q.Len())
		if st.Enqueued != tx+resident {
			c.report("port %s: conservation broken: enqueued %d != transmitted %d + resident %d (dropped %d, early %d)",
				w.label, st.Enqueued, tx, resident, st.Dropped, st.EarlyDrop)
		}
		if resident < 0 || w.q.Bytes() < 0 {
			c.report("port %s: negative occupancy: len=%d bytes=%d", w.label, resident, w.q.Bytes())
		}
	}
	for _, src := range c.senders {
		for _, s := range src() {
			una, nxt := s.SndUna(), s.SndNxt()
			if prev, seen := c.lastUna[s]; seen && una < prev {
				c.report("flow %s: sndUna regressed %d -> %d", s.FlowKey(), prev, una)
			}
			c.lastUna[s] = una
			if nxt < una {
				c.report("flow %s: sndNxt %d below sndUna %d", s.FlowKey(), nxt, una)
			}
			mss := float64(s.MSS())
			if s.Cwnd() < mss {
				c.report("flow %s: cwnd %.0f below one MSS (%d)", s.FlowKey(), s.Cwnd(), s.MSS())
			}
			if s.Established() && float64(s.PeerRwnd()) < mss {
				c.report("flow %s: advertised rwnd %d below one MSS (%d)", s.FlowKey(), s.PeerRwnd(), s.MSS())
			}
		}
	}
}
