// Package trace provides tcpdump-style packet tracing for the simulator:
// pass-through host filters that log every packet crossing a host's
// ingress/egress chains, either streamed to an io.Writer or retained in a
// bounded ring for post-mortem dumps. Tracing is an observer — verdicts
// are always pass, packets are never mutated.
package trace

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"hwatch/internal/netem"
	"hwatch/internal/sim"
)

// Dir is the direction of a traced packet relative to the host.
type Dir int

const (
	// Out is guest -> network.
	Out Dir = iota
	// In is network -> guest.
	In
)

func (d Dir) String() string {
	if d == Out {
		return ">"
	}
	return "<"
}

// Event is one traced packet observation.
type Event struct {
	T    int64 // simulation time, ns
	Host string
	Dir  Dir
	// Summary is the packet's String() at observation time (packets are
	// mutable in flight, so the text is captured eagerly).
	Summary string
}

func (e Event) String() string {
	return fmt.Sprintf("%10.3fus %-8s %s %s",
		float64(e.T)/float64(sim.Microsecond), e.Host, e.Dir, e.Summary)
}

// Tracer collects events from any number of host taps. Safe for the
// single-goroutine simulator; the mutex only guards post-run readers.
type Tracer struct {
	mu     sync.Mutex
	w      io.Writer // nil = ring only
	ring   []Event
	max    int
	next   int
	filled bool
	total  int64

	// Match, when non-nil, restricts tracing to matching packets.
	Match func(*netem.Packet) bool
}

// NewTracer returns a tracer that keeps the last ringSize events (0
// disables retention) and, if w is non-nil, streams every event to it.
func NewTracer(w io.Writer, ringSize int) *Tracer {
	t := &Tracer{w: w, max: ringSize}
	if ringSize > 0 {
		t.ring = make([]Event, ringSize)
	}
	return t
}

// Total returns how many events were observed (including ones evicted
// from the ring).
func (t *Tracer) Total() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Events returns the retained events, oldest first.
func (t *Tracer) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.max == 0 {
		return nil
	}
	if !t.filled {
		out := make([]Event, t.next)
		copy(out, t.ring[:t.next])
		return out
	}
	out := make([]Event, 0, t.max)
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// Dump renders the retained events as text.
func (t *Tracer) Dump() string {
	var b strings.Builder
	for _, e := range t.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func (t *Tracer) record(eng *sim.Engine, host string, d Dir, p *netem.Packet) {
	if t.Match != nil && !t.Match(p) {
		return
	}
	e := Event{T: eng.Now(), Host: host, Dir: d, Summary: p.String()}
	t.mu.Lock()
	t.total++
	if t.max > 0 {
		t.ring[t.next] = e
		t.next++
		if t.next == t.max {
			t.next = 0
			t.filled = true
		}
	}
	w := t.w
	t.mu.Unlock()
	if w != nil {
		fmt.Fprintln(w, e)
	}
}

// Tap installs a pass-through tracing filter on the host. Install it
// before other filters to see guest-generated packets pre-shim, or after
// to see the shim's rewrites.
func (t *Tracer) Tap(h *netem.Host) {
	h.AddFilter(&tap{tracer: t, host: h})
}

type tap struct {
	tracer *Tracer
	host   *netem.Host
}

func (tp *tap) Outbound(p *netem.Packet) netem.Verdict {
	tp.tracer.record(tp.host.Eng, tp.host.Name, Out, p)
	return netem.VerdictPass
}

func (tp *tap) Inbound(p *netem.Packet) netem.Verdict {
	tp.tracer.record(tp.host.Eng, tp.host.Name, In, p)
	return netem.VerdictPass
}

// FlowMatch returns a Match predicate selecting one connection (either
// direction) by its data-direction 4-tuple.
func FlowMatch(k netem.FlowKey) func(*netem.Packet) bool {
	r := k.Reverse()
	return func(p *netem.Packet) bool {
		fk := p.FlowKey()
		return fk == k || fk == r
	}
}
