// Fixture for the pktown analyzer: loaded under the package path
// hwatch/internal/netem/a, inside the ownership scope.
package a

type Packet struct {
	ID   int
	Rwnd uint16
}

func AllocPacket() *Packet          { return &Packet{} }
func ClonePacket(p *Packet) *Packet { c := *p; return &c }
func ReleasePacket(p *Packet)       {}

// Send takes ownership (transfer-by-name).
func Send(p *Packet) {}

// inspect borrows: the caller still owns the packet afterwards.
func inspect(p *Packet) int { return p.ID }

func useAfterRelease() {
	p := AllocPacket()
	ReleasePacket(p)
	_ = p.ID // want `use of packet p after ReleasePacket`
}

func doubleRelease() {
	p := AllocPacket()
	ReleasePacket(p)
	ReleasePacket(p) // want `double release of packet p`
}

func leakOnDropPath(drop bool) {
	p := AllocPacket()
	if drop {
		return // want `pooled packet p leaks on this path`
	}
	Send(p)
}

func cloneLeaks(orig *Packet) {
	c := ClonePacket(orig)
	_ = c.ID
} // want `pooled packet c leaks on this path`

func balanced(drop bool) {
	p := AllocPacket()
	if drop {
		ReleasePacket(p)
		return
	}
	Send(p)
}

func returned() *Packet {
	p := AllocPacket()
	p.ID = 7
	return p // ownership moves to the caller: clean
}

func borrowThenSend() {
	p := AllocPacket()
	_ = inspect(p) // borrow: still owned
	Send(p)
}

// consume releases a parameter, so every path through it owes a release —
// the shape Host.deliverUp has, and the one a deleted Release call breaks.
func consume(p *Packet, bad bool) {
	if bad {
		return // want `pooled packet p leaks on this path`
	}
	ReleasePacket(p)
}

func suppressedLeak(drop bool) {
	p := AllocPacket()
	if drop {
		//hwatchvet:allow pktown ownership moves through a side table the dataflow cannot see
		return
	}
	Send(p)
}

// Engine stands in for sim.Engine: ScheduleRemoteArg is the cross-shard
// handoff (matched by the Schedule.* transfer pattern).
type Engine struct{}

func (e *Engine) ScheduleRemoteArg(dst *Engine, d int64, fn func(any), a any) {}

func deliverArg(a any) {}

// crossShardHandoff: handing a packet to another shard's engine via
// ScheduleRemoteArg is a legal ownership transfer — the receiving shard's
// dispatch releases it. No leak diagnostic.
func crossShardHandoff(e, dst *Engine) {
	p := AllocPacket()
	e.ScheduleRemoteArg(dst, 1, deliverArg, p)
}

// crossShardUseAfterHandoff: once handed off, the sender no longer owns
// the packet; the transfer is conservative (escaped), so later reads are
// not flagged — but a drop path before the handoff still must release.
func crossShardDropBeforeHandoff(e, dst *Engine, drop bool) {
	p := AllocPacket()
	if drop {
		return // want `pooled packet p leaks on this path`
	}
	e.ScheduleRemoteArg(dst, 1, deliverArg, p)
}

func (e *Engine) ScheduleArg(d int64, fn func(any), a any) {}

// corruptMaybeDrop is the impairment corrupt-then-drop shape: the drop
// branch releases, the survivor transfers onward. Clean.
func corruptMaybeDrop(e *Engine, drop bool) {
	p := AllocPacket()
	p.Rwnd ^= 0x0040
	if drop {
		ReleasePacket(p)
		return
	}
	Send(p)
}

// corruptDropLeaks is the same shape with the release deleted.
func corruptDropLeaks(drop bool) {
	p := AllocPacket()
	p.Rwnd ^= 0x0040
	if drop {
		return // want `pooled packet p leaks on this path`
	}
	Send(p)
}

// duplicateCopies: every clone is transferred (re-injected behind the
// original via a scheduled event), then the original moves on. Clean.
func duplicateCopies(e *Engine, orig *Packet, copies int) {
	for i := 0; i < copies; i++ {
		c := ClonePacket(orig)
		e.ScheduleArg(0, deliverArg, c)
	}
	Send(orig)
}

// duplicateCopyLeaks drops a clone on the floor when the loop bails.
func duplicateCopyLeaks(orig *Packet, bail bool) {
	c := ClonePacket(orig)
	if bail {
		return // want `pooled packet c leaks on this path`
	}
	Send(c)
	Send(orig)
}

// holdAndRelease is the reorder/jitter hold shape: the pending release
// event owns the packet while it is parked. Clean.
func holdAndRelease(e *Engine, delay int64) {
	p := AllocPacket()
	e.ScheduleArg(delay, deliverArg, p)
}

// holdLeaksWithoutTransfer parks the packet nowhere on the early path.
func holdLeaksWithoutTransfer(e *Engine, skip bool) {
	p := AllocPacket()
	if skip {
		return // want `pooled packet p leaks on this path`
	}
	e.ScheduleArg(1, deliverArg, p)
}

// Host stands in for netem.Host: packets come from, and go back to, the
// free list of the host's shard through methods named like the package
// functions, and the analyzer matches them the same way.
type Host struct{ free *Host }

func (h *Host) AllocPacket() *Packet    { return &Packet{} }
func (h *Host) ReleasePacket(p *Packet) {}

func methodUseAfterRelease(h, x *Host) {
	p := h.AllocPacket()
	x.ReleasePacket(p)
	_ = p.ID // want `use of packet p after ReleasePacket`
}

func methodDoubleRelease(h *Host) {
	p := h.AllocPacket()
	h.free.ReleasePacket(p)
	h.ReleasePacket(p) // want `double release of packet p`
}

func methodLeak(h *Host, drop bool) {
	p := h.AllocPacket()
	if drop {
		return // want `pooled packet p leaks on this path`
	}
	Send(p)
}
