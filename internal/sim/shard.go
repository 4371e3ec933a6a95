package sim

import (
	"cmp"
	"slices"
)

// seqShardSpan partitions the uint64 sequence space between shards: shard
// i's runtime events draw from [(i+1)<<48, (i+2)<<48), while the group's
// shared setup counter owns [0, 1<<48). seq is therefore globally unique
// across the group — a Reservation's children share its seq, but differ
// from it and from each other in rank — which keeps the (Time, rank, seq)
// order total even if two causal rank chains ever hash to the same value.
const seqShardSpan = 1 << 48

// remoteMsg is one cross-shard event in flight: staged in the sender's
// outbox during a window, carried to engines[dst] by the barrier merge.
// sched, rank and seq are fixed by the sender, so the merged event keeps
// its place in the global (Time, sched, rank, seq) order.
type remoteMsg struct {
	dst   int
	time  int64
	sched int64
	rank  uint64
	seq   uint64
	fn    func(any)
	arg   any
}

// remoteCompare orders messages by the engine's (time, sched, rank, seq)
// event order.
func remoteCompare(a, b remoteMsg) int {
	return cmp.Or(
		cmp.Compare(a.time, b.time),
		cmp.Compare(a.sched, b.sched),
		cmp.Compare(a.rank, b.rank),
		cmp.Compare(a.seq, b.seq),
	)
}

// Group runs n engines as the shards of one conservative-lookahead
// parallel simulation. The protocol is window-synchronous: every window,
// all shards execute their events in [start, start+lookahead-1]
// concurrently, then meet at a barrier where cross-shard messages are
// merged deterministically. The lookahead must be a lower bound on the
// delay of every cross-shard event (for a network fabric: the minimum
// inter-shard link propagation delay), which guarantees no message can
// land inside the window that produced it.
//
// Determinism: merged messages are ordered by (time, sched, rank, seq) —
// oldest cause first, then causal rank — with seq
// globally unique (per-shard spans, see seqShardSpan). Ranks are pure
// functions of causal ancestry — setup-armed events take the group's
// shared arm counter, runtime events chain a hash of their parent's rank —
// so the total event order is identical at ANY shard count and ANY
// GOMAXPROCS: the same model and seed produce the same digest whether it
// runs on one engine or sixteen. (Two independent chains colliding on one
// 64-bit rank at the same instant would fall back to the shard-dependent
// seq; with a splitmix64-quality hash that is a ~2^-64-per-pair event, and
// the digest-parity matrix exists to catch it ever occurring in practice.)
type Group struct {
	engines   []*Engine
	lookahead int64
	setupSeq  uint64
	sealed    bool // first RunUntil has started; setup phase over
	parallel  bool // inside a window: cross-shard sends must use outboxes
	barriers  []func(now int64)
	scratch   []remoteMsg
}

// NewGroup creates n engines sharing one event-ordering domain. Shard 0 is
// the coordinator's engine (it runs on the calling goroutine). Lookahead
// starts at 1 ns; set the real bound with SetLookahead before RunUntil.
func NewGroup(n int, o Options) *Group {
	if n < 1 {
		panic("sim: group needs at least one shard")
	}
	g := &Group{lookahead: 1}
	for i := 0; i < n; i++ {
		e := NewWith(o)
		e.group = g
		e.shard = i
		e.seq = uint64(i+1) * seqShardSpan
		g.engines = append(g.engines, e)
	}
	return g
}

// Shards returns the number of shards.
func (g *Group) Shards() int { return len(g.engines) }

// Engine returns shard i's engine.
func (g *Group) Engine(i int) *Engine { return g.engines[i] }

// SetLookahead fixes the conservative window width. It must be called
// before RunUntil with a positive lower bound on every cross-shard delay.
func (g *Group) SetLookahead(d int64) {
	if d < 1 {
		panic("sim: lookahead must be positive")
	}
	g.lookahead = d
}

// OnBarrier registers fn to run (on the coordinator goroutine, with all
// shards quiescent) after every window's merge, receiving the window's end
// time. Observers that need a consistent cross-shard view — e.g. the
// invariant checker's sweeps — hook here instead of scheduling events.
func (g *Group) OnBarrier(fn func(now int64)) {
	g.barriers = append(g.barriers, fn)
}

// SetPoll installs fn as the poll hook on every shard (see Engine.SetPoll).
// During a window each shard invokes fn from its own worker goroutine, so
// fn must be safe for concurrent use. When any shard's hook requests a
// stop, RunUntil returns at the next barrier without advancing the clocks.
func (g *Group) SetPoll(fn func(now int64, processed uint64) bool) {
	for _, e := range g.engines {
		e.SetPoll(fn)
	}
}

// Stopped reports whether the last RunUntil returned early because a shard
// was stopped (via Stop or a poll hook).
func (g *Group) Stopped() bool {
	for _, e := range g.engines {
		if e.stopped {
			return true
		}
	}
	return false
}

// Processed sums the events executed across all shards.
func (g *Group) Processed() uint64 {
	var n uint64
	for _, e := range g.engines {
		n += e.Processed
	}
	return n
}

// Pending sums the events still queued across all shards.
func (g *Group) Pending() int {
	var n int
	for _, e := range g.engines {
		n += e.Pending()
	}
	return n
}

// RunUntil executes all shards' events with Time <= horizon, then advances
// every shard clock to the horizon. A single-shard group degenerates to
// the engine's own RunUntil — same goroutine, no channels, no barriers.
func (g *Group) RunUntil(horizon int64) {
	g.sealed = true
	if len(g.engines) == 1 {
		g.engines[0].RunUntil(horizon)
		return
	}

	// Persistent workers for shards 1..n-1; shard 0 runs here. The command
	// channel carries the window end, the reply channel the completion.
	// Channel values never reach model state: every cross-shard event
	// flows through the outbox merge below, which fixes its order.
	n := len(g.engines)
	cmds := make([]chan int64, n)
	done := make(chan int, n)
	for i := 1; i < n; i++ {
		cmds[i] = make(chan int64, 1)
		go func(e *Engine, cmd chan int64) {
			for end := range cmd {
				e.RunUntil(end)
				done <- e.shard
			}
		}(g.engines[i], cmds[i])
	}
	defer func() {
		for i := 1; i < n; i++ {
			close(cmds[i])
		}
	}()

	for {
		start := int64(maxTime)
		for _, e := range g.engines {
			if t := e.PeekTime(); t < start {
				start = t
			}
		}
		if start > horizon {
			break
		}
		end := start + g.lookahead - 1
		if end > horizon || end < start { // overflow-safe clamp
			end = horizon
		}
		g.parallel = true
		for i := 1; i < n; i++ {
			cmds[i] <- end
		}
		g.engines[0].RunUntil(end)
		for i := 1; i < n; i++ {
			<-done
		}
		g.parallel = false
		g.merge()
		for _, fn := range g.barriers {
			fn(end)
		}
		// A stopped shard (poll-hook cancellation mid-window) must end the
		// whole run here: the final advance loop below calls RunUntil, which
		// clears the stop flag and would resume processing.
		if g.Stopped() {
			return
		}
	}
	// No events remain at or before the horizon; let each engine advance
	// its clock (post-run observers read Now on their shard's engine).
	for _, e := range g.engines {
		e.RunUntil(horizon)
	}
}

// merge drains every shard's outbox in shard order, sorts the messages by
// the global (time, rank, seq) key, and inserts them into their
// destination shards. The sort key is totally ordered (seq is globally
// unique), so the merged insertion order — and therefore every digest — is
// independent of which goroutine finished its window first.
func (g *Group) merge() {
	msgs := g.scratch[:0]
	for _, e := range g.engines {
		msgs = append(msgs, e.outbox...)
		for i := range e.outbox {
			e.outbox[i] = remoteMsg{}
		}
		e.outbox = e.outbox[:0]
	}
	slices.SortFunc(msgs, remoteCompare)
	for i := range msgs {
		m := &msgs[i]
		g.engines[m.dst].insertRemote(m.time, m.sched, m.rank, m.seq, m.fn, m.arg)
		msgs[i] = remoteMsg{} // drop fn/arg refs; scratch is reused
	}
	g.scratch = msgs[:0]
}
