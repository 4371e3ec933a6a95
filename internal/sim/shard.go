package sim

// seqShardSpan partitions the uint64 sequence space between shards: shard
// i's runtime events draw from [(i+1)<<48, (i+2)<<48), while the group's
// shared setup counter owns [0, 1<<48). seq is therefore globally unique
// across the group — a Reservation's children share its seq, but differ
// from it and from each other in rank — which keeps the (Time, rank, seq)
// order total even if two causal rank chains ever hash to the same value.
const seqShardSpan = 1 << 48

// Group runs n engines as the shards of one conservative-lookahead
// windowed simulation. Every window, the shards execute their events in
// [start, start+lookahead-1] one after another on the calling goroutine,
// then the barrier hooks run. The lookahead must be a lower bound on the
// delay of every cross-shard event (for a network fabric: the minimum
// inter-shard link propagation delay), which guarantees no message can
// land inside the window that produced it. A cross-shard send checks that
// bound and then inserts the event straight into its destination engine:
// it lands after the window's end, so after the clock of a shard that has
// already run the window, and the agenda fires events in key order
// whatever order they were inserted in.
//
// Determinism: every event fires in (time, sched, rank, seq) order —
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
	windowed  bool // inside a window: cross-shard sends must clear the lookahead
	barriers  []func(now int64)
}

// NewGroup creates n engines sharing one event-ordering domain. Lookahead
// starts at 1 ns; set the real bound with SetLookahead before RunUntil.
func NewGroup(n int, o Options) *Group {
	if n < 1 {
		panic("sim: group needs at least one shard")
	}
	g := &Group{lookahead: 1}
	for i := 0; i < n; i++ {
		e := NewWith(o)
		e.group = g
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

// OnBarrier registers fn to run after every window, with every shard's
// clock at most the window's end, receiving that end time. Observers that
// need a consistent cross-shard view — e.g. the invariant checker's sweeps
// — hook here instead of scheduling events.
func (g *Group) OnBarrier(fn func(now int64)) {
	g.barriers = append(g.barriers, fn)
}

// SetPoll installs fn as the poll hook on every shard (see Engine.SetPoll).
// When any shard's hook requests a stop, RunUntil returns at the next
// barrier without advancing the clocks.
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
// the engine's own RunUntil, with no windows and no barriers.
func (g *Group) RunUntil(horizon int64) {
	g.sealed = true
	if len(g.engines) == 1 {
		g.engines[0].RunUntil(horizon)
		return
	}
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
		g.windowed = true
		for _, e := range g.engines {
			e.RunUntil(end)
		}
		g.windowed = false
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
