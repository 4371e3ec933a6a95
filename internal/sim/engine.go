// Package sim provides a deterministic discrete-event simulation engine.
//
// Time is measured in integer nanoseconds. Same-instant events fire
// oldest-cause first (by the clock value at scheduling time), and events
// scheduled at the same instant from causes at the same instant order by a
// causal rank: setup-armed events keep scheduling order (FIFO), events
// scheduled from inside callbacks chain a deterministic hash of their
// ancestry. The total order is a pure function of the model and seed —
// bit-for-bit reproducible, at any shard count (see Group) and GOMAXPROCS.
//
// The scheduler is a calendar queue: a timer wheel of power-of-two tick
// slots covers the near future (~1 ms at 4.096 µs per tick), and a typed
// 4-ary heap holds the far-future overflow. Events for the tick being
// drained sit in a sorted agenda so the (Time, sched, rank, seq) total
// order — and therefore every golden digest — is identical to the
// plain-heap scheduler, which remains available via Options.NoWheel as the
// test oracle.
//
// Events occupy per-engine slots that are recycled as soon as their event
// fires or is cancelled, so a steady-state run allocates nothing per event.
// Model code holds a Handle (slot + generation), never the slot: a handle
// kept past its event's life is inert, whatever the slot carries by then.
// Options.NoSlab keeps a never-reusing store as the oracle for that too.
package sim

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// Common durations, in nanoseconds.
const (
	Nanosecond  int64 = 1
	Microsecond int64 = 1000 * Nanosecond
	Millisecond int64 = 1000 * Microsecond
	Second      int64 = 1000 * Millisecond
)

const maxTime = 1<<63 - 1

// Wheel geometry. A tick is 2^tickBits ns; the wheel spans numSlots
// consecutive ticks (curTick, curTick+numSlots]. Anything further out
// waits in the overflow heap and is promoted as the wheel turns.
const (
	tickBits = 12 // 4.096 µs per tick
	numSlots = 256
	slotMask = numSlots - 1
	// slabSize events of 96 B plus the 8 B header the runtime puts before
	// a large pointer-bearing object fill the 24 KiB size class; 256 would
	// spill into the next one.
	slabSize = 255
)

// pollEvery is the fired-event cadence between poll-hook invocations:
// frequent enough that a cancellation lands within microseconds of wall
// time on any realistic event rate, rare enough that the per-event nil
// check is the hook's only cost in the engine benchmarks.
const pollEvery = 4096

// idx >= 0 means the event lives in the overflow heap at that position;
// Cancel removes it eagerly, so far-future timers never hold queue entries
// or slots. idxStaged marks wheel/agenda residency, where Cancel is lazy:
// the callback is nilled and the shell is dropped at drain time.
const idxStaged = -1

// event is one slot of the engine's event store: the identity and callback
// of the scheduled event currently occupying it. Model code never sees a
// slot, only a Handle to one occupancy of it.
type event struct {
	// next chains the events of one wheel slot, and links vacant slots into
	// the engine's free list; it is stale while the event sits in the
	// agenda or the overflow heap. It leads the order key: 96-byte events
	// in a slab start at two offsets 32 bytes apart within a cache line (8
	// and 40, after the runtime's allocation header), and at both, next,
	// Time and sched — all that the slot walk and most compares read —
	// share one line.
	next *event
	Time int64 // absolute firing time, ns
	// sched is the clock value at scheduling time. Same-instant events fire
	// oldest-cause first: an event armed earlier (a port's tx-completion, a
	// long-armed timer) beats one scheduled later for the same instant,
	// which is also what gives saturated queues their
	// departure-before-arrival boundary semantics.
	sched int64
	// rank breaks (Time, sched) ties. It is a pure function of the event's
	// causal ancestry: events scheduled outside event dispatch (setup code,
	// test harnesses) take the monotone scheduling counter, so pre-run
	// arming keeps FIFO order; events scheduled from inside a callback take
	// mix64(parent rank) + child index, so siblings of one cause stay FIFO
	// while unrelated concurrently-scheduled events order by a canonical
	// hash chain that is identical at any shard count and GOMAXPROCS (see
	// Group).
	rank uint64
	seq  uint64
	fn   func(any)
	arg  any
	eng  *Engine // owning engine; fixed for the slot's lifetime
	idx  int32
	// kids is the child index the callback's first Schedule takes: 0, or
	// for an event inserted from a Reservation, the children it already
	// has (see reserve.go).
	kids uint32
	// postponed marks a Timer expiry whose timer was since Reset to a
	// later identity: when the event surfaces it is filed again under that
	// identity instead of firing (see Timer.Reset).
	postponed bool
	// gen counts the slot's occupancies. Firing or cancelling the occupant
	// bumps it, which is what turns every outstanding Handle stale before
	// the slot can be handed out again.
	gen uint64
}

// slotList is one wheel slot: a LIFO list of its n events chained through
// next, newest first. Pushing at the head writes only the event being
// staged; refillDue lays the list out back to front, in arrival order.
type slotList struct {
	head *event
	n    int
}

// callFunc adapts a plain func() to the internal func(any) representation.
// Func values are pointer-shaped, so storing fn in the arg slot does not
// allocate.
func callFunc(a any) { a.(func())() }

// Handle names one scheduled event: a slot of the owning engine's event
// store plus the slot's generation at scheduling time. Slots are recycled,
// so a handle is live only until its event fires or is cancelled; after
// that — even once the slot carries an unrelated later event — Cancel,
// Pending and Time see the generation mismatch and do nothing. The zero
// Handle is never live. Handles are small values: copy them freely.
type Handle struct {
	ev  *event
	gen uint64
}

// Pending reports whether the event is still scheduled: not yet fired and
// not cancelled.
func (h Handle) Pending() bool { return h.ev != nil && h.ev.gen == h.gen }

// Time returns the event's absolute firing time, or -1 once it is no
// longer pending.
func (h Handle) Time() int64 {
	if !h.Pending() {
		return -1
	}
	return h.ev.Time
}

// Cancel prevents the event from firing. Far-future events are removed from
// the overflow heap and their slot is reusable immediately; near-future
// events stay staged as an empty shell until their tick drains (at most
// ~1 ms of simulated time later). Either way Engine.Pending stays exact.
// Cancelling a fired, cancelled or zero handle is a no-op, whatever the
// slot has been reused for since.
func (h Handle) Cancel() {
	if !h.Pending() {
		return
	}
	ev := h.ev
	ev.gen++
	ev.fn = nil
	ev.arg = nil
	e := ev.eng
	e.live--
	if ev.idx >= 0 {
		e.pq.remove(int(ev.idx))
		e.release(ev)
	}
}

// Options tunes engine internals. The zero value is the production
// configuration: timer wheel and slab event allocation enabled.
type Options struct {
	// NoWheel selects the plain heap scheduler (the historical
	// implementation). It is kept as the oracle for equivalence tests and
	// as an escape hatch; event ordering is identical either way.
	NoWheel bool
	// NoSlab allocates every event individually and never reuses one,
	// instead of recycling slots carved from slabs. Handles behave
	// identically either way; the equivalence tests use it as the oracle
	// for the recycling store. As a default option it also turns off the
	// packet free lists of every netem network built under it.
	NoSlab bool
}

var defaultOpts atomic.Int32

// SetDefaultOptions changes the configuration used by New: the oracle the
// digest-parity tests run every engine of a scenario under. Engines
// already constructed are unaffected.
func SetDefaultOptions(o Options) {
	var v int32
	if o.NoWheel {
		v |= 1
	}
	if o.NoSlab {
		v |= 2
	}
	defaultOpts.Store(v)
}

// DefaultOptions reports the configuration New will use.
func DefaultOptions() Options {
	v := defaultOpts.Load()
	return Options{NoWheel: v&1 != 0, NoSlab: v&2 != 0}
}

// Engine is a discrete-event scheduler.
//
// The zero value is not usable; call New.
type Engine struct {
	now     int64
	seq     uint64
	stopped bool
	noWheel bool
	noSlab  bool

	// pq is the far-future overflow in wheel mode (ticks beyond
	// curTick+numSlots), or the entire queue in NoWheel mode.
	pq eventHeap

	// curTick is the tick whose events are staged in due; -1 until the
	// first drain. due[dueIdx:] is the sorted agenda for that tick.
	curTick int64
	due     []*event
	dueIdx  int

	// sortDue's scratch: merge buffer and spread buffer (both cleared
	// after use, so they pin no slot), run boundaries, and the Times of a
	// short agenda.
	mergeBuf []*event
	runs     []int
	spread   [insertionMax]*event
	keys     [insertionMax]int64

	// slots hold events for ticks in (curTick, curTick+numSlots], one
	// tick per slot, each an intrusive list that costs no allocation;
	// occupied is a bitmap over slot indices.
	slots      [numSlots]slotList
	occupied   [numSlots / 64]uint64
	wheelCount int

	// live counts scheduled-but-not-yet-fired-or-cancelled events, so
	// Pending stays exact even with lazy wheel cancellation.
	live int

	// Dispatch context for rank assignment: while fire runs a callback,
	// children rank as dispatchBase (a hash of the parent's rank) plus a
	// per-dispatch counter. Outside dispatch, ranks fall back to the
	// scheduling sequence counter (setup FIFO).
	inDispatch   bool
	dispatchBase uint64
	dispatchIdx  uint64
	// The running dispatch's own (sched, rank, seq), for Periodic.idle and
	// Owed.
	firingSched int64
	firingRank  uint64
	firingSeq   uint64

	// Event store: slots are carved from slab in slabSize chunks and
	// recycled LIFO through the free list, so the slot an event just
	// vacated is the one its callback's first Schedule gets back, still
	// cache-hot. minted counts slots ever carved.
	slab    []event
	slabIdx int
	free    *event
	minted  int

	// group is the Group this engine is a shard of; nil for a standalone
	// engine (see shard.go).
	group *Group

	// poll, when set, is invoked every pollEvery fired events with the
	// current clock and the fired-event count; returning true stops the run
	// like Stop. pollGap counts events since the last invocation.
	poll    func(now int64, processed uint64) bool
	pollGap int

	// Processed counts events executed; useful for progress reporting
	// and as a runaway guard in tests. A parked Chain's idle periods are
	// not events, and neither is a Reservation that is never inserted (a
	// port's txDone when nothing is enqueued before it would fire).
	Processed uint64
}

// New returns an engine with the clock at zero, configured per
// DefaultOptions.
func New() *Engine { return NewWith(DefaultOptions()) }

// NewWith returns an engine with the clock at zero and explicit internals.
func NewWith(o Options) *Engine {
	return &Engine{noWheel: o.NoWheel, noSlab: o.NoSlab, curTick: -1}
}

// Now returns the current simulation time in nanoseconds.
func (e *Engine) Now() int64 { return e.now }

// Schedule runs fn after delay nanoseconds. A negative delay is an error in
// the model and panics. It returns a handle usable to cancel the event.
func (e *Engine) Schedule(delay int64, fn func()) Handle {
	if fn == nil {
		panic("sim: nil event func")
	}
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	return e.at(e.now+delay, callFunc, fn)
}

// ScheduleArg runs fn(arg) after delay nanoseconds. It is the
// allocation-free form of Schedule for hot paths: fn is typically a bound
// method value cached at construction time, so no closure is built per
// event.
func (e *Engine) ScheduleArg(delay int64, fn func(any), arg any) Handle {
	if fn == nil {
		panic("sim: nil event func")
	}
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	return e.at(e.now+delay, fn, arg)
}

// At runs fn at absolute time t (ns). Scheduling in the past panics.
func (e *Engine) At(t int64, fn func()) Handle {
	if fn == nil {
		panic("sim: nil event func")
	}
	return e.at(t, callFunc, fn)
}

// AtArg runs fn(arg) at absolute time t (ns); see ScheduleArg.
func (e *Engine) AtArg(t int64, fn func(any), arg any) Handle {
	if fn == nil {
		panic("sim: nil event func")
	}
	return e.at(t, fn, arg)
}

func (e *Engine) at(t int64, fn func(any), arg any) Handle {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", t, e.now))
	}
	ev := e.newEvent()
	ev.Time = t
	ev.sched = e.now
	ev.seq = e.nextSeq()
	ev.rank = e.nextRank(ev.seq)
	ev.fn = fn
	ev.arg = arg
	e.live++
	e.insert(ev)
	return Handle{ev, ev.gen}
}

// mix64 is the splitmix64 finalizer: the stateless hash that chains event
// ranks from parent to child.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// nextRank assigns the same-instant tie-break rank. Inside a callback the
// rank chains from the parent event (hash base + sibling index), making it
// a pure function of causal ancestry — identical no matter which shard or
// goroutine runs the chain. Outside dispatch it is the scheduling counter,
// so setup-armed events keep FIFO order.
func (e *Engine) nextRank(seq uint64) uint64 {
	if !e.inDispatch {
		return seq
	}
	r := e.dispatchBase + e.dispatchIdx
	e.dispatchIdx++
	return r
}

// nextSeq hands out the next tie-break sequence number. Standalone engines
// (and sealed group members) use the per-engine counter; group members in
// the sequential setup phase share the group's global counter, so events
// armed before the run starts keep the exact single-loop FIFO order no
// matter which shard they land on.
func (e *Engine) nextSeq() uint64 {
	if g := e.group; g != nil && !g.sealed {
		s := g.setupSeq
		g.setupSeq++
		if s >= seqShardSpan {
			panic("sim: group setup sequence space exhausted")
		}
		return s
	}
	s := e.seq
	e.seq++
	return s
}

// ScheduleRemoteArg runs fn(arg) after delay nanoseconds on dst, which may
// belong to a different shard of the same Group. The event is inserted
// into dst at once. Inside a window, a delay to another shard must be at
// least the group's lookahead: that bound puts the event after the window's
// end, which is what makes the conservative window safe.
func (e *Engine) ScheduleRemoteArg(dst *Engine, delay int64, fn func(any), arg any) {
	if fn == nil {
		panic("sim: nil event func")
	}
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	seq := e.nextSeq()
	e.sendRemote(dst, e.now+delay, e.now, e.nextRank(seq), seq, fn, arg)
}

// sendRemote inserts an event with a fixed identity into dst. Inside a
// window, a cross-shard event must land at least a lookahead after now.
func (e *Engine) sendRemote(dst *Engine, t, sched int64, rank, seq uint64, fn func(any), arg any) {
	g := e.group
	if dst.group != g {
		panic("sim: remote event across unrelated engines")
	}
	if dst != e && g != nil && g.windowed && t-e.now < g.lookahead {
		panic(fmt.Sprintf("sim: cross-shard delay %d below lookahead %d", t-e.now, g.lookahead))
	}
	dst.insertRemote(t, sched, rank, seq, fn, arg)
}

// insertRemote inserts an event whose (sched, rank, seq) identity was
// fixed elsewhere: by the sending engine, or by the Chain resuming it. The
// firing time must not precede this engine's clock; the group's lookahead
// bound guarantees that for cross-shard events.
func (e *Engine) insertRemote(t, sched int64, rank, seq uint64, fn func(any), arg any) Handle {
	if t < e.now {
		panic(fmt.Sprintf("sim: remote event at %d before now %d (lookahead violation)", t, e.now))
	}
	ev := e.newEvent()
	ev.Time = t
	ev.sched = sched
	ev.rank = rank
	ev.seq = seq
	ev.fn = fn
	ev.arg = arg
	e.live++
	e.insert(ev)
	return Handle{ev, ev.gen}
}

// PeekTime returns the firing time of the earliest queued event, or
// maxTime when the queue is empty. Cancelled-but-staged events count (they
// are dropped at drain time), which can only make a window start early,
// never late — harmless for the conservative protocol.
func (e *Engine) PeekTime() int64 {
	t := int64(maxTime)
	if e.noWheel {
		if len(e.pq) > 0 {
			t = e.pq[0].Time
		}
		return t
	}
	if e.dueIdx < len(e.due) {
		t = e.due[e.dueIdx].Time
	}
	if e.wheelCount > 0 {
		s := int(e.nextOccupiedTick() & slotMask)
		for ev := e.slots[s].head; ev != nil; ev = ev.next {
			if ev.Time < t {
				t = ev.Time
			}
		}
	}
	if len(e.pq) > 0 && e.pq[0].Time < t {
		t = e.pq[0].Time
	}
	return t
}

// newEvent hands out a vacant slot: the most recently released one if any,
// else a fresh one carved from the current slab. Recycling is safe because
// model code holds Handles, never slot pointers — a handle kept across fire
// time (e.g. an epoch timer cancelled after it already expired) fails its
// generation check instead of reaching the slot's next occupant. NoSlab
// engines allocate every event and recycle nothing.
func (e *Engine) newEvent() *event {
	if ev := e.free; ev != nil {
		e.free = ev.next
		resetOnAlloc(ev)
		return ev
	}
	e.minted++
	if e.noSlab {
		return &event{eng: e}
	}
	if e.slabIdx == len(e.slab) {
		e.slab = make([]event, slabSize)
		e.slabIdx = 0
	}
	ev := &e.slab[e.slabIdx]
	e.slabIdx++
	ev.eng = e
	return ev
}

// release returns a vacated slot — fired, or cancelled and no longer staged
// anywhere — to the free list. Only the owning engine releases its slots,
// and a cross-shard event is allocated on its destination engine.
func (e *Engine) release(ev *event) {
	if e.noSlab {
		return
	}
	ev.kids = 0
	ev.postponed = false
	scrubOnRelease(ev)
	ev.next = e.free
	e.free = ev
}

func (e *Engine) insert(ev *event) {
	if e.noWheel {
		e.pq.push(ev)
		return
	}
	tick := ev.Time >> tickBits
	switch {
	case tick <= e.curTick:
		// The tick being drained, or earlier (legal after RunUntil left
		// now at a horizon before the staged agenda): merge into due in
		// (Time, seq) position.
		ev.idx = idxStaged
		e.dueInsert(ev)
	case tick <= e.curTick+numSlots:
		e.slotAppend(tick, ev)
	default:
		e.pq.push(ev)
	}
}

// slotAppend stages ev in its tick's slot.
func (e *Engine) slotAppend(tick int64, ev *event) {
	ev.idx = idxStaged
	s := int(tick & slotMask)
	l := &e.slots[s]
	ev.next = l.head
	l.head = ev
	l.n++
	e.occupied[s>>6] |= 1 << uint(s&63)
	e.wheelCount++
}

// eventBefore is the engine's total event order: (Time, sched, rank, seq).
// sched and rank are both pure functions of the model (a clock value and a
// causal-chain hash), identical at any shard count — so the order, and
// therefore every digest, is too. seq (globally unique across a group) is
// the fallback for the astronomically rare rank collision, and keeps the
// order total.
func eventBefore(a, b *event) bool { return sortsBefore(a, b.Time, b.sched, b.rank, b.seq) }

// sortsBefore is eventBefore against an identity that need not belong to
// an event yet (a Timer's re-arm).
func sortsBefore(a *event, t, sched int64, rank, seq uint64) bool {
	if a.Time != t {
		return a.Time < t
	}
	if a.sched != sched {
		return a.sched < sched
	}
	if a.rank != rank {
		return a.rank < rank
	}
	return a.seq < seq
}

// dueInsert places ev into the unconsumed agenda suffix, keeping it sorted
// by (Time, sched, rank, seq). The entries on the shorter side of its
// place move: the later ones up, or the earlier ones down into the agenda
// entry the last fired event vacated.
func (e *Engine) dueInsert(ev *event) {
	lo, hi := e.dueIdx, len(e.due)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if eventBefore(e.due[mid], ev) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if e.dueIdx > 0 && lo-e.dueIdx < len(e.due)-lo {
		copy(e.due[e.dueIdx-1:], e.due[e.dueIdx:lo])
		e.dueIdx--
		e.due[lo-1] = ev
		return
	}
	e.due = append(e.due, nil)
	copy(e.due[lo+1:], e.due[lo:])
	e.due[lo] = ev
}

// refillDue advances curTick to the next tick holding events, stages that
// tick's events in due, and promotes overflow events that now fall inside
// the wheel window. Returns false when nothing is queued anywhere, or when
// the next occupied tick lies beyond the horizon's tick. The horizon guard
// matters for windowed (sharded) execution: RunUntil is called once per
// lookahead window, and letting curTick overshoot the window would force
// every event scheduled into the overshot span through the sorted-agenda
// insert path — an O(agenda) memmove per event — instead of an O(1) wheel
// slot append.
func (e *Engine) refillDue(horizon int64) bool {
	hTick := horizon >> tickBits
	e.due = e.due[:0]
	e.dueIdx = 0
	if e.wheelCount == 0 {
		if len(e.pq) == 0 || e.pq[0].Time>>tickBits > hTick {
			return false
		}
		e.curTick = e.pq[0].Time >> tickBits
	} else {
		next := e.nextOccupiedTick()
		if next > hTick {
			return false
		}
		e.curTick = next
		s := int(e.curTick & slotMask)
		l := &e.slots[s]
		e.due = slices.Grow(e.due, l.n)[:l.n]
		i := l.n
		for ev := l.head; ev != nil; ev = ev.next {
			i--
			e.due[i] = ev
		}
		e.wheelCount -= l.n
		*l = slotList{}
		e.occupied[s>>6] &^= 1 << uint(s&63)
	}
	// Promote: after this loop the heap only holds ticks beyond the new
	// window, which keeps the slot scan above sufficient on later refills.
	for len(e.pq) > 0 && e.pq[0].Time>>tickBits <= e.curTick+numSlots {
		ev := e.pq.remove(0)
		if tick := ev.Time >> tickBits; tick == e.curTick {
			e.due = append(e.due, ev)
		} else {
			e.slotAppend(tick, ev)
		}
	}
	e.sortDue()
	return true
}

// nextOccupiedTick scans the ring for the first tick after curTick with a
// populated slot, skipping whole empty bitmap words.
func (e *Engine) nextOccupiedTick() int64 {
	for off := int64(1); off <= numSlots; off++ {
		s := int((e.curTick + off) & slotMask)
		if e.occupied[s>>6] == 0 {
			off += int64(63 - s&63)
			continue
		}
		if e.occupied[s>>6]&(1<<uint(s&63)) != 0 {
			return e.curTick + off
		}
	}
	panic("sim: wheel events present but no occupied slot")
}

// Agendas up to insertionMax events are sorted by insertion; from
// spreadMin on, they are spread by sub-tick first. Most agendas of a
// lightly loaded engine hold one to three events, where the spread's fixed
// cost would exceed the shifts it saves.
const (
	insertionMax = 48
	spreadMin    = 16
)

// subBits splits a tick into 1<<subBits sub-ticks for spreadDue.
const subBits = 5

// subTick is the sub-tick of its tick that Time t falls in.
func subTick(t int64) int { return int(t>>(tickBits-subBits)) & (1<<subBits - 1) }

// sortDue orders the agenda by (Time, sched, rank, seq). A slot is appended
// in sched order, so a busy tick's Times arrive all but shuffled. A short
// agenda is sorted by insertion, and one of spreadMin events or more is
// first spread by sub-tick, which leaves the insertion pass little to
// shift; that pass moves the Times in keys alongside the events, so a
// compare loads no event unless two Times tie. A long agenda is merged
// from its ascending runs through mergeBuf.
func (e *Engine) sortDue() {
	evs := e.due
	if n := len(evs); n <= insertionMax {
		if n >= spreadMin {
			e.spreadDue()
		}
		keys := e.keys[:n]
		for i, ev := range evs {
			keys[i] = ev.Time
		}
		for i := 1; i < n; i++ {
			ev, t := evs[i], keys[i]
			j := i - 1
			for j >= 0 && (keys[j] > t || keys[j] == t && eventBefore(ev, evs[j])) {
				keys[j+1] = keys[j]
				evs[j+1] = evs[j]
				j--
			}
			keys[j+1] = t
			evs[j+1] = ev
		}
		return
	}
	b := append(e.runs[:0], 0) // run r is evs[b[r]:b[r+1]]
	for i := 1; i < len(evs); i++ {
		if eventBefore(evs[i], evs[i-1]) {
			b = append(b, i)
		}
	}
	e.runs = append(b, len(evs))
	if len(e.runs) == 2 {
		return // one run: already in order
	}
	if cap(e.mergeBuf) < len(evs) {
		e.mergeBuf = make([]*event, 2*len(evs))
	}
	e.mergeRuns(0, len(e.runs)-1)
	clear(e.mergeBuf[:len(evs)])
}

// spreadDue reorders a short agenda by sub-tick: a stable counting sort
// through spread, which is cleared after use so it pins no slot.
func (e *Engine) spreadDue() {
	var count [1 << subBits]uint8
	for _, ev := range e.due {
		count[subTick(ev.Time)]++
	}
	var sum uint8
	for b, c := range count {
		count[b], sum = sum, sum+c
	}
	spread := e.spread[:len(e.due)]
	for _, ev := range e.due {
		b := subTick(ev.Time)
		spread[count[b]] = ev
		count[b]++
	}
	copy(e.due, spread)
	clear(spread)
}

// mergeRuns sorts runs lo..hi-1 of the agenda: each half first, then the
// left half moves out to mergeBuf and merges back with the right in place.
func (e *Engine) mergeRuns(lo, hi int) {
	if hi-lo < 2 {
		return
	}
	mid := (lo + hi) / 2
	e.mergeRuns(lo, mid)
	e.mergeRuns(mid, hi)
	dst := e.due[e.runs[lo]:e.runs[hi]]
	a := e.mergeBuf[:copy(e.mergeBuf, dst[:e.runs[mid]-e.runs[lo]])]
	b := dst[len(a):]
	for len(a) > 0 && len(b) > 0 {
		if eventBefore(b[0], a[0]) {
			dst[0], b = b[0], b[1:]
		} else {
			dst[0], a = a[0], a[1:]
		}
		dst = dst[1:]
	}
	copy(dst, a) // what is left of b is already in place
}

// Pending returns the number of events still scheduled. Cancelled events
// never inflate the count.
func (e *Engine) Pending() int { return e.live }

// Stop makes Run and RunUntil return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether the last Run or RunUntil returned early — via
// Stop or a poll hook — rather than by draining to its horizon.
func (e *Engine) Stopped() bool { return e.stopped }

// SetPoll installs an out-of-band observation hook: fn is called every
// pollEvery fired events with the engine's clock and lifetime event count,
// and a true return stops the run exactly like Stop. The hook exists for
// progress reporting and cancellation from outside the model — it never
// touches the event queue, consumes no sequence numbers or ranks, and
// therefore cannot perturb the event order or any digest. A nil fn removes
// the hook.
func (e *Engine) SetPoll(fn func(now int64, processed uint64) bool) {
	e.poll = fn
	e.pollGap = 0
}

// pollTick invokes the poll hook if it is due. Callers check e.poll != nil
// first so the fast path stays a single predictable branch.
func (e *Engine) pollTick() {
	if e.pollGap++; e.pollGap < pollEvery {
		return
	}
	e.pollGap = 0
	if e.poll(e.now, e.Processed) {
		e.stopped = true
	}
}

// Run executes events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.RunUntil(maxTime)
}

// RunUntil executes events with Time <= horizon, then advances the clock to
// horizon (if the run was not stopped early and the horizon is finite).
func (e *Engine) RunUntil(horizon int64) {
	e.stopped = false
	if e.noWheel {
		e.runHeap(horizon)
	} else {
		e.runWheel(horizon)
	}
	if !e.stopped && horizon < maxTime && e.now < horizon {
		e.now = horizon
	}
}

func (e *Engine) runWheel(horizon int64) {
	for !e.stopped {
		for e.dueIdx >= len(e.due) {
			if !e.refillDue(horizon) {
				return
			}
		}
		ev := e.due[e.dueIdx]
		if ev.Time > horizon {
			return
		}
		e.due[e.dueIdx] = nil
		e.dueIdx++
		if ev.fn == nil {
			e.release(ev) // cancelled while staged
			continue
		}
		if ev.postponed {
			e.refile(ev)
			continue
		}
		e.fire(ev)
		if e.poll != nil {
			e.pollTick()
		}
	}
}

func (e *Engine) runHeap(horizon int64) {
	for len(e.pq) > 0 && !e.stopped {
		ev := e.pq[0]
		if ev.Time > horizon {
			return
		}
		e.pq.remove(0)
		if ev.postponed {
			e.refile(ev)
			continue
		}
		e.fire(ev)
		if e.poll != nil {
			e.pollTick()
		}
	}
}

// refile queues a postponed timer expiry again, under the identity its
// timer's last Reset took. A refile is not an event: no callback runs, and
// the clock, Processed, the poll tick and the dispatch context stay as they
// are, so the expiry fires exactly where an eagerly re-armed one would.
func (e *Engine) refile(ev *event) {
	t := ev.arg.(*Timer)
	ev.Time, ev.sched, ev.rank, ev.seq = t.at, t.sched, t.rank, t.seq
	ev.postponed = false
	e.insert(ev)
}

// fire runs ev's callback. The slot is vacated first — generation bumped,
// so every handle to the event is already stale inside its own callback,
// and released, so the callback's first Schedule reuses it while it is
// still in cache.
func (e *Engine) fire(ev *event) {
	e.now = ev.Time
	fn, arg := ev.fn, ev.arg
	e.firingSched, e.firingRank, e.firingSeq = ev.sched, ev.rank, ev.seq
	e.dispatchBase = mix64(ev.rank)
	e.dispatchIdx = uint64(ev.kids)
	e.inDispatch = true
	ev.gen++
	ev.fn = nil
	ev.arg = nil
	e.live--
	e.release(ev)
	fn(arg)
	e.inDispatch = false
	e.Processed++
}

// eventHeap is a 4-ary min-heap in (Time, sched, rank, seq) order. Each
// entry's idx is its position, which is what lets Cancel remove a
// far-future event eagerly. Four children per node halve the depth of a
// binary heap, and the sift loops call eventBefore directly rather than
// through container/heap's interface.
type eventHeap []*event

func (h *eventHeap) push(ev *event) {
	*h = append(*h, ev)
	h.up(len(*h)-1, ev)
}

// remove takes out and returns the entry at position i: 0 is the earliest.
// The last entry fills the hole and sifts whichever way restores order.
func (h *eventHeap) remove(i int) *event {
	n := len(*h) - 1
	ev, last := (*h)[i], (*h)[n]
	(*h)[n] = nil
	*h = (*h)[:n]
	if i < n {
		if i > 0 && eventBefore(last, (*h)[(i-1)/4]) {
			h.up(i, last)
		} else {
			h.down(i, last)
		}
	}
	ev.idx = idxStaged
	return ev
}

// up places ev at position i or above it, moving later parents down.
func (h eventHeap) up(i int, ev *event) {
	for i > 0 {
		p := (i - 1) / 4
		pe := h[p]
		if !eventBefore(ev, pe) {
			break
		}
		h[i] = pe
		pe.idx = int32(i)
		i = p
	}
	h[i] = ev
	ev.idx = int32(i)
}

// down places ev at position i or below it, moving earlier children up.
func (h eventHeap) down(i int, ev *event) {
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m, me := c, h[c]
		for j := c + 1; j < min(c+4, n); j++ {
			if eventBefore(h[j], me) {
				m, me = j, h[j]
			}
		}
		if !eventBefore(me, ev) {
			break
		}
		h[i] = me
		me.idx = int32(i)
		i = m
	}
	h[i] = ev
	ev.idx = int32(i)
}
