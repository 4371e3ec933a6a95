package sim

import "fmt"

// Reservation is the identity of an event that is not in the queue yet: the
// (Time, sched, rank, seq) that ScheduleArg would have given it. Reserve
// takes that identity now; InsertReserved inserts the event with it later,
// or never. Either way nothing else moves in the total order, because
// reserving consumes exactly the child index and seq the insert would have.
//
// The reserved event's children can be scheduled before the event itself
// exists (ScheduleChildArg): each gets the identity it would have had if
// the event had fired and scheduled it, sched = the event's Time and rank =
// mix64(the event's rank) + child index. An event inserted late numbers
// its own children after the ones already placed, so a port that places
// the delivery as child 0 has its late txDone start at child 1.
//
// The zero Reservation is never owed.
type Reservation struct {
	t, sched  int64
	rank, seq uint64
	kids      uint32 // children already placed
}

// Reserve takes into r the identity ScheduleArg(delay, …) would give an
// event now, consuming the same child index and seq, and inserts nothing.
// It fills r in place: a port reserves straight into the one Reservation it
// keeps, so no copy of it is stored and then read back on every hop.
func (e *Engine) Reserve(r *Reservation, delay int64) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	seq := e.nextSeq()
	r.t, r.sched, r.rank, r.seq, r.kids = e.now+delay, e.now, e.nextRank(seq), seq, 0
}

// child returns the (Time, sched, rank) of the reserved event's idx-th
// child, due delay ns after the event, and records it as placed. Children
// share the reservation's seq: seq only breaks rank ties, and no child
// shares a rank with its parent or a sibling.
func (r *Reservation) child(idx uint32, delay int64) (t, sched int64, rank uint64) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	r.kids = max(r.kids, idx+1)
	return r.t + delay, r.t, mix64(r.rank) + uint64(idx)
}

// ScheduleChildArg runs fn(arg) delay ns after the reserved event's time,
// as that event's idx-th child.
func (e *Engine) ScheduleChildArg(r *Reservation, idx uint32, delay int64, fn func(any), arg any) Handle {
	if fn == nil {
		panic("sim: nil event func")
	}
	t, sched, rank := r.child(idx, delay)
	return e.insertRemote(t, sched, rank, r.seq, fn, arg)
}

// ScheduleRemoteChildArg is ScheduleChildArg onto dst, which may belong to
// another shard of the same Group; it travels like ScheduleRemoteArg. Inside
// a window the child must land at least a lookahead after now.
func (e *Engine) ScheduleRemoteChildArg(dst *Engine, r *Reservation, idx uint32, delay int64, fn func(any), arg any) {
	if fn == nil {
		panic("sim: nil event func")
	}
	t, sched, rank := r.child(idx, delay)
	e.sendRemote(dst, t, sched, rank, r.seq, fn, arg)
}

// InsertReserved inserts the reserved event, with its reserved identity, to
// run fn(arg). The engine must be the one that reserved it, and the event
// must still be owed (see Owed).
func (e *Engine) InsertReserved(r *Reservation, fn func(any), arg any) Handle {
	if fn == nil {
		panic("sim: nil event func")
	}
	h := e.insertRemote(r.t, r.sched, r.rank, r.seq, fn, arg)
	h.ev.kids = r.kids
	return h
}

// Owed reports whether the reserved event, had it been inserted, would
// still be due: its time is in the future, or it is now and the running
// dispatch sorts before it. Outside dispatch every event at now has fired,
// so an event reserved for now is not owed. This is the boundary rule of
// Periodic.idle.
func (e *Engine) Owed(r *Reservation) bool {
	switch {
	case e.now != r.t:
		return e.now < r.t
	case !e.inDispatch:
		return false
	case e.firingSched != r.sched:
		return e.firingSched < r.sched
	case e.firingRank != r.rank:
		return e.firingRank < r.rank
	}
	return e.firingSeq < r.seq
}
