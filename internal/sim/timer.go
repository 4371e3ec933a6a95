package sim

// Timer is a restartable one-shot timer bound to an engine, in the style of
// a TCP retransmission timer: Reset re-arms it, Stop disarms it, and the
// callback supplied at construction fires when it expires.
type Timer struct {
	eng *Engine
	ev  Handle
	fn  func()
}

// NewTimer returns a disarmed timer that will invoke fn on expiry.
func NewTimer(eng *Engine, fn func()) *Timer {
	if fn == nil {
		panic("sim: nil timer func")
	}
	return &Timer{eng: eng, fn: fn}
}

// timerExpire is the shared func(any) trampoline for all timers, so
// Reset never builds a per-arm closure. The expiry's handle went stale
// when it fired, so the timer already reads as disarmed.
func timerExpire(a any) { a.(*Timer).fn() }

// Reset (re-)arms the timer to fire after d nanoseconds, cancelling any
// previously armed expiry.
func (t *Timer) Reset(d int64) {
	t.ev.Cancel()
	t.ev = t.eng.ScheduleArg(d, timerExpire, t)
}

// Stop disarms the timer. Reports whether a pending expiry was cancelled.
func (t *Timer) Stop() bool {
	armed := t.ev.Pending()
	t.ev.Cancel()
	return armed
}

// Armed reports whether the timer is currently pending.
func (t *Timer) Armed() bool { return t.ev.Pending() }

// Deadline returns the absolute expiry time, or -1 if disarmed.
func (t *Timer) Deadline() int64 { return t.ev.Time() }

// Periodic is a class of self-rescheduling timers sharing an engine, a
// period and a callback; a Chain driven through it fires fn(arg) once per
// period. A tick that finds nothing to do may Park instead of re-arming, and
// Resume re-arms the chain at the first grid point the unbroken chain would
// still owe, with exactly that event's (Time, sched, rank), so no other
// event moves in the total order. The one condition: an idle tick's callback
// schedules nothing but its re-arm.
type Periodic struct {
	eng    *Engine
	period int64
	fn     func(any)
}

// NewPeriodic binds a callback and a positive period to an engine.
func NewPeriodic(eng *Engine, period int64, fn func(any)) Periodic {
	return Periodic{eng, period, fn}
}

// Chain is one periodic chain: its armed tick, or where it parked. The zero
// value is a stopped chain.
type Chain struct {
	ev     Handle
	parked bool
	at     int64  // parked: the instant of the tick that parked
	rank   uint64 // parked: the rank the tick after it would carry
}

// Parked reports whether the chain is parked.
func (c *Chain) Parked() bool { return c.parked }

// Arm schedules the next tick one period from now: it starts a chain and,
// from the tick's callback, continues it.
func (p *Periodic) Arm(c *Chain, arg any) { c.ev = p.eng.ScheduleArg(p.period, p.fn, arg) }

// Park ends the running tick without arming the next. It takes the rank, and
// with it the child index, the re-arm would have taken; it holds no slot.
func (p *Periodic) Park(c *Chain) {
	if !p.eng.inDispatch {
		panic("sim: Park outside the chain's callback")
	}
	c.parked, c.at, c.rank = true, p.eng.now, p.eng.nextRank(0)
}

// idle counts the ticks the unbroken chain would have fired since c parked
// (none if it is not parked) and returns the rank of the tick after them;
// each idle tick's re-arm is its child 0, so ranks chain through mix64
// alone. A grid point exactly at now has fired unless the running dispatch
// sorts before it: outside dispatch every event at now is done, inside it
// (sched, rank) decides.
func (p *Periodic) idle(c *Chain) (n int64, rank uint64) {
	if !c.parked {
		return 0, 0
	}
	e := p.eng
	n, rank = (e.now-c.at)/p.period, c.rank
	for i := int64(1); i < n; i++ {
		rank = mix64(rank)
	}
	if n == 0 {
		return 0, rank
	}
	if sched := e.now - p.period; e.inDispatch && c.at+n*p.period == e.now &&
		(e.firingSched < sched || e.firingSched == sched && e.firingRank < rank) {
		return n - 1, rank
	}
	return n, mix64(rank)
}

// Resume re-arms a parked chain at the first grid point it still owes —
// possibly now, to fire later in this instant — and reports the ticks it
// skipped. It consumes no child index, and does nothing to a chain that is
// not parked.
func (p *Periodic) Resume(c *Chain, arg any) int64 {
	if !c.parked {
		return 0
	}
	n, rank := p.idle(c)
	t := c.at + (n+1)*p.period
	c.parked = false
	c.ev = p.eng.insertRemote(t, t-p.period, rank, p.eng.nextSeq(), p.fn, arg)
	return n
}

// Skipped reports the ticks a parked chain has skipped up to now.
func (p *Periodic) Skipped(c *Chain) int64 {
	n, _ := p.idle(c)
	return n
}

// Stop cancels the armed tick or un-parks the chain, reporting the ticks a
// parked chain had skipped.
func (p *Periodic) Stop(c *Chain) int64 {
	n := p.Skipped(c)
	c.ev.Cancel()
	c.parked = false
	return n
}
