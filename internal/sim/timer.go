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
