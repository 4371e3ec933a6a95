package sim

import "testing"

// chain schedules a self-rescheduling event that fires n times, every
// step nanoseconds, recording each firing index into out when non-nil.
func chain(e *Engine, n int, step int64, out *[]int) {
	i := 0
	var tick func()
	tick = func() {
		if out != nil {
			*out = append(*out, i)
		}
		if i++; i < n {
			e.Schedule(step, tick)
		}
	}
	e.Schedule(0, tick)
}

// TestPollHookObservesProgress proves the hook fires on its cadence with a
// monotone clock and event count, without disturbing the run.
func TestPollHookObservesProgress(t *testing.T) {
	e := New()
	const n = 3 * pollEvery
	chain(e, n, 1000, nil)

	var calls int
	lastNow, lastProcessed := int64(-1), uint64(0)
	e.SetPoll(func(now int64, processed uint64) bool {
		calls++
		if now < lastNow {
			t.Errorf("poll clock went backwards: %d after %d", now, lastNow)
		}
		if processed < lastProcessed {
			t.Errorf("poll processed went backwards: %d after %d", processed, lastProcessed)
		}
		lastNow, lastProcessed = now, processed
		return false
	})
	e.Run()

	if want := n / pollEvery; calls != want {
		t.Errorf("poll called %d times over %d events, want %d", calls, n, want)
	}
	if e.Processed != n {
		t.Errorf("run processed %d events, want %d", e.Processed, n)
	}
	if e.Stopped() {
		t.Error("non-stopping poll hook flagged the run as stopped")
	}
}

// TestPollHookStopsRun proves a true return interrupts the run like Stop:
// events remain queued, the clock stays where the last event left it, and
// Stopped reports the early exit.
func TestPollHookStopsRun(t *testing.T) {
	e := New()
	const n = 4 * pollEvery
	chain(e, n, 1000, nil)

	e.SetPoll(func(now int64, processed uint64) bool { return true })
	e.RunUntil(int64(n) * 1000)

	if !e.Stopped() {
		t.Fatal("run not flagged stopped after poll hook returned true")
	}
	if e.Processed != pollEvery {
		t.Errorf("run processed %d events before stopping, want %d", e.Processed, pollEvery)
	}
	if e.Pending() == 0 {
		t.Error("stopped run left no pending events; expected the chain to survive")
	}
	if e.Now() >= int64(n)*1000 {
		t.Errorf("stopped run advanced clock to horizon (%d)", e.Now())
	}
}

// TestPollHookDigestNeutral proves the hook is invisible to the model: the
// fire order with a hook armed is identical to the order without one, for
// both scheduler implementations.
func TestPollHookDigestNeutral(t *testing.T) {
	for _, o := range []Options{{}, {NoWheel: true}} {
		run := func(withPoll bool) []int {
			e := NewWith(o)
			var order []int
			chain(e, 2*pollEvery, 1000, &order)
			if withPoll {
				e.SetPoll(func(int64, uint64) bool { return false })
			}
			e.Run()
			return order
		}
		plain, polled := run(false), run(true)
		if len(plain) != len(polled) {
			t.Fatalf("noWheel=%v: fire counts differ: %d vs %d", o.NoWheel, len(plain), len(polled))
		}
		for i := range plain {
			if plain[i] != polled[i] {
				t.Fatalf("noWheel=%v: fire order diverges at %d", o.NoWheel, i)
			}
		}
	}
}

// TestGroupPollStops proves a poll-hook stop on any shard ends the whole
// windowed run at the next barrier instead of resuming after it.
func TestGroupPollStops(t *testing.T) {
	g := NewGroup(2, Options{})
	g.SetLookahead(1000)
	const n = 2 * pollEvery
	for i := 0; i < g.Shards(); i++ {
		chain(g.Engine(i), n, 1000, nil)
	}

	var calls int
	g.SetPoll(func(now int64, processed uint64) bool {
		calls++
		return calls >= 2
	})
	horizon := int64(n) * 1000
	g.RunUntil(horizon)

	if !g.Stopped() {
		t.Fatal("group not flagged stopped after poll hook requested a stop")
	}
	if g.Processed() >= 2*uint64(n) {
		t.Errorf("group processed all %d events despite the stop", g.Processed())
	}
	if g.Pending() == 0 {
		t.Error("stopped group left no pending events; expected the chains to survive")
	}
	for i := 0; i < g.Shards(); i++ {
		if now := g.Engine(i).Now(); now >= horizon {
			t.Errorf("shard %d clock advanced to horizon (%d) despite the stop", i, now)
		}
	}
}
