package sim

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// The chain identity property: a Chain that parks on every idle tick and is
// resumed by the next wake fires — and lets everything else fire — at the
// same positions of the global order, with the same (Time, sched, rank), as
// an unbroken chain that no-ops through the idle stretch. One generated
// script (wakes, unrelated events, many of them exactly on grid instants and
// scheduled from causes both older and younger than the boundary tick, a
// wake from outside dispatch, an optional Stop) is replayed on a parking
// world and on the unbroken oracle.

type chainRec struct {
	Kind byte // 't': a tick that found work, 'w': a wake, 'x': anything else
	ID   int
	T, S int64
	R    uint64
}

type chainOp struct {
	at   int64
	lead int64 // <0: armed at setup; else scheduled lead ns ahead by a launcher
	wake bool
}

type chainWorld struct {
	eng   *Engine
	per   Periodic
	c     Chain
	park  bool // park on idle ticks; false is the unbroken oracle
	ops   []chainOp
	work  int
	fresh bool  // the last tick found work: the next idle tick is the parking one
	ticks int64 // ticks fired, plus ticks a Resume/Stop/Skipped accounted
	log   []chainRec
}

func (w *chainWorld) rec(kind byte, id int) {
	e := w.eng
	w.log = append(w.log, chainRec{kind, id, e.now, e.firingSched, e.firingRank})
}

func (w *chainWorld) tick(any) {
	w.ticks++
	if w.work == 0 {
		if w.park {
			w.per.Park(&w.c)
		} else {
			w.per.Arm(&w.c, nil)
		}
		if w.fresh {
			// The parking tick does fire in both worlds, so it may schedule
			// after Park: Park took the child index the re-arm would have.
			w.fresh = false
			w.eng.ScheduleArg(w.per.period/2, w.other, -3)
		}
		return
	}
	w.rec('t', w.work)
	w.work, w.fresh = 0, true
	w.eng.ScheduleArg(w.per.period/3, w.other, -1)
	w.per.Arm(&w.c, nil)
}

func (w *chainWorld) wake(a any) {
	w.ticks += w.per.Resume(&w.c, nil)
	w.work++
	w.rec('w', a.(int))
	// A child scheduled after the resume: its rank must not have moved.
	w.eng.ScheduleArg(0, w.other, -2)
}

func (w *chainWorld) other(a any) { w.rec('x', a.(int)) }

func (w *chainWorld) launch(a any) {
	i := a.(int)
	fn := w.other
	if w.ops[i].wake {
		fn = w.wake
	}
	w.eng.ScheduleArg(w.ops[i].lead, fn, i)
}

// genChainScript draws a period that may be shorter than a wheel tick or
// longer than the whole wheel, and ops biased onto the chain's grid.
func genChainScript(rng *rand.Rand) (period, start, horizon int64, ops []chainOp) {
	period = 1 + rng.Int63n([]int64{8, 5000, 3 << 20}[rng.Intn(3)])
	start = rng.Int63n(2 * period)
	ticks := 20 + rng.Int63n(300)
	horizon = start + ticks*period + rng.Int63n(2)*rng.Int63n(period)
	for i, n := 0, 5+rng.Intn(40); i < n; i++ {
		op := chainOp{at: start + rng.Int63n(ticks)*period, lead: -1, wake: rng.Intn(3) > 0}
		if rng.Intn(3) == 0 {
			op.at += rng.Int63n(period)
		}
		switch rng.Intn(4) {
		case 0: // same sched as the boundary tick: rank decides
			op.lead = period
		case 1:
			op.lead = rng.Int63n(2*period + 1)
		case 2:
			op.lead = 0
		}
		if op.lead > op.at {
			op.lead = op.at
		}
		ops = append(ops, op)
	}
	return
}

// runChainScript replays the script and returns the fire log and the tick
// count. mid is the instant of the outside-dispatch wake, stop (if >= 0) of
// an in-dispatch Stop.
func runChainScript(o Options, park bool, period, start, horizon, mid, stop int64, ops []chainOp) ([]chainRec, int64, *Engine) {
	e := NewWith(o)
	w := &chainWorld{eng: e, park: park, ops: ops}
	w.per = NewPeriodic(e, period, w.tick)
	e.At(start, func() { w.per.Arm(&w.c, nil) })
	for i, op := range ops {
		switch {
		case op.lead >= 0:
			e.AtArg(op.at-op.lead, w.launch, i)
		case op.wake:
			e.AtArg(op.at, w.wake, i)
		default:
			e.AtArg(op.at, w.other, i)
		}
	}
	if stop >= 0 {
		e.At(stop, func() { w.ticks += w.per.Stop(&w.c) })
	}
	e.RunUntil(mid)
	w.ticks += w.per.Resume(&w.c, nil)
	w.work++
	e.RunUntil(horizon)
	w.ticks += w.per.Skipped(&w.c)
	return w.log, w.ticks, e
}

func TestChainParkResumeIdentityQuick(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		period, start, horizon, ops := genChainScript(rng)
		mid := start + rng.Int63n(horizon-start)/period*period + rng.Int63n(2)*rng.Int63n(period)
		stop := int64(-1)
		if rng.Intn(2) == 0 {
			stop = start + rng.Int63n(horizon-start)/period*period + rng.Int63n(2)*rng.Int63n(period)
		}
		wantLog, wantTicks, oracle := runChainScript(Options{}, false, period, start, horizon, mid, stop, ops)
		for _, o := range []Options{{}, {NoWheel: true}, {NoSlab: true}} {
			log, ticks, e := runChainScript(o, true, period, start, horizon, mid, stop, ops)
			if !reflect.DeepEqual(log, wantLog) {
				for i := range log {
					if i >= len(wantLog) || log[i] != wantLog[i] {
						t.Logf("seed %d %+v period %d: fire %d is %+v, unbroken chain has %+v",
							seed, o, period, i, log[i], wantLog[min(i, len(wantLog)-1)])
						break
					}
				}
				return false
			}
			if ticks != wantTicks {
				t.Logf("seed %d %+v: %d ticks fired or accounted, unbroken chain fired %d", seed, o, ticks, wantTicks)
				return false
			}
			if e.Processed > oracle.Processed {
				t.Logf("seed %d %+v: parking fired %d events, more than the unbroken %d", seed, o, e.Processed, oracle.Processed)
				return false
			}
			if err := checkSlotBooks(e); err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300}
	if testing.Short() {
		cfg.MaxCount = 50
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestChainBoundaryCases pins the two sides of a resume exactly on a grid
// instant, which the quick property only hits by chance.
func TestChainBoundaryCases(t *testing.T) {
	const period = 1000
	for _, tc := range []struct {
		name    string
		lead    int64 // the wake, five periods after the park, is scheduled this far ahead
		skipped int64 // ticks 1..4 elapsed; tick 5 is the boundary
		next    int64 // where the resumed tick lands, from the park instant
	}{
		{"older cause: boundary tick still owed, fires in this instant", 3 * period, 4, 5 * period},
		{"younger cause: boundary tick already fired", period / 2, 5, 6 * period},
	} {
		e := New()
		var c Chain
		var per Periodic
		fired := []int64{}
		per = NewPeriodic(e, period, func(any) {
			fired = append(fired, e.Now())
			if len(fired) == 1 {
				per.Park(&c)
			}
		})
		per.Arm(&c, nil) // ticks at 1000, parks there; grid is 1000 + k*1000
		at := int64(6 * period)
		var got int64 = -1
		e.At(at-tc.lead, func() {
			e.Schedule(tc.lead, func() { got = per.Resume(&c, nil) })
		})
		e.RunUntil(at - 1)
		if !c.Parked() || e.Pending() != 1 {
			t.Fatalf("%s: parked %v with %d pending; a parked chain holds no slot", tc.name, c.Parked(), e.Pending())
		}
		e.RunUntil(at + 2*period)
		if got != tc.skipped || len(fired) != 2 || fired[1] != period+tc.next {
			t.Errorf("%s: skipped %d (want %d), ticks fired at %v (want second at %d)",
				tc.name, got, tc.skipped, fired, period+tc.next)
		}
	}
}

// TestSortDueMatchesSortFunc: the agenda sort — sub-tick spread and
// insertion pass up to 48 events, natural run merge beyond — orders any
// agenda exactly as a comparison sort by eventBefore does, and leaves no
// event pinned in its scratch buffers. Every agenda lies in one tick, as a
// staged one does; half the rounds crowd it into a few nanoseconds, half
// spread it over the tick's sub-ticks, both with heavy ties.
func TestSortDueMatchesSortFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	e := New()
	lens := []int{0, 1, 2, 47, 48, 49, 50, 96, 97, 333}
	for round := 0; round < 400; round++ {
		n := lens[round%len(lens)]
		if round >= 200 {
			n = rng.Intn(400)
		}
		tick := rng.Int63n(1 << 30)
		evs := make([]*event, n)
		for i := range evs {
			// Heavy Time and sched ties; seq keeps the order total.
			at := rng.Int63n(4)
			if round%8 >= 4 {
				at = rng.Int63n(24) * (1<<tickBits - 1) / 23
			}
			evs[i] = &event{Time: tick<<tickBits + at, sched: rng.Int63n(3), rank: uint64(rng.Intn(4)), seq: uint64(i)}
		}
		cmp := func(a, b *event) int {
			switch {
			case eventBefore(a, b):
				return -1
			case eventBefore(b, a):
				return 1
			}
			return 0
		}
		switch shape := round % 4; shape {
		case 1: // one ascending run
			slices.SortFunc(evs, cmp)
		case 2: // fully reversed: n runs of one
			slices.SortFunc(evs, cmp)
			slices.Reverse(evs)
		case 3: // a few ascending runs, as a wheel slot delivers them
			for lo := 0; lo < n; {
				hi := min(n, lo+1+rng.Intn(n/3+1))
				slices.SortFunc(evs[lo:hi], cmp)
				lo = hi
			}
		}
		want := slices.Clone(evs)
		slices.SortFunc(want, cmp)
		e.due = evs
		e.sortDue()
		if !slices.Equal(e.due, want) {
			t.Fatalf("round %d: %d events out of order", round, n)
		}
		for i, ev := range append(e.mergeBuf[:cap(e.mergeBuf)], e.spread[:]...) {
			if ev != nil {
				t.Fatalf("round %d: sort scratch still holds an event at %d", round, i)
			}
		}
	}
	e.due = nil
}

// TestSkippedMatchesIdle holds Skipped's closed form to idle's walk on
// random parked chains: off the grid, on it, outside dispatch, and on the
// grid inside dispatch with the firing event sorting before and after the
// boundary tick in sched and, at equal sched, in rank.
func TestSkippedMatchesIdle(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	sides := map[string]int{}
	for i := 0; i < 20000; i++ {
		e := New()
		period := 1 + rng.Int63n(1000)
		p := NewPeriodic(e, period, func(any) {})
		c := Chain{parked: true, at: rng.Int63n(1 << 20), rank: rng.Uint64()}
		n := rng.Int63n(40)
		e.now = c.at + n*period
		if rng.Intn(3) == 0 {
			e.now += 1 + rng.Int63n(period) // may land on the next grid point
		}
		if rng.Intn(4) > 0 {
			e.inDispatch = true
			// The boundary tick's identity, as idle computes it.
			sched, rank := e.now-period, c.rank
			for k := int64(1); k < (e.now-c.at)/period; k++ {
				rank = mix64(rank)
			}
			e.firingSched, e.firingRank = sched+rng.Int63n(3)-1, rank+uint64(rng.Intn(3))-1
			if c.at+n*period == e.now && n > 0 {
				switch {
				case e.firingSched != sched:
					sides[map[bool]string{true: "older sched", false: "younger sched"}[e.firingSched < sched]]++
				case e.firingRank != rank:
					sides[map[bool]string{true: "lower rank", false: "higher rank"}[e.firingRank < rank]]++
				}
			}
		}
		want, _ := p.idle(&c)
		if got := p.Skipped(&c); got != want {
			t.Fatalf("period %d, parked at %d, now %d, dispatch %v (sched %d rank %d): Skipped %d, idle %d",
				period, c.at, e.now, e.inDispatch, e.firingSched, e.firingRank, got, want)
		}
	}
	if len(sides) != 4 {
		t.Fatalf("the on-grid boundary was not hit from every side: %v", sides)
	}
	var stopped Chain
	p := NewPeriodic(New(), 10, func(any) {})
	if n := p.Skipped(&stopped); n != 0 {
		t.Fatalf("a chain that is not parked skipped %d", n)
	}
}
