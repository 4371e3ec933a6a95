package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// The reservation identity property: a transmitter that reserves each
// completion, schedules the delivery at once as the completion's child 0 and
// inserts the completion only when there is work for it — at once, or late
// when an arrival comes while the completion is still owed — fires every
// delivery, every busy completion and everything else at the same
// (Time, sched, rank) as the two-event transmitter whose completion always
// fires and schedules the delivery itself. The generated script puts
// arrivals on the completions' grid, caused from older, younger and equal
// sched, plus one arrival at setup and one from outside dispatch mid-run.

type resvRec struct {
	Kind byte // 'a' arrival, 't' completion with work, 'd' delivery, 'x' a child, 'm' the mid-run arrival
	ID   int
	T, S int64
	R    uint64
}

type resvOp struct {
	at   int64
	lead int64 // <0: armed at setup; else scheduled lead ns ahead by a launcher
}

type resvWorld struct {
	eng, dst   *Engine // the transmitter's engine and the deliveries'
	resv       bool    // reservation path; false is the two-event oracle
	base, prop int64
	ops        []resvOp
	q, sent    int
	busy, late bool
	r          Reservation
	empty      int // oracle: completions that found no work
	tx, rx     []resvRec
}

func rec(e *Engine, kind byte, id int) resvRec {
	if !e.inDispatch {
		return resvRec{kind, id, e.now, -1, 0}
	}
	return resvRec{kind, id, e.now, e.firingSched, e.firingRank}
}

// transmitting is the port's question: is a completion still to come?
func (w *resvWorld) transmitting() bool { return w.busy || w.late && w.eng.Owed(&w.r) }

// arrive queues one unit of work and kicks the transmitter. On the
// reservation path an owed completion is inserted first, as a port's
// Enqueue does.
func (w *resvWorld) arrive() {
	w.q++
	if w.late {
		w.late = false
		if w.eng.Owed(&w.r) {
			w.eng.InsertReserved(&w.r, w.next, nil)
			w.busy = true
		}
	}
	if !w.busy {
		w.start()
	}
}

func (w *resvWorld) start() {
	w.busy, w.late = false, false
	if w.q == 0 {
		return
	}
	w.q--
	id := w.sent
	w.sent++
	txTime := w.base * int64(1+mix64(uint64(id))%3)
	if !w.resv {
		w.busy = true
		w.eng.ScheduleArg(txTime, w.done, id)
		return
	}
	r := w.eng.Reserve(txTime)
	if w.dst != w.eng {
		w.eng.ScheduleRemoteChildArg(w.dst, &r, 0, w.prop, w.deliver, id)
	} else {
		w.eng.ScheduleChildArg(&r, 0, w.prop, w.deliver, id)
	}
	if w.q > 0 {
		w.eng.InsertReserved(&r, w.next, nil)
		w.busy = true
	} else {
		w.r, w.late = r, true
	}
}

// done is the oracle's completion: deliver, then start the next.
func (w *resvWorld) done(a any) {
	w.eng.ScheduleRemoteArg(w.dst, w.prop, w.deliver, a)
	if w.q == 0 {
		w.empty++
	} else {
		w.tx = append(w.tx, rec(w.eng, 't', a.(int)))
	}
	w.start()
}

// next is the reservation path's completion: only ever inserted with work.
func (w *resvWorld) next(any) {
	w.tx = append(w.tx, rec(w.eng, 't', w.sent-1))
	w.start()
}

func (w *resvWorld) deliver(a any) {
	w.rx = append(w.rx, rec(w.dst, 'd', a.(int)))
	w.dst.ScheduleArg(w.base/2, w.rxChild, a)
}

func (w *resvWorld) rxChild(a any) { w.rx = append(w.rx, rec(w.dst, 'x', a.(int))) }
func (w *resvWorld) txChild(a any) { w.tx = append(w.tx, rec(w.eng, 'x', a.(int))) }

func (w *resvWorld) arriveArg(a any) {
	w.tx = append(w.tx, rec(w.eng, 'a', a.(int)))
	w.arrive()
	// A child scheduled after the transmitter's own: its rank must match.
	w.eng.ScheduleArg(0, w.txChild, a)
}

func (w *resvWorld) launch(a any) { w.eng.ScheduleArg(w.ops[a.(int)].lead, w.arriveArg, a) }

// genResvScript draws a grid period that may be far below or above a wheel
// tick, a propagation delay of one or two periods, and arrivals on the
// grid, each caused from its own instant, one to three periods earlier, or
// at setup.
func genResvScript(rng *rand.Rand) (base, prop, horizon int64, ops []resvOp) {
	base = 2 * (1 + rng.Int63n([]int64{4, 3000, 1 << 20}[rng.Intn(3)]))
	prop = base * (1 + rng.Int63n(2))
	ticks := 20 + rng.Int63n(200)
	horizon = ticks*base + 4*base
	for i, n := 0, 5+rng.Intn(60); i < n; i++ {
		op := resvOp{at: rng.Int63n(ticks) * base, lead: -1}
		if rng.Intn(4) == 0 {
			op.at += rng.Int63n(base)
		}
		switch rng.Intn(5) {
		case 0:
			op.lead = 0
		case 1, 2, 3:
			op.lead = base * rng.Int63n(4)
		}
		op.lead = min(op.lead, op.at)
		ops = append(ops, op)
	}
	return
}

// runResvScript replays the script on one engine, or on a two-shard group
// with the deliveries on shard 1, and returns both fire logs.
func runResvScript(o Options, shards int, resv bool, base, prop, horizon, mid int64, ops []resvOp) (*resvWorld, uint64) {
	g := NewGroup(shards, o)
	g.SetLookahead(prop)
	w := &resvWorld{eng: g.Engine(0), dst: g.Engine(shards - 1), resv: resv, base: base, prop: prop, ops: ops}
	e := w.eng
	for i, op := range ops {
		if op.lead >= 0 {
			e.AtArg(op.at-op.lead, w.launch, i)
		} else {
			e.AtArg(op.at, w.arriveArg, i)
		}
	}
	w.arrive() // at setup, outside dispatch
	g.RunUntil(mid)
	if w.transmitting() {
		w.tx = append(w.tx, rec(e, 'm', 0))
		w.arrive() // from outside dispatch, onto a busy transmitter only
	}
	g.RunUntil(horizon)
	return w, g.Processed()
}

func TestReserveIdentityQuick(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base, propDelay, horizon, ops := genResvScript(rng)
		mid := rng.Int63n(horizon/base) * base
		if rng.Intn(2) == 0 {
			mid += rng.Int63n(base)
		}
		want, wantN := runResvScript(Options{}, 1, false, base, propDelay, horizon, mid, ops)
		for _, c := range []struct {
			o      Options
			shards int
		}{{Options{}, 1}, {Options{NoWheel: true}, 1}, {Options{NoSlab: true}, 1}, {Options{}, 2}} {
			got, n := runResvScript(c.o, c.shards, true, base, propDelay, horizon, mid, ops)
			for _, l := range []struct {
				name      string
				got, want []resvRec
			}{{"transmitter", got.tx, want.tx}, {"receiver", got.rx, want.rx}} {
				if reflect.DeepEqual(l.got, l.want) {
					continue
				}
				for i := range l.got {
					if i >= len(l.want) || l.got[i] != l.want[i] {
						t.Logf("seed %d %+v shards %d: %s fire %d is %+v, two-event path has %+v",
							seed, c.o, c.shards, l.name, i, l.got[i], l.want[min(i, len(l.want)-1)])
						break
					}
				}
				t.Logf("seed %d %+v shards %d: %s fired %d, two-event path %d", seed, c.o, c.shards, l.name, len(l.got), len(l.want))
				return false
			}
			if n != wantN-uint64(want.empty) {
				t.Logf("seed %d %+v shards %d: %d events, want %d less the %d idle completions",
					seed, c.o, c.shards, n, wantN, want.empty)
				return false
			}
			if c.shards == 1 {
				if err := checkSlotBooks(got.eng); err != nil {
					t.Log(err)
					return false
				}
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

// TestOwedBoundary pins Owed at the reserved instant from a dispatch older
// and younger in sched, and from outside dispatch; equal sched, where rank
// decides, is the quick property's.
func TestOwedBoundary(t *testing.T) {
	const at = 1000
	e := New()
	var r Reservation
	got := map[string]bool{}
	e.At(100, func() { r = e.Reserve(at - 100) })  // sched 100
	e.At(at, func() { got["older"] = e.Owed(&r) }) // sched 0
	e.At(at/2, func() { e.Schedule(at/2, func() { got["younger"] = e.Owed(&r) }) })
	e.RunUntil(at - 1)
	if !e.Owed(&r) {
		t.Fatal("a reservation in the future is not owed")
	}
	e.RunUntil(at)
	if e.Owed(&r) {
		t.Error("outside dispatch, a reservation for now is owed")
	}
	if !got["older"] || got["younger"] {
		t.Errorf("Owed from an older cause %v (want true), from a younger one %v (want false)", got["older"], got["younger"])
	}
	var zero Reservation
	if e.Owed(&zero) {
		t.Error("the zero Reservation is owed")
	}
}
