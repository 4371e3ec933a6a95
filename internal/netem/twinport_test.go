package netem_test

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"hwatch/internal/aqm"
	"hwatch/internal/netem"
	"hwatch/internal/sim"
)

// The twin-port property: a port on the one-event hop (the completion
// reserved, inserted only when there is work for it) delivers the same
// packets at the same instants, and leaves the same port and discipline
// counters, as the same port on the two-event path. Arrivals sit on the
// serialisation grid, caused from older, equal and younger instants; the
// link goes down and up mid-serialisation; ingress impairments hold, jitter
// and duplicate packets; and every discipline runs, RED without ECN tuned
// to drop early while a completion is owed.

type twinDelivery struct {
	T  int64
	ID uint64
}

type twinOutcome struct {
	Delivered []twinDelivery
	Port      netem.PortStats
	Queue     aqm.Stats
	Impair    netem.ImpairStats
	Events    uint64
}

type twinSink struct {
	eng *sim.Engine
	got *[]twinDelivery
}

func (s twinSink) Deliver(p *netem.Packet) {
	*s.got = append(*s.got, twinDelivery{s.eng.Now(), p.ID})
}

type twinOp struct {
	at, lead int64 // lead < 0: armed at setup
	kind     byte  // 'p' packet, 'd' link down, 'u' link up
	size     int
	ect      bool
}

// twinQueue builds discipline k for one port; rngs are seeded per world so
// both twins draw the same stream.
func twinQueue(k int, eng *sim.Engine, seed int64) netem.Queue {
	u := rand.New(rand.NewSource(seed)).Float64
	switch k {
	case 0:
		return aqm.NewDropTail(6)
	case 1:
		return aqm.NewMarkThreshold(8, 2)
	case 2:
		return aqm.NewWRED(8, 1, 4, u)
	default:
		return aqm.NewRED(aqm.REDConfig{
			CapPkts: 8, MinTh: 0.5, MaxTh: 2, MaxP: 0.5, Wq: 0.3, Gentle: true,
			ECN: k == 3, MeanPktTime: 4000, Clock: eng.Now,
		}, u)
	}
}

func runTwin(twoEvent bool, k int, seed int64, delay int64, impair bool, ops []twinOp) twinOutcome {
	eng := sim.New()
	var out twinOutcome
	p := netem.NewPort(eng, twinQueue(k, eng, seed), 1e9, delay)
	p.Connect(twinSink{eng, &out.Delivered})
	netem.SetTwoEvent(p, twoEvent)
	if impair {
		im := p.Impair(false)
		im.SetReorder(0.1, 9000, sim.NewRNG(seed+1))
		im.SetJitter(netem.UniformDelay{Lo: 0, Hi: 6000}, sim.NewRNG(seed+2))
		im.SetDuplicate(0.05, 1, sim.NewRNG(seed+3))
	}
	act := func(a any) {
		op := ops[a.(int)]
		switch op.kind {
		case 'd':
			p.SetDown(true)
		case 'u':
			p.SetDown(false)
		default:
			pkt := netem.AllocPacket()
			pkt.ID = uint64(a.(int))
			pkt.Wire = op.size
			if op.ect {
				pkt.ECN = netem.ECT0
			}
			p.Send(pkt)
		}
	}
	launch := func(a any) { eng.ScheduleArg(ops[a.(int)].lead, act, a) }
	for i, op := range ops {
		if op.lead < 0 {
			eng.AtArg(op.at, act, i)
		} else {
			eng.AtArg(op.at-op.lead, launch, i)
		}
	}
	eng.Run()
	out.Port = p.Stats()
	out.Queue = p.Q.(interface{ Stats() aqm.Stats }).Stats()
	if impair {
		out.Impair = p.Impair(false).Stats()
	}
	out.Events = eng.Processed
	return out
}

// genTwinOps draws packets of 500/1000/1500 bytes (4/8/12 µs at 1 Gb/s) on
// a 4 µs grid, bursty enough to fill and drain the queue, and a few
// down/up pairs.
func genTwinOps(rng *rand.Rand) []twinOp {
	const grid = 4000
	var ops []twinOp
	span := int64(50 + rng.Intn(250))
	for i, n := 0, 20+rng.Intn(200); i < n; i++ {
		op := twinOp{at: rng.Int63n(span) * grid, lead: -1, kind: 'p',
			size: 500 * (1 + rng.Intn(3)), ect: rng.Intn(2) == 0}
		if rng.Intn(5) == 0 {
			op.at += rng.Int63n(grid)
		}
		if rng.Intn(3) > 0 {
			op.lead = min(op.at, grid*rng.Int63n(4))
		}
		ops = append(ops, op)
	}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		down := rng.Int63n(span) * grid
		if rng.Intn(2) == 0 {
			down += rng.Int63n(grid)
		}
		ops = append(ops,
			twinOp{at: down, lead: -1, kind: 'd'},
			twinOp{at: down + 1 + rng.Int63n(3*grid), lead: min(down, grid), kind: 'u'})
	}
	return ops
}

func TestTwinPortOneEventHopQuick(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := genTwinOps(rng)
		k := rng.Intn(5)
		delay := []int64{0, 1000, 4000, 12000}[rng.Intn(4)]
		impair := rng.Intn(3) == 0
		want := runTwin(true, k, seed, delay, impair, ops)
		got := runTwin(false, k, seed, delay, impair, ops)
		if got.Events > want.Events {
			t.Logf("seed %d: one-event hop fired %d events, two-event path %d", seed, got.Events, want.Events)
			return false
		}
		got.Events, want.Events = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Logf("seed %d discipline %d delay %d impair %v:\n one-event %+v\n two-event %+v",
				seed, k, delay, impair, got, want)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 500}
	if testing.Short() {
		cfg.MaxCount = 100
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
