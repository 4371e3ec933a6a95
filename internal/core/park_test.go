package core

import (
	"math/rand"
	"testing"

	"hwatch/internal/netem"
	"hwatch/internal/sim"
)

// The parked-epoch oracle: twin receiver-side shims on twin engines are fed
// one scripted packet sequence — probe trains, handshakes, data bursts with
// ACKs, idle gaps of 0…1000 RTT that often end exactly on an epoch boundary,
// FINs in a parked state, idle-GC expiry, Crash/Restart mid-park — one with
// the unexported unparked switch, which keeps every idle epoch an event. The
// rewritten rwnd of every ACK and the Stats after every step (EpochsClosed
// included) must be identical; only the event count may differ.

type parkStepKind int

const (
	stepProbe parkStepKind = iota
	stepSYN
	stepSynAck
	stepData
	stepAck
	stepFIN
	stepCrash
	stepRestart
)

type parkStep struct {
	at   int64
	lead int64 // <0: armed at setup; else scheduled lead ns ahead by a launcher
	kind parkStepKind
	flow uint16
	ce   bool
}

type parkRec struct {
	step    int
	rwnd    uint16
	tracked int
	st      Stats
}

type parkTwin struct {
	eng   *sim.Engine
	s     *Shim
	tap   *hostTap
	steps []parkStep
	log   []parkRec
}

func newParkTwin(cfg Config, unparked bool, steps []parkStep) *parkTwin {
	eng := sim.New()
	w := &parkTwin{eng: eng, s: NewShim(eng, cfg, 0), steps: steps}
	w.s.unparked = unparked
	w.tap = &hostTap{shim: w.s, injectOutFn: func(any) {}} // paced SYN-ACKs go nowhere
	for i, st := range steps {
		if st.lead < 0 {
			eng.AtArg(st.at, w.apply, i)
		} else {
			eng.AtArg(st.at-st.lead, w.launch, i)
		}
	}
	return w
}

func (w *parkTwin) launch(a any) { w.eng.ScheduleArg(w.steps[a.(int)].lead, w.apply, a) }

func (w *parkTwin) apply(a any) {
	i := a.(int)
	st := w.steps[i]
	// The table is keyed by data direction: guest 1 sends to local guest 2.
	in := netem.AllocPacket()
	in.Src, in.Dst, in.SrcPort, in.DstPort = 1, 2, 1000+st.flow, 80
	in.ECN, in.WScaleOpt = netem.ECT0, -1
	if st.ce {
		in.ECN = netem.CE
	}
	out := &netem.Packet{Src: 2, Dst: 1, SrcPort: 80, DstPort: 1000 + st.flow,
		Flags: netem.FlagACK, Rwnd: 0xffff, WScaleOpt: -1}
	rec := parkRec{step: i}
	switch st.kind {
	case stepProbe:
		in.Probe = true
		w.s.inbound(in) // consumed and released by the shim
	case stepSYN:
		in.Flags = netem.FlagSYN
		w.s.inbound(in)
	case stepSynAck:
		out.Flags |= netem.FlagSYN
		out.WScaleOpt = 7
		netem.SetChecksum(out)
		w.s.outbound(w.tap, out)
		rec.rwnd = out.Rwnd
	case stepData:
		in.Flags, in.Payload = netem.FlagACK, 1460
		w.s.inbound(in)
	case stepAck:
		netem.SetChecksum(out)
		w.s.outbound(w.tap, out)
		rec.rwnd = out.Rwnd
	case stepFIN:
		in.Flags = netem.FlagFIN | netem.FlagACK
		w.s.inbound(in)
	case stepCrash:
		w.s.Crash()
	case stepRestart:
		w.s.Restart()
	}
	if st.kind != stepProbe {
		netem.ReleasePacket(in)
	}
	rec.tracked, rec.st = w.s.TrackedFlows(), w.s.Stats()
	rec.st.EpochsSkipped = 0 // the one counter the twins may differ in
	w.log = append(w.log, rec)
}

// genParkScript lays out a handful of flows, each a handshake, bursts and
// gaps on its own epoch grid (anchored at its SYN-ACK), and a FIN.
func genParkScript(rng *rand.Rand, rtt int64) (steps []parkStep, horizon int64) {
	leads := []int64{-1, -1, 0, rtt / 2, rtt, 2 * rtt}
	add := func(at int64, kind parkStepKind, flow uint16, ce bool) {
		lead := leads[rng.Intn(len(leads))]
		if lead > at {
			lead = at
		}
		steps = append(steps, parkStep{at: at, lead: lead, kind: kind, flow: flow, ce: ce})
		if at > horizon {
			horizon = at
		}
	}
	gaps := []int64{0, 1, 2, 3, 7, 50, 1000}
	markP := rng.Float64() * 0.6
	for flow := uint16(0); flow < uint16(2+rng.Intn(4)); flow++ {
		t := rng.Int63n(20 * rtt)
		for i := 0; i < 10; i++ {
			add(t+rng.Int63n(rtt/2), stepProbe, flow, rng.Float64() < markP)
		}
		t += rtt / 2
		add(t, stepSYN, flow, false)
		add(t, stepSynAck, flow, false)
		grid := t // epochs close at grid + k*rtt
		for burst, n := 0, 1+rng.Intn(6); burst < n; burst++ {
			t = grid + (t-grid)/rtt*rtt + gaps[rng.Intn(len(gaps))]*rtt
			if rng.Intn(3) > 0 {
				t += rng.Int63n(rtt)
			}
			for pkt, m := 0, 1+rng.Intn(12); pkt < m; pkt++ {
				add(t, stepData, flow, rng.Float64() < markP)
				add(t+rng.Int63n(3), stepAck, flow, false)
				t += rng.Int63n(rtt / 4)
			}
		}
		if rng.Intn(4) > 0 { // else: never closed, left to the idle sweep or the end
			t = grid + (t-grid)/rtt*rtt + gaps[rng.Intn(len(gaps))]*rtt + rng.Int63n(2)*rng.Int63n(rtt)
			add(t, stepFIN, flow, rng.Intn(2) == 0)
		}
	}
	if rng.Intn(2) == 0 {
		t := rng.Int63n(horizon + 1)
		add(t, stepCrash, 0, false)
		add(t+rng.Int63n(30*rtt), stepRestart, 0, false)
	}
	return steps, horizon + 10*rtt
}

func TestParkedEpochsMatchUnparkedTwin(t *testing.T) {
	const rtt = 100 * sim.Microsecond
	var skipped, saved int64
	for seed := int64(0); seed < 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig(rtt)
		if seed%2 == 1 {
			// Let the idle sweep expire parked rows mid-script.
			cfg.GCInterval, cfg.IdleTimeout = 7*sim.Millisecond, 30*sim.Millisecond
		}
		steps, horizon := genParkScript(rng, rtt)
		parked, oracle := newParkTwin(cfg, false, steps), newParkTwin(cfg, true, steps)
		parked.eng.RunUntil(horizon)
		oracle.eng.RunUntil(horizon)

		if len(parked.log) != len(steps) || len(oracle.log) != len(steps) {
			t.Fatalf("seed %d: %d and %d of %d steps ran", seed, len(parked.log), len(oracle.log), len(steps))
		}
		for i := range parked.log {
			if got, want := parked.log[i], oracle.log[i]; got != want {
				t.Fatalf("seed %d: fire %d (step %+v at %d):\n parked   %+v\n unparked %+v",
					seed, i, steps[got.step], steps[got.step].at, got, want)
			}
		}
		got, want := parked.s.Stats(), oracle.s.Stats()
		skipped += got.EpochsSkipped
		saved += int64(oracle.eng.Processed - parked.eng.Processed)
		if want.EpochsSkipped != 0 {
			t.Fatalf("seed %d: the unparked twin skipped %d epochs", seed, want.EpochsSkipped)
		}
		if int64(oracle.eng.Processed-parked.eng.Processed) != got.EpochsSkipped {
			t.Fatalf("seed %d: %d epochs skipped but %d fewer events", seed, got.EpochsSkipped,
				oracle.eng.Processed-parked.eng.Processed)
		}
		got.EpochsSkipped = 0
		if got != want {
			t.Fatalf("seed %d: final stats\n parked   %+v\n unparked %+v", seed, got, want)
		}
	}
	if skipped == 0 || saved != skipped {
		t.Fatalf("scripts skipped %d idle epochs and saved %d events; the property was not exercised", skipped, saved)
	}
}
