package workload

import (
	"testing"

	"hwatch/internal/aqm"
	"hwatch/internal/netem"
	"hwatch/internal/sim"
	"hwatch/internal/tcp"
	"hwatch/internal/topo"
)

const port = 80

func smallDumbbell(nSenders int) *topo.Dumbbell {
	return topo.NewDumbbell(topo.DumbbellConfig{
		Senders:       nSenders,
		EdgeRateBps:   10e9,
		BottleneckBps: 10e9,
		LinkDelay:     25 * sim.Microsecond,
		BottleneckQ:   func() netem.Queue { return aqm.NewDropTail(250) },
		EdgeQ:         func() netem.Queue { return aqm.NewDropTail(100000) },
	})
}

func TestLongLivedStartsAllFlows(t *testing.T) {
	d := smallDumbbell(4)
	tcfg := tcp.DefaultConfig()
	var recvs []*tcp.Receiver
	d.Receiver.Listen(port, tcp.NewListener(d.Receiver, tcfg, func(r *tcp.Receiver) { recvs = append(recvs, r) }))
	rng := sim.NewRNG(1)
	ll := StartLongLived(d.Senders, d.Receiver.ID, tcfg, LongLivedConfig{
		Port: port, StartAt: 0, Jitter: sim.Millisecond, Rng: rng,
	})
	// 500 ms leaves room for a lost SYN's 200 ms RTO recovery.
	d.Net.Eng.RunUntil(500 * sim.Millisecond)
	if len(ll.Senders) != 4 || len(recvs) != 4 {
		t.Fatalf("senders=%d receivers=%d", len(ll.Senders), len(recvs))
	}
	var total int64
	for _, r := range recvs {
		if r.Delivered() == 0 {
			t.Fatal("a long flow delivered nothing")
		}
		total += r.Delivered()
	}
	// 10 Gb/s for ~500 ms ≈ 625 MB; demand 60% despite loss sawtooth.
	if total < 375_000_000 {
		t.Fatalf("aggregate delivery %d too low", total)
	}
}

func TestIncastEpochsCountsAndFCTs(t *testing.T) {
	d := smallDumbbell(10)
	tcfg := tcp.DefaultConfig()
	d.Receiver.Listen(port, tcp.NewListener(d.Receiver, tcfg, nil))
	rng := sim.NewRNG(2)
	var fcts []int64
	inc := RunIncastConfigs(d.Senders, d.Receiver.ID, func(*netem.Host) tcp.Config { return tcfg }, IncastConfig{
		Port: port, FlowSize: 10_000, Epochs: 3,
		FirstEpoch:    10 * sim.Millisecond,
		EpochInterval: 100 * sim.Millisecond,
		JitterMean:    sim.Microsecond,
		Rng:           rng,
	}, func(fct, size int64) {
		fcts = append(fcts, fct)
		if size != 10_000 {
			t.Errorf("size = %d", size)
		}
	})
	d.Net.Eng.RunUntil(5 * sim.Second)
	inc.Finalize()
	if inc.Started != 30 {
		t.Fatalf("started %d flows, want 30", inc.Started)
	}
	if inc.Completed != 30 || len(fcts) != 30 {
		t.Fatalf("completed %d (callbacks %d), want 30", inc.Completed, len(fcts))
	}
	for _, f := range fcts {
		if f <= 0 {
			t.Fatal("nonpositive FCT")
		}
	}
}

func TestIncastDeterministicWithSeed(t *testing.T) {
	runOnce := func() []int64 {
		d := smallDumbbell(8)
		tcfg := tcp.DefaultConfig()
		d.Receiver.Listen(port, tcp.NewListener(d.Receiver, tcfg, nil))
		var fcts []int64
		inc := RunIncastConfigs(d.Senders, d.Receiver.ID, func(*netem.Host) tcp.Config { return tcfg }, IncastConfig{
			Port: port, FlowSize: 10_000, Epochs: 2,
			FirstEpoch:    sim.Millisecond,
			EpochInterval: 50 * sim.Millisecond,
			JitterMean:    sim.Microsecond,
			Rng:           sim.NewRNG(7),
		}, func(fct, _ int64) { fcts = append(fcts, fct) })
		d.Net.Eng.RunUntil(2 * sim.Second)
		inc.Finalize()
		return fcts
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) || len(a) != 16 {
		t.Fatalf("runs differ in count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at flow %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestWebWorkload(t *testing.T) {
	ls := topo.NewLeafSpine(topo.LeafSpineConfig{
		Racks: 2, HostsPerRack: 3,
		EdgeRateBps: 1e9, CoreRateBps: 1e9,
		EdgeDelay: 25 * sim.Microsecond, CoreDelay: 25 * sim.Microsecond,
		EdgeQ: func() netem.Queue { return aqm.NewDropTail(100) },
		CoreQ: func() netem.Queue { return aqm.NewDropTail(100) },
	})
	tcfg := tcp.DefaultConfig()
	clients := ls.Racks[0]
	servers := ls.Racks[1]
	for _, c := range clients {
		c.Listen(port, tcp.NewListener(c, tcfg, nil))
	}
	rng := sim.NewRNG(3)
	var fcts []int64
	w := RunWeb(servers, clients, tcfg, WebConfig{
		Port: port, ObjectSize: 11_500, Parallel: 2, Epochs: 2,
		FirstEpoch:    sim.Millisecond,
		EpochInterval: 200 * sim.Millisecond,
		JitterMean:    10 * sim.Microsecond,
		Rng:           rng,
	}, func(fct, _ int64) { fcts = append(fcts, fct) })
	ls.Net.Eng.RunUntil(10 * sim.Second)
	w.Finalize()
	want := 3 * 3 * 2 * 2 // servers * clients * parallel * epochs
	if w.Started != want || w.Completed != want {
		t.Fatalf("started=%d completed=%d want %d", w.Started, w.Completed, want)
	}
}

func TestLeafSpineCrossRackConnectivity(t *testing.T) {
	ls := topo.NewLeafSpine(topo.LeafSpineConfig{
		Racks: 4, HostsPerRack: 2,
		EdgeRateBps: 1e9, CoreRateBps: 1e9,
		EdgeDelay: 10 * sim.Microsecond, CoreDelay: 10 * sim.Microsecond,
		EdgeQ: func() netem.Queue { return aqm.NewDropTail(1000) },
		CoreQ: func() netem.Queue { return aqm.NewDropTail(1000) },
	})
	tcfg := tcp.DefaultConfig()
	// Every host listens; send a flow between every cross-rack pair of
	// first hosts.
	for _, h := range ls.AllHosts() {
		h.Listen(port, tcp.NewListener(h, tcfg, nil))
	}
	done := 0
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i == j {
				continue
			}
			s := tcp.NewSender(ls.Racks[i][0], ls.Racks[j][1].ID, port, 5000, tcfg)
			s.OnComplete = func(int64) { done++ }
			s.Start()
		}
	}
	ls.Net.Eng.RunUntil(sim.Second)
	if done != 12 {
		t.Fatalf("cross-rack flows completed %d/12", done)
	}
	// Intra-rack too.
	s := tcp.NewSender(ls.Racks[0][0], ls.Racks[0][1].ID, port, 5000, tcfg)
	ok := false
	s.OnComplete = func(int64) { ok = true }
	s.Start()
	ls.Net.Eng.RunUntil(2 * sim.Second)
	if !ok {
		t.Fatal("intra-rack flow failed")
	}
}

func TestDumbbellBottleneckIsShared(t *testing.T) {
	d := smallDumbbell(5)
	tcfg := tcp.DefaultConfig()
	d.Receiver.Listen(port, tcp.NewListener(d.Receiver, tcfg, nil))
	rng := sim.NewRNG(5)
	StartLongLived(d.Senders, d.Receiver.ID, tcfg, LongLivedConfig{Port: port, Rng: rng})
	d.Net.Eng.RunUntil(50 * sim.Millisecond)
	if d.BottleneckPort.Stats().TxBytes == 0 {
		t.Fatal("no traffic crossed the bottleneck")
	}
	if dt, ok := d.Bottleneck.(*aqm.DropTail); ok {
		if dt.Stats().MaxLen == 0 {
			t.Fatal("bottleneck queue never built up under 5 competing flows")
		}
	}
}

func TestCoflowsJCTIsMaxFlow(t *testing.T) {
	d := smallDumbbell(10)
	tcfg := tcp.DefaultConfig()
	d.Receiver.Listen(port, tcp.NewListener(d.Receiver, tcfg, nil))
	var jcts []int64
	co := RunCoflows(d.Senders, d.Receiver.ID, tcfg, CoflowConfig{
		Port: port, Width: 8, FlowSize: 20_000,
		Jobs: 3, FirstJob: sim.Millisecond, JobEvery: 100 * sim.Millisecond,
		Jitter: sim.Microsecond, Rng: sim.NewRNG(9),
	}, func(jct int64) { jcts = append(jcts, jct) })
	d.Net.Eng.RunUntil(5 * sim.Second)
	if co.JobsStarted != 3 || co.JobsCompleted != 3 {
		t.Fatalf("jobs %d/%d", co.JobsCompleted, co.JobsStarted)
	}
	if len(jcts) != 3 || len(co.StragglerRatio) != 3 {
		t.Fatalf("callbacks %d, ratios %d", len(jcts), len(co.StragglerRatio))
	}
	for i, r := range co.StragglerRatio {
		if r < 1 {
			t.Fatalf("job %d: straggler ratio %.2f < 1 (JCT below median FCT?)", i, r)
		}
	}
	for _, j := range co.JCTs {
		if j <= 0 {
			t.Fatal("nonpositive JCT")
		}
	}
}

func TestCoflowValidation(t *testing.T) {
	d := smallDumbbell(2)
	defer func() {
		if recover() == nil {
			t.Fatal("width > sources accepted")
		}
	}()
	RunCoflows(d.Senders, d.Receiver.ID, tcp.DefaultConfig(), CoflowConfig{
		Width: 5, Jobs: 1, Rng: sim.NewRNG(1),
	}, nil)
}
