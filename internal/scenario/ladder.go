package scenario

import (
	"fmt"

	"hwatch/internal/harness"
	"hwatch/internal/netem"
	"hwatch/internal/sim"
	"hwatch/internal/stats"
	"hwatch/internal/tcp"
	"hwatch/internal/workload"
)

// Rung is one registered step of the benchmark scale ladder: a named,
// reproducible scenario at a fixed multiple of the paper's testbed, or an
// open-loop incast storm drawn from an empirical flow-size CDF. Rungs are
// the units the bench-ladder regression gate and the ladder golden digests
// operate on: `hwatchsim rung/<name>` runs one, BENCH_LADDER records
// track all of them release over release.
type Rung struct {
	// Name identifies the rung ("ladder/10x", "storm/websearch").
	Name        string
	Description string
	// Factor is the rung's source-count multiple of the paper dumbbell
	// (ladder rungs; 0 for storms).
	Factor int
	// Flows is the planned flow count at full scale (storm rungs; 0 for
	// ladder rungs).
	Flows int
	// DigestScale is the shrunken scale the golden-digest suite runs the
	// rung at, so determinism is pinned on every rung without the digest
	// job paying full-rung wall time.
	DigestScale float64
	// Spec builds the rung's scenario at the given scale: 1 is the full
	// rung; (0,1) shrinks sources/flows for digests and smoke tests.
	Spec func(scale float64) *Spec
}

var (
	rungOrder []string
	rungByKey = map[string]Rung{}
)

// RegisterRung adds a rung to the ladder. Like the scheme registry it
// panics on duplicates: rung names appear in committed BENCH_LADDER
// records and golden-digest files, so silent redefinition would corrupt
// the trajectory they track.
func RegisterRung(r Rung) {
	if r.Name == "" || r.Spec == nil {
		panic("scenario: rung needs a name and a spec builder")
	}
	if _, dup := rungByKey[r.Name]; dup {
		panic(fmt.Sprintf("scenario: duplicate rung %q", r.Name))
	}
	rungByKey[r.Name] = r
	rungOrder = append(rungOrder, r.Name)
}

// Rungs returns every registered rung in registration order (the ladder's
// canonical bottom-to-top reading).
func Rungs() []Rung {
	out := make([]Rung, 0, len(rungOrder))
	for _, name := range rungOrder {
		out = append(out, rungByKey[name])
	}
	return out
}

// LookupRung finds a rung by name.
func LookupRung(name string) (Rung, bool) {
	r, ok := rungByKey[name]
	return r, ok
}

// ladderParams is the paper dumbbell multiplied by factor: factor times
// the sources contending for the same 10 Gb/s bottleneck. Event volume is
// bottleneck-bound, so the cost of a higher rung is dominated by per-flow
// state and timer pressure — exactly what the slab flow tables exist for —
// and the top rung trades duration for sources to stay affordable.
func ladderParams(factor int, scale float64) DumbbellParams {
	p := PaperDumbbell(25*factor, 25*factor)
	p.ByteBuffers = true // match the Fig. 8 comparison configuration
	if factor >= 100 {
		// 5000 sources: shrink the run, keeping the incast epochs inside.
		p.Duration = 400 * sim.Millisecond
		p.Epochs = 2
	}
	return scaledLadder(p, scale)
}

// scaledLadder shrinks a ladder rung for digest and smoke runs: sources
// scale linearly, duration and epochs by a clamped factor (they bound
// wall-clock far less than event volume does).
func scaledLadder(p DumbbellParams, scale float64) DumbbellParams {
	if scale >= 1 || scale <= 0 {
		return p
	}
	shrink := func(n int) int {
		v := int(float64(n) * scale)
		if v < 2 {
			v = 2
		}
		return v
	}
	p.LongSources = shrink(p.LongSources)
	p.ShortSources = shrink(p.ShortSources)
	t := scale * 2
	if t > 1 {
		t = 1
	}
	p.Duration = int64(float64(p.Duration) * t)
	if p.Epochs > 0 {
		p.Epochs = int(float64(p.Epochs)*t) + 1
	}
	// Epoch times shrink with the duration so every scale still runs its
	// incast phase inside the window (unscaled, a deep shrink would end
	// the run before the first epoch fires).
	p.FirstEpoch = int64(float64(p.FirstEpoch) * t)
	p.EpochInterval = int64(float64(p.EpochInterval) * t)
	return p
}

// stormParams is the storm rungs' fabric: the Fig. 8 dumbbell with a
// wider source fan and no long-lived background flows — the contention is
// the storm itself.
func stormParams(hosts int, scale float64) DumbbellParams {
	p := PaperDumbbell(0, hosts)
	p.ByteBuffers = true
	p.Epochs = 0 // no default incast; the storm workload drives arrivals
	p.Duration = 300 * sim.Millisecond
	p.DrainAfter = 200 * sim.Millisecond
	p.SampleEvery = sim.Millisecond
	if scale > 0 && scale < 1 {
		p.ShortSources = int(float64(hosts) * scale)
		if p.ShortSources < 4 {
			p.ShortSources = 4
		}
	}
	return p
}

// stormSpec builds an incast-storm scenario: flows short flows with sizes
// from dist arrive open-loop over the arrival window, from every host,
// into the aggregation host, under HWatch shims.
func stormSpec(name string, flows, hosts int, dist workload.SizeDist, scale float64) *Spec {
	p := stormParams(hosts, scale)
	n := flows
	if scale > 0 && scale < 1 {
		n = int(float64(flows) * scale)
		if n < 8 {
			n = 8
		}
	}
	p.Seed = harness.SeedFor(name, 42)
	return &Spec{
		Kind:     KindDumbbell,
		Schemes:  []Share{{Scheme: HWatch}},
		Label:    name,
		Dumbbell: p,
		Workload: &stormTraffic{
			flows:  n,
			sizes:  dist,
			start:  10 * sim.Millisecond,
			window: 100 * sim.Millisecond,
		},
	}
}

func init() {
	for _, factor := range []int{1, 10, 100} {
		factor := factor
		// Digest scale floors at 0.02 so the upper rungs' digests still
		// cover tens of sources rather than the 2-source minimum.
		digestScale := 0.1 / float64(factor)
		if digestScale < 0.02 {
			digestScale = 0.02
		}
		RegisterRung(Rung{
			Name:        fmt.Sprintf("ladder/%dx", factor),
			Description: fmt.Sprintf("paper dumbbell at %dx sources (%d long + %d short) under hwatch", factor, 25*factor, 25*factor),
			Factor:      factor,
			DigestScale: digestScale,
			Spec: func(scale float64) *Spec {
				return &Spec{
					Kind:     KindDumbbell,
					Schemes:  []Share{{Scheme: HWatch}},
					Label:    fmt.Sprintf("ladder/%dx", factor),
					Dumbbell: ladderParams(factor, scale),
				}
			},
		})
	}
	RegisterRung(Rung{
		Name:        "storm/websearch",
		Description: "open-loop incast storm: 10k flows from the DCTCP websearch CDF into one aggregator",
		Flows:       10_000,
		DigestScale: 0.02,
		Spec: func(scale float64) *Spec {
			return stormSpec("storm/websearch", 10_000, 400, workload.WebSearch(), scale)
		},
	})
	RegisterRung(Rung{
		Name:        "storm/datamining",
		Description: "open-loop incast storm: 10k flows from the VL2 datamining CDF into one aggregator",
		Flows:       10_000,
		DigestScale: 0.02,
		Spec: func(scale float64) *Spec {
			return stormSpec("storm/datamining", 10_000, 400, workload.DataMining(), scale)
		},
	})
}

// stormTraffic wires an open-loop incast storm over the dumbbell: every
// sender host is a storm source, the aggregation host terminates all
// flows. Unlike dumbbellTraffic there is no closed epoch structure —
// arrivals are a pre-planned Poisson process that keeps landing regardless
// of completions, so concurrency builds to whatever the fabric admits.
type stormTraffic struct {
	flows  int
	sizes  workload.SizeDist
	start  int64
	window int64

	storm *workload.Storm
}

func (st *stormTraffic) Wire(rc *RunContext, run *Run) {
	d := rc.Dumbbell
	cfgByID := make(map[netem.NodeID]tcp.Config, len(d.Senders))
	for _, h := range d.Senders {
		cfgByID[h.ID] = rc.ConfigFor(h)
	}
	d.Receiver.Listen(DefaultPort, func(syn *netem.Packet) netem.Handler {
		cfg, ok := cfgByID[syn.Src]
		if !ok {
			cfg = tcp.DefaultConfig()
		}
		return tcp.NewReceiver(d.Receiver, syn.Src, syn.DstPort, syn.SrcPort, cfg)
	})
	st.storm = workload.RunStorm(d.Senders, d.Receiver.ID,
		func(h *netem.Host) tcp.Config { return cfgByID[h.ID] },
		workload.StormConfig{
			Port:   DefaultPort,
			Flows:  st.flows,
			Sizes:  st.sizes,
			Start:  st.start,
			Window: st.window,
			Rng:    rc.Rng.Fork(),
		},
		func(fct, _ int64) {
			run.ShortFCTms.Add(float64(fct) / float64(sim.Millisecond))
		})
	rc.WatchSenders(func() []*tcp.Sender {
		return st.storm.LiveSenders()
	})
}

func (st *stormTraffic) Finish(rc *RunContext, run *Run) {
	st.storm.Finalize()
	run.ShortAll = st.storm.Started
	run.ShortDone = st.storm.Completed
	var retrans stats.Sample
	for _, s := range st.storm.Senders {
		sst := s.Stats()
		run.Timeouts += sst.Timeouts
		retrans.Add(float64(sst.Retransmits))
	}
	run.ShortRetrans = retrans
}
