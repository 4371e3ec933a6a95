package main

import (
	"context"
	"fmt"
	"strings"

	"hwatch/internal/core"
	"hwatch/internal/experiments"
	"hwatch/internal/harness"
	"hwatch/internal/scenario"
	"hwatch/internal/sim"
)

// runSummary is what the harness keeps of one scenario run: its identity
// (digest and event count, which must repeat exactly) and the counters the
// per-layer metrics are built from. The series themselves are dropped so a
// pass's results do not stay live across the next pass.
type runSummary struct {
	Label     string
	Digest    string
	Events    uint64
	WallNs    int64
	ShortDone int
	ShortAll  int
	Drops     int64
	Marks     int64
	Timeouts  int64
	Retrans   float64
	Shim      core.Stats
}

// summarize keeps the digest the caller already holds: a run that came
// over the wire was hashed once by client.Runs and is not hashed again.
func summarize(r *scenario.Run, digest string) runSummary {
	s := runSummary{
		Label:     r.Label,
		Digest:    digest,
		Events:    r.Events,
		WallNs:    r.WallNs,
		ShortDone: r.ShortDone,
		ShortAll:  r.ShortAll,
		Drops:     r.Drops,
		Marks:     r.Marks,
		Timeouts:  r.Timeouts,
	}
	for _, v := range r.ShortRetrans.Values() {
		s.Retrans += v
	}
	if r.ShimStats != nil {
		s.Shim = *r.ShimStats
	}
	return s
}

// op is one operation of a pass: one scenario run on the sim workloads,
// one HTTP submit→result on the service workloads.
type op struct {
	key  string // names the operation within its pass
	runs []runSummary
	// simulated is false when the result came out of the server's cache:
	// its runs carry the event counts of the run that filled the cache,
	// not work done in this pass.
	simulated bool
	err       error
}

// instance is one set-up workload: inputs built from the seed and, on the
// service workloads, a running server.
type instance interface {
	// golden runs the workload's golden-scale twin and returns its run
	// digests under the keys of the committed golden files.
	golden(ctx context.Context) (map[string]string, error)
	// pass does the workload's fixed unit of work once. Every call on
	// one instance does identical work and must return identical results.
	pass(ctx context.Context, tr *tracer) []op
	close()
}

// buildFunc sets a workload up: inputs from the seed at the frozen size, or
// at a smoke-test size when tiny.
type buildFunc func(ctx context.Context, seed int64, tiny bool) (instance, error)

// workloads are the named workloads of BENCHMARK.json.
var workloads = map[string]buildFunc{
	"fig8_compare":    buildFig8,
	"storm_websearch": buildStorm,
	"testbed_shards2": buildTestbed,
	"service_cold":    buildServiceCold,
	"service_hit":     buildServiceHit,
}

// mixSeed is the one place a workload seed reaches a spec: seed 0 keeps
// the committed seed, so digests match hwatchsim and figgen; any other
// seed is mixed with the spec's identity.
func mixSeed(committed int64, identity string, seed int64) int64 {
	if seed == 0 {
		return committed
	}
	return harness.SeedFor(identity, seed)
}

// simInstance runs a fixed list of generated specs one after the other
// (harness parallel 1): the sim workloads differ only in the list.
type simInstance struct {
	// specs builds the pass's specs afresh: a Spec's Workload carries
	// per-run state, so specs are not reused across runs.
	specs func() []*scenario.Spec
	twin  func(ctx context.Context) (map[string]string, error)
}

func (s *simInstance) golden(ctx context.Context) (map[string]string, error) { return s.twin(ctx) }

func (s *simInstance) close() {}

func (s *simInstance) pass(ctx context.Context, tr *tracer) []op {
	specs := s.specs()
	ops := make([]op, 0, len(specs))
	for i, sp := range specs {
		id := tr.begin("scenario.run", 0)
		r, err := sp.RunContext(ctx)
		tr.end(id)
		o := op{key: fmt.Sprintf("%d/%s", i, sp.Label), simulated: true, err: err}
		if err == nil {
			tr.child("sim.loop", id, r.WallNs)
			o.key = fmt.Sprintf("%d/%s", i, r.Label)
			o.runs = []runSummary{summarize(r, r.DigestHex())}
		}
		ops = append(ops, o)
	}
	return ops
}

// figTwin runs a figure at its golden scale through the repo's own entry
// point and keys the digests the way the golden file does.
func figTwin(fig string, scale float64, key func(r *scenario.Run) string) func(context.Context) (map[string]string, error) {
	return func(ctx context.Context) (map[string]string, error) {
		experiments.SetParallel(1)
		defer experiments.SetParallel(0)
		runs, err := experiments.FigRuns(ctx, fig, scale)
		if err != nil {
			return nil, err
		}
		got := make(map[string]string, len(runs))
		for _, r := range runs {
			got[fig+"/"+key(r)] = r.DigestHex()
		}
		return got, nil
	}
}

func lowerLabel(r *scenario.Run) string { return strings.ToLower(r.Label) }

// fig8Params is Fig. 8 with the sources of scale 0.2 (5 long, 5 short) and
// the duration of scale 0.1 (200 ms, one incast epoch inside it),
// byte-accounted buffers: the link stays saturated, so a pass costs half of
// `hwatchsim -exp fig8 -scale 0.2` and twice as many passes fit a run.
func fig8Params(tiny bool) scenario.DumbbellParams {
	sources, ms, epochs := 5, int64(200), 2
	if tiny {
		sources, ms, epochs = 2, 120, 1
	}
	p := scenario.PaperDumbbell(sources, sources)
	p.Duration = ms * sim.Millisecond
	p.Epochs = epochs
	p.ByteBuffers = true
	return p
}

func buildFig8(_ context.Context, seed int64, tiny bool) (instance, error) {
	return &simInstance{
		specs: func() []*scenario.Spec {
			var out []*scenario.Spec
			for _, s := range scenario.AllSchemes() {
				p := fig8Params(tiny)
				p.Seed = mixSeed(p.Seed, "fig8_compare/"+string(s), seed)
				out = append(out, &scenario.Spec{
					Kind:     scenario.KindDumbbell,
					Schemes:  []scenario.Share{{Scheme: s}},
					Dumbbell: p,
				})
			}
			return out
		},
		twin: figTwin("fig8", 0.1, lowerLabel),
	}, nil
}

const stormRung = "storm/websearch"

// The storm pass is the rung at scale 0.3 — 3000 open-arrival web-search
// flows from 120 hosts, all arriving in the first 110 ms — cut off at 150 ms
// of simulated time with no drain. The bottleneck is overloaded from the
// first arrivals to the end, so the work is set by the duration and differs
// little between seeds (event counts: 1.5 % between quartiles; at scale 0.075
// with the rung's own 300 ms + 200 ms, 4.8 %).
const (
	stormScale    = 0.3
	stormDuration = 150 * sim.Millisecond
)

func buildStorm(_ context.Context, seed int64, tiny bool) (instance, error) {
	rung, ok := scenario.LookupRung(stormRung)
	if !ok {
		return nil, fmt.Errorf("rung %q is not registered", stormRung)
	}
	scale := stormScale
	if tiny {
		scale = rung.DigestScale
	}
	return &simInstance{
		specs: func() []*scenario.Spec {
			sp := rung.Spec(scale)
			if !tiny {
				sp.Dumbbell.Duration, sp.Dumbbell.DrainAfter = stormDuration, 0
			}
			sp.Dumbbell.Seed = mixSeed(sp.Dumbbell.Seed, "storm_websearch", seed)
			return []*scenario.Spec{sp}
		},
		twin: func(ctx context.Context) (map[string]string, error) {
			r, err := rung.Spec(rung.DigestScale).RunContext(ctx)
			if err != nil {
				return nil, err
			}
			return map[string]string{stormRung: r.DigestHex()}, nil
		},
	}, nil
}

// testbedParams is the Fig. 11 leaf-spine testbed (4 racks, 84 hosts, 42
// long flows) cut to the first of its 5 epochs of 1260 web fetches. The
// HWatch half runs that epoch out (600 ms). The plain-TCP half collapses
// into retransmission timeouts, and what it costs after the first timeouts
// come back depends on the seed (0.59–0.86 M events at 600 ms, 0.70–1.40 M at
// 1 s), so it stops at 400 ms.
func testbedParams(shimmed, tiny bool) scenario.TestbedParams {
	p := scenario.PaperTestbed()
	p.Epochs = 1
	if tiny {
		p.LongPerRack, p.WebServers, p.WebClients, p.Parallel = 2, 1, 1, 2
	}
	p.Duration = p.FirstEpoch + p.EpochInterval/2
	if shimmed {
		p.Duration = p.FirstEpoch + p.EpochInterval
	}
	return p
}

func buildTestbed(_ context.Context, seed int64, tiny bool) (instance, error) {
	twin := figTwin("fig11", 0.2, func(r *scenario.Run) string {
		return strings.ToLower(strings.TrimPrefix(r.Label, "TCP-"))
	})
	return &simInstance{
		specs: func() []*scenario.Spec {
			var out []*scenario.Spec
			for _, v := range []struct {
				scheme scenario.Scheme
				label  string
			}{{scenario.DropTail, "TCP"}, {scenario.HWatch, "TCP-HWatch"}} {
				p := testbedParams(v.scheme == scenario.HWatch, tiny)
				p.Seed = mixSeed(p.Seed, "testbed_shards2/"+v.label, seed)
				out = append(out, &scenario.Spec{
					Kind:    scenario.KindTestbed,
					Schemes: []scenario.Share{{Scheme: v.scheme}},
					Label:   v.label,
					Testbed: p,
					Shards:  maxProcs,
				})
			}
			return out
		},
		twin: func(ctx context.Context) (map[string]string, error) {
			// FigRuns takes no shard count; the twin must cross the same
			// windowed engine as the timed passes.
			scenario.SetDefaultShards(maxProcs)
			defer scenario.SetDefaultShards(1)
			return twin(ctx)
		},
	}, nil
}
