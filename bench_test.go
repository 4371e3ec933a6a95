package hwatch

// One benchmark per data figure in the paper's evaluation. Each iteration
// regenerates the figure's scenario at a reduced scale (so -bench runs in
// minutes, not hours) and reports the figure's headline quantity as a
// custom metric next to the usual ns/op. Full-scale regeneration is
// `go run ./cmd/hwatchsim all`.

import (
	"context"
	"runtime/metrics"
	"testing"
)

const benchScale = 0.2

// benchFig regenerates one figure of the table and returns its runs keyed
// by the table's curve keys.
func benchFig(b *testing.B, name string, scale float64) map[string]*Run {
	b.Helper()
	fs, err := SelectTargets("fig/" + name)
	if err != nil {
		b.Fatal(err)
	}
	f := fs[0]
	runs, _, err := f.Run(context.Background(), scale, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	out := map[string]*Run{}
	for i, k := range f.Keys {
		out[k] = runs[i]
	}
	return out
}

// BenchmarkFig1 regenerates the DCTCP initial-window study (Fig. 1a-d) and
// reports the mean short-flow FCT at the default ICW of 10.
func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := benchFig(b, "fig1", benchScale)
		b.ReportMetric(res["icw10"].ShortFCTms.Mean(), "fct-ms@icw10")
		b.ReportMetric(float64(res["icw10"].Drops), "drops@icw10")
	}
}

// BenchmarkFig2 regenerates the coexistence study (Fig. 2a-d) and reports
// the MIX/DCTCP variance inflation.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := benchFig(b, "fig2", benchScale)
		if v := res["dctcp"].ShortFCTms.Var(); v > 0 {
			b.ReportMetric(res["mix"].ShortFCTms.Var()/v, "var-inflation")
		}
		b.ReportMetric(res["mix"].QueuePkts.Mean(), "mix-queue-pkts")
	}
}

// BenchmarkFig8 regenerates the 50-source comparison (Fig. 8a-d) and
// reports HWatch's mean FCT and its improvement over DropTail.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := benchFig(b, "fig8", benchScale)
		hw := res["tcp-hwatch"]
		dt := res["tcp-droptail"]
		b.ReportMetric(hw.ShortFCTms.Mean(), "hwatch-fct-ms")
		if m := hw.ShortFCTms.Mean(); m > 0 {
			b.ReportMetric(dt.ShortFCTms.Mean()/m, "speedup-vs-droptail")
		}
		b.ReportMetric(float64(hw.Timeouts), "hwatch-rtos")
	}
}

// BenchmarkFig9 regenerates the 100-source scalability rerun (Fig. 9a-d).
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		hw := benchFig(b, "fig9", benchScale)["tcp-hwatch"]
		b.ReportMetric(hw.ShortFCTms.Quantile(0.99), "hwatch-fct-p99-ms")
		b.ReportMetric(float64(hw.Timeouts), "hwatch-rtos")
	}
}

// BenchmarkFig11 regenerates the testbed experiment (Fig. 11a-b) and
// reports the TCP->HWatch response-time improvement factor.
func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := benchFig(b, "fig11", 0.5)
		if m := res["hwatch"].ShortFCTms.Mean(); m > 0 {
			b.ReportMetric(res["tcp"].ShortFCTms.Mean()/m, "speedup")
		}
		b.ReportMetric(res["hwatch"].LongGoodputBps.Mean()/1e6, "elephant-Mbps")
	}
}

// gcCPUSamples are the runtime's CPU-time classes behind gc-cpu-fraction.
// The runtime refreshes all three together at the end of a GC cycle, so a
// ratio of their deltas is consistent however few cycles an iteration has.
func gcCPUSamples() []metrics.Sample {
	return []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
}

// benchRung runs one registered scale-ladder rung at full scale per
// iteration. Each reports what the fabric did — completion count, mean
// short FCT and event count, all pure functions of the model that
// `benchdiff -check` holds exactly equal to the BENCH_LADDER record — and
// the share of the iteration's busy CPU the collector took, which is
// recorded but not gated.
func benchRung(b *testing.B, name string, scale float64) {
	b.Helper()
	rungs, err := SelectTargets("rung/" + name)
	if err != nil {
		b.Fatal(err)
	}
	rung := rungs[0]
	before, after := gcCPUSamples(), gcCPUSamples()
	for i := 0; i < b.N; i++ {
		metrics.Read(before)
		runs, _, err := rung.Run(context.Background(), scale, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		run := runs[0]
		metrics.Read(after)
		b.ReportMetric(float64(run.ShortDone), "flows-done")
		if run.ShortFCTms.N() > 0 {
			b.ReportMetric(run.ShortFCTms.Mean(), "fct-ms")
		}
		b.ReportMetric(float64(run.Events), "events")
		delta := func(j int) float64 { return after[j].Value.Float64() - before[j].Value.Float64() }
		gcFrac := 0.0
		if busy := delta(1) - delta(2); busy > 0 {
			gcFrac = delta(0) / busy
		}
		b.ReportMetric(gcFrac, "gc-cpu-fraction")
	}
}

func BenchmarkLadder1x(b *testing.B)   { benchRung(b, "ladder/1x", 1) }
func BenchmarkLadder10x(b *testing.B)  { benchRung(b, "ladder/10x", 1) }
func BenchmarkLadder100x(b *testing.B) { benchRung(b, "ladder/100x", 1) }

func BenchmarkStormWebSearch(b *testing.B)  { benchRung(b, "storm/websearch", 1) }
func BenchmarkStormDataMining(b *testing.B) { benchRung(b, "storm/datamining", 1) }

// benchRungShards reruns a rung with the fabric partitioned across n
// engine shards. The digest is identical to the single-loop variant (the
// parity matrix enforces that), so the ns/op delta against the unsharded
// benchmark above is pure execution cost: the multi-core speedup on
// parallel hardware, or the window-barrier overhead when cores are scarce.
func benchRungShards(b *testing.B, name string, shards int) {
	b.Helper()
	SetShards(shards)
	defer SetShards(0)
	benchRung(b, name, 1)
}

func BenchmarkLadder10xShards4(b *testing.B) { benchRungShards(b, "ladder/10x", 4) }

func BenchmarkLadder100xShards2(b *testing.B) { benchRungShards(b, "ladder/100x", 2) }
func BenchmarkLadder100xShards4(b *testing.B) { benchRungShards(b, "ladder/100x", 4) }

func BenchmarkStormWebSearchShards4(b *testing.B)  { benchRungShards(b, "storm/websearch", 4) }
func BenchmarkStormDataMiningShards4(b *testing.B) { benchRungShards(b, "storm/datamining", 4) }
