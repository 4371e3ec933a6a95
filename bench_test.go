package hwatch

// One benchmark per data figure in the paper's evaluation. Each iteration
// regenerates the figure's scenario at a reduced scale (so -bench runs in
// minutes, not hours) and reports the figure's headline quantity as a
// custom metric next to the usual ns/op. Full-scale regeneration is
// `go run ./cmd/figgen`.

import (
	"context"
	"testing"

	"hwatch/internal/sim"
)

const benchScale = 0.2

// benchFig regenerates one figure of the table and returns its runs keyed
// by the table's curve keys.
func benchFig(b *testing.B, name string, scale float64) map[string]*Run {
	b.Helper()
	for _, f := range Figures() {
		if f.Name != name {
			continue
		}
		runs, err := f.Run(context.Background(), scale)
		if err != nil {
			b.Fatal(err)
		}
		out := map[string]*Run{}
		for i, k := range f.Keys {
			out[k] = runs[i]
		}
		return out
	}
	b.Fatalf("no figure %q in the table", name)
	return nil
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

// benchRung runs one registered scale-ladder rung at full scale per
// iteration. The rungs are the standing scalability gate for the flat
// flow-state work: each reports its completion count and mean short FCT so
// BENCH_LADDER records track the whole trajectory, not just wall time.
func benchRung(b *testing.B, name string, scale float64) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		run, err := RunRung(context.Background(), name, scale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(run.ShortDone), "flows-done")
		if run.ShortFCTms.N() > 0 {
			b.ReportMetric(run.ShortFCTms.Mean(), "fct-ms")
		}
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

// BenchmarkLadder10xShards4 is the rung cheap enough for CI's wall-clock
// budget, so the bench-ladder job tracks the shard dimension on every push.
func BenchmarkLadder10xShards4(b *testing.B) { benchRungShards(b, "ladder/10x", 4) }

func BenchmarkLadder100xShards2(b *testing.B) { benchRungShards(b, "ladder/100x", 2) }
func BenchmarkLadder100xShards4(b *testing.B) { benchRungShards(b, "ladder/100x", 4) }

func BenchmarkStormWebSearchShards4(b *testing.B)  { benchRungShards(b, "storm/websearch", 4) }
func BenchmarkStormDataMiningShards4(b *testing.B) { benchRungShards(b, "storm/datamining", 4) }

// BenchmarkSchemeHWatch times a single HWatch dumbbell run: the end-to-end
// cost of the simulator + shim datapath (events/sec throughput proxy).
func BenchmarkSchemeHWatch(b *testing.B) {
	p := PaperDumbbell(5, 5)
	p.Duration = 100 * sim.Millisecond
	p.Epochs = 1
	p.FirstEpoch = 20 * sim.Millisecond
	p.ByteBuffers = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunDumbbell(context.Background(), HWatch, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchemeDCTCP is the no-shim baseline of the same scenario, so the
// shim's datapath overhead is the difference between the two benchmarks.
func BenchmarkSchemeDCTCP(b *testing.B) {
	p := PaperDumbbell(5, 5)
	p.Duration = 100 * sim.Millisecond
	p.Epochs = 1
	p.FirstEpoch = 20 * sim.Millisecond
	p.ByteBuffers = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunDumbbell(context.Background(), DCTCP, p); err != nil {
			b.Fatal(err)
		}
	}
}
