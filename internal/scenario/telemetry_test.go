package scenario_test

import (
	"bytes"
	"context"
	"encoding/json"
	"slices"
	"testing"

	"hwatch/internal/scenario"
	"hwatch/internal/server"
	"hwatch/internal/sim"
	"hwatch/internal/stats"
)

// telemetrySpec is a small HWatch dumbbell run for duration (no drain).
func telemetrySpec(duration int64) *scenario.Spec {
	p := scenario.PaperDumbbell(2, 2)
	p.ByteBuffers = true
	p.Duration = duration
	p.Epochs = 1
	p.FirstEpoch = duration / 2
	return &scenario.Spec{
		Kind:     scenario.KindDumbbell,
		Schemes:  []scenario.Share{{Scheme: scenario.HWatch}},
		Dumbbell: p,
	}
}

// TestTelemetrySharesOneAxis pins the bottleneck telemetry's layout: the
// queue-packet, queue-byte and utilization series are windows of one
// sample axis, each with cap == len, so an append to one copies instead
// of writing into another, and sharing the axis changes neither the wire
// encoding nor the digest.
func TestTelemetrySharesOneAxis(t *testing.T) {
	run, err := telemetrySpec(20 * sim.Millisecond).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	series := func(r *scenario.Run) []*stats.TimeSeries {
		return []*stats.TimeSeries{&r.QueuePkts, &r.QueueBytes, &r.Utilization}
	}
	q, b, u := run.QueuePkts.T, run.QueueBytes.T, run.Utilization.T
	if len(q) < 3 || len(b) != len(q) || len(u) != len(q)-1 {
		t.Fatalf("series lengths %d, %d, %d: want n, n, n-1 with n >= 3", len(q), len(b), len(u))
	}
	if &b[0] != &q[0] || &u[0] != &q[1] {
		t.Fatal("the three time axes are not windows of one array")
	}
	for k, ts := range series(run) {
		if cap(ts.T) != len(ts.T) || len(ts.V) != len(ts.T) {
			t.Errorf("series %d: len(T) %d, cap(T) %d, len(V) %d", k, len(ts.T), cap(ts.T), len(ts.V))
		}
	}
	for i := 1; i < len(q); i++ {
		if q[i] <= q[i-1] {
			t.Fatalf("axis not strictly increasing at %d: %d then %d", i, q[i-1], q[i])
		}
	}

	// The same run with every axis its own array encodes identically.
	want, err := json.Marshal(server.WireRun(run))
	if err != nil {
		t.Fatal(err)
	}
	copied := *run
	for _, ts := range series(&copied) {
		ts.T = slices.Clone(ts.T)
	}
	got, err := json.Marshal(server.WireRun(&copied))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("wire encoding differs once the axes are copied:\n shared %s\n copied %s", want, got)
	}

	for k := range 3 {
		victim := *run
		before := make([]stats.TimeSeries, 3)
		for j, ts := range series(&victim) {
			before[j] = stats.TimeSeries{T: slices.Clone(ts.T), V: slices.Clone(ts.V)}
		}
		ts := series(&victim)[k]
		ts.T = append(ts.T, 1<<62)
		ts.V = append(ts.V, 1)
		for j, other := range series(&victim) {
			if j != k && (!slices.Equal(other.T, before[j].T) || !slices.Equal(other.V, before[j].V)) {
				t.Errorf("appending to series %d changed series %d", k, j)
			}
		}
	}

	// A horizon shorter than one sampling period takes the single sample
	// at 0: no utilization window, and the digest the per-series layout
	// gave.
	short, err := telemetrySpec(50 * sim.Microsecond).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(short.QueuePkts.T) != 1 || len(short.Utilization.T) != 0 || len(short.Utilization.V) != 0 {
		t.Fatalf("short run: %d queue samples, %d utilization samples; want 1 and 0",
			len(short.QueuePkts.T), len(short.Utilization.T))
	}
	if got, want := short.DigestHex(), "617d34a7d6486666"; got != want {
		t.Errorf("short run digest %s, want %s", got, want)
	}
}
