package scenario

import (
	"math"
	"testing"

	"hwatch/internal/stats"
)

// FuzzParseSpec: arbitrary bytes must never panic the spec parser, and an
// accepted spec must produce runnable parameters.
func FuzzParseSpec(f *testing.F) {
	f.Add([]byte(`{"kind":"dumbbell","scheme":"hwatch"}`))
	f.Add([]byte(`{"kind":"testbed","scheme":"hwatch","racks":2}`))
	f.Add([]byte(`{"kind":"dumbbell","mix":[{"scheme":"dctcp"},{"scheme":"reno-deaf","share":2}]}`))
	f.Add([]byte(`{"kind":"ring"}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`{"kind":"dumbbell","scheme":"dctcp","mark_percent":1e300}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := ParseSpec(raw)
		if err != nil {
			return
		}
		// Accepted specs must yield internally consistent parameters
		// without panicking.
		switch s.Kind {
		case "dumbbell":
			p := s.dumbbellParams()
			if p.LongSources <= 0 || p.BufferPkts <= 0 || p.Duration <= 0 {
				t.Fatalf("accepted spec produced bad params: %+v", p)
			}
		case "testbed":
			p := s.testbedParams()
			if p.Racks <= 0 || p.HostsPerRack <= 0 {
				t.Fatalf("accepted spec produced bad params: %+v", p)
			}
			if p.WebServers > p.HostsPerRack || p.WebClients > p.HostsPerRack {
				t.Fatalf("rack roles exceed rack size: %+v", p)
			}
		}
	})
}

// FuzzRunDigests: Digests over runs built from the input gives every run
// the digest it has alone, whatever the run count and however the runs'
// series lengths match or differ, so folding runs side by side never
// changes a value.
func FuzzRunDigests(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		runs := fuzzRuns(data)
		got := Digests(runs...)
		if len(got) != len(runs) {
			t.Fatalf("Digests of %d runs returned %d digests", len(runs), len(got))
		}
		for i, r := range runs {
			if want := r.Digest(); got[i] != want {
				t.Fatalf("run %d of %d: Digests %016x, alone %016x", i, len(runs), got[i], want)
			}
		}
	})
}

// fuzzRuns builds up to 9 runs from data, read as a stream of bytes that
// repeats, zero-filled when empty: per run a label, two samples, three
// bottleneck series whose lengths (0–3) often match the other runs', and
// the totals. Values are words of 8 bytes, so every bit pattern, NaNs and
// -0 included, can appear.
func fuzzRuns(data []byte) []*Run {
	pos := 0
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[pos%len(data)]
		pos++
		return b
	}
	word := func() uint64 {
		var w uint64
		for i := 0; i < 64; i += 8 {
			w |= uint64(next()) << i
		}
		return w
	}
	float := func() float64 { return math.Float64frombits(word()) }
	runs := make([]*Run, int(next())%10)
	for i := range runs {
		label := make([]byte, next()%4)
		for k := range label {
			label[k] = next()
		}
		r := &Run{Label: string(label), LongFairness: float()}
		for n := next() % 3; n > 0; n-- {
			r.ShortFCTms.Add(float())
			r.LongGoodputBps.Add(float())
		}
		for _, s := range []*stats.TimeSeries{&r.QueuePkts, &r.QueueBytes, &r.Utilization} {
			n := int(next() % 4)
			s.T, s.V = make([]int64, n), make([]float64, n)
			for k := range s.T {
				s.T[k], s.V[k] = int64(word()), float()
			}
		}
		r.Drops, r.Marks, r.Timeouts = int64(word()), int64(word()), int64(word())
		r.ShortDone, r.ShortAll = int(next()), int(next())
		runs[i] = r
	}
	return runs
}
