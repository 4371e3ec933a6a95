package workload

import (
	"math"
	"testing"
	"testing/quick"

	"hwatch/internal/sim"
	"hwatch/internal/tcp"
)

func sampleMany(d SizeDist, n int, seed int64) []int64 {
	rng := sim.NewRNG(seed)
	out := make([]int64, n)
	for i := range out {
		out[i] = d.Sample(rng)
	}
	return out
}

func empiricalMean(v []int64) float64 {
	var sum float64
	for _, x := range v {
		sum += float64(x)
	}
	return sum / float64(len(v))
}

// constant always returns the same size: the flat law the load and
// Poisson tests reason with.
type constant int64

func (c constant) Sample(*sim.RNG) int64 { return int64(c) }
func (c constant) Mean() float64         { return float64(c) }

func TestEmpiricalDistributions(t *testing.T) {
	for name, d := range map[string]Empirical{
		"websearch":  WebSearch(),
		"datamining": DataMining(),
	} {
		vs := sampleMany(d, 100000, 4)
		max := d.Size[len(d.Size)-1]
		small := 0
		for _, v := range vs {
			if v <= 0 || v > max {
				t.Fatalf("%s: sample %d out of range", name, v)
			}
			if v <= 10_000 {
				small++
			}
		}
		// Both traces are dominated by small flows (the paper's premise:
		// 80-95% of flows are small).
		frac := float64(small) / float64(len(vs))
		if name == "datamining" && frac < 0.7 {
			t.Fatalf("%s: small-flow fraction %.2f too low", name, frac)
		}
		m := empiricalMean(vs)
		want := d.Mean()
		if m < 0.8*want || m > 1.2*want {
			t.Fatalf("%s: empirical mean %.0f vs knot mean %.0f", name, m, want)
		}
	}
}

// Property: empirical sampling is monotone in the uniform draw (inverse
// CDF) and respects knot bounds.
func TestPropertyEmpiricalBounds(t *testing.T) {
	d := WebSearch()
	f := func(seed int64) bool {
		rng := sim.NewRNG(seed)
		v := d.Sample(rng)
		return v > 0 && v <= d.Size[len(d.Size)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadFor(t *testing.T) {
	d := constant(12500) // 100 kbit flows
	// 50% of 1 Gb/s = 5e8 bit/s => 5000 flows/s.
	rate := LoadFor(0.5, 1e9, d)
	if math.Abs(rate-5000) > 1 {
		t.Fatalf("LoadFor = %f", rate)
	}
}

func TestRunPoisson(t *testing.T) {
	d := smallDumbbell(8)
	tcfg := tcp.DefaultConfig()
	d.Receiver.Listen(port, tcp.NewListener(d.Receiver, tcfg, nil))
	dist := WebSearch()
	var fcts int
	po := RunPoisson(d.Senders, d.Receiver.ID, tcfg, PoissonConfig{
		Port:        port,
		ArrivalRate: LoadFor(0.3, 10e9, dist), // 30% load on the 10G bottleneck
		Dist:        dist,
		StartAt:     0,
		StopAt:      100 * sim.Millisecond,
		Rng:         sim.NewRNG(5),
	}, func(fct, size int64) {
		fcts++
		if size <= 0 {
			t.Error("bad size in callback")
		}
	})
	d.Net.Eng.RunUntil(10 * sim.Second)
	if po.Started < 10 {
		t.Fatalf("only %d arrivals in 100ms at 30%% load", po.Started)
	}
	if po.Completed < po.Started*9/10 {
		t.Fatalf("completed %d of %d", po.Completed, po.Started)
	}
	if fcts != po.Completed {
		t.Fatalf("callback count %d != completed %d", fcts, po.Completed)
	}
	// Arrival count sanity: rate*0.1s within a loose factor.
	expect := LoadFor(0.3, 10e9, dist) * 0.1
	if float64(po.Started) < expect/2 || float64(po.Started) > expect*2 {
		t.Fatalf("arrivals %d vs expected ~%.0f", po.Started, expect)
	}
}

func TestPoissonValidation(t *testing.T) {
	d := smallDumbbell(1)
	for name, fn := range map[string]func(){
		"no rng": func() {
			RunPoisson(d.Senders, d.Receiver.ID, tcp.DefaultConfig(), PoissonConfig{ArrivalRate: 1, Dist: constant(1)}, nil)
		},
		"no rate": func() {
			RunPoisson(d.Senders, d.Receiver.ID, tcp.DefaultConfig(), PoissonConfig{Rng: sim.NewRNG(1), Dist: constant(1)}, nil)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
