package workload

import (
	"hwatch/internal/netem"
	"hwatch/internal/sim"
	"hwatch/internal/tcp"
)

// PoissonConfig is the standard open-loop data-center load model: flows
// arrive as a Poisson process of ArrivalRate flows/second, each from a
// uniformly chosen source, with sizes drawn from Dist. Offered load on a
// bottleneck of rate C is ArrivalRate * Dist.Mean() * 8 / C.
type PoissonConfig struct {
	Port        uint16
	ArrivalRate float64 // flows per second
	Dist        SizeDist
	StartAt     int64
	StopAt      int64 // no new arrivals after this time
	Rng         *sim.RNG
}

// LoadFor returns the arrival rate achieving the given offered load (0..1)
// on a bottleneck of rateBps with the given size distribution.
func LoadFor(load float64, rateBps int64, dist SizeDist) float64 {
	return load * float64(rateBps) / 8 / dist.Mean()
}

// Poisson tracks open-loop generator progress.
type Poisson struct {
	Started   int
	Completed int
	Bytes     int64 // total bytes offered

	senders []*tcp.Sender
}

// Timeouts totals the RTO expiries of every flow started so far, finished
// or still open.
func (po *Poisson) Timeouts() int64 {
	var n int64
	for _, s := range po.senders {
		n += s.Stats().Timeouts
	}
	return n
}

// RunPoisson schedules the arrival process from srcs to dst. onDone
// (optional) fires per completed flow with (fct, size).
func RunPoisson(srcs []*netem.Host, dst netem.NodeID, tcfg tcp.Config, cfg PoissonConfig, onDone FlowDone) *Poisson {
	if cfg.Rng == nil {
		panic("workload: poisson needs an RNG")
	}
	if cfg.ArrivalRate <= 0 || cfg.Dist == nil {
		panic("workload: poisson needs a rate and a size distribution")
	}
	po := &Poisson{}
	eng := srcs[0].Eng
	meanGap := int64(float64(sim.Second) / cfg.ArrivalRate)

	var arrive func()
	arrive = func() {
		if eng.Now() >= cfg.StopAt {
			return
		}
		src := srcs[cfg.Rng.Intn(len(srcs))]
		size := cfg.Dist.Sample(cfg.Rng)
		po.Started++
		po.Bytes += size
		s := tcp.NewSender(src, dst, cfg.Port, size, tcfg)
		po.senders = append(po.senders, s)
		s.OnComplete = func(fct int64) {
			po.Completed++
			if onDone != nil {
				onDone(fct, size)
			}
		}
		s.Start()
		eng.Schedule(cfg.Rng.Exp(meanGap)+1, arrive)
	}
	eng.At(cfg.StartAt, func() { eng.Schedule(cfg.Rng.Exp(meanGap), arrive) })
	return po
}
