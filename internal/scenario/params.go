package scenario

import (
	"hwatch/internal/core"
	"hwatch/internal/sim"
)

// DumbbellParams is the shared shape of the paper's ns-2 scenarios
// (Sections II and V): long-lived background flows plus epochs of
// correlated short flows into one shared bottleneck.
type DumbbellParams struct {
	LongSources  int
	ShortSources int

	BottleneckBps int64
	EdgeBps       int64
	LinkDelay     int64 // per hop; base RTT = 4*LinkDelay
	BufferPkts    int
	MarkFrac      float64 // marking threshold as a fraction of the buffer

	ICW      int   // guests' initial window (0 = stack default 10)
	MinRTO   int64 // 0 = 200 ms
	Duration int64
	// DrainAfter extends the engine past Duration so in-flight flows can
	// finish after arrivals stop (open-loop workloads); metrics stay
	// normalized to Duration.
	DrainAfter int64
	// ByteBuffers switches the bottleneck to byte accounting (used by the
	// Fig. 8/9/11 scheme comparisons; Fig. 1/2 keep ns-2 packet counting).
	ByteBuffers bool

	ShortSize     int64 // bytes per short flow
	Epochs        int
	FirstEpoch    int64
	EpochInterval int64

	SampleEvery int64 // queue/utilization sampling period (0 = no telemetry)
	Seed        int64

	// Check enables the physical-invariant checker for this run (packet
	// conservation at the bottleneck, sequence monotonicity, window
	// floors); violations land in Run.InvariantViolations.
	Check bool

	// ShimTweak, when non-nil, adjusts the HWatch configuration after the
	// defaults are applied (ablation studies).
	ShimTweak func(*core.Config)
}

// PaperDumbbell returns the paper's Fig. 8 parameters: 10 Gb/s links,
// 100 us RTT, 250-packet buffer, marking at 20%, minRTO 200 ms, 6 epochs
// of 10 KB short flows over a 1 s run.
func PaperDumbbell(longN, shortN int) DumbbellParams {
	return DumbbellParams{
		LongSources:   longN,
		ShortSources:  shortN,
		BottleneckBps: 10e9,
		EdgeBps:       10e9,
		LinkDelay:     25 * sim.Microsecond, // 4 hops -> 100 us RTT
		BufferPkts:    250,
		MarkFrac:      0.20,
		Duration:      1 * sim.Second,
		ShortSize:     10_000,
		Epochs:        6,
		FirstEpoch:    100 * sim.Millisecond,
		EpochInterval: 150 * sim.Millisecond,
		SampleEvery:   100 * sim.Microsecond,
		Seed:          42,
	}
}

// TestbedParams reproduces the Section VI testbed: 4 racks of servers on
// 1 Gb/s links behind one spine, base RTT ~200 us. Rack 3 hosts the
// requesting clients; racks 0-2 host web servers and iperf sources. The
// shared bottleneck is the spine port toward rack 3.
type TestbedParams struct {
	Racks        int
	HostsPerRack int
	RateBps      int64
	LinkDelay    int64 // per hop (x4 hops cross-rack)
	BufferPkts   int   // per switch port
	MarkFrac     float64

	LongPerRack   int   // iperf flows per server rack (paper: 7, x2 dirs = 14)
	WebServers    int   // web servers per server rack (paper: 7)
	WebClients    int   // requesting clients on the client rack
	Parallel      int   // parallel connections per client-server pair
	ObjectSize    int64 // paper: 11.5 KB
	Epochs        int   // paper: 5
	FirstEpoch    int64
	EpochInterval int64

	Duration int64
	MinRTO   int64 // plain-TCP run (0 = 200 ms)
	// HWatchMinRTO is the guest minRTO under a shim-deploying scheme. The
	// paper's testbed section states HWatch ran with a 4 ms RTO; keep the
	// default 200 ms by setting this to MinRTO for an isolated comparison.
	HWatchMinRTO int64
	SampleEvery  int64
	Seed         int64

	// Check enables the physical-invariant checker for this run; findings
	// land in Run.InvariantViolations.
	Check bool

	// ShimTweak, when non-nil, adjusts the HWatch configuration after the
	// testbed's SYN-ACK pacing defaults are applied.
	ShimTweak func(*core.Config)
}

// PaperTestbed returns the paper's counts at a time-compressed scale: the
// same 42 long flows and 1260 web fetches per epoch x 5 epochs, with epoch
// spacing shrunk so the run fits in seconds of simulated time.
func PaperTestbed() TestbedParams {
	return TestbedParams{
		Racks:         4,
		HostsPerRack:  21,
		RateBps:       1e9,
		LinkDelay:     25 * sim.Microsecond, // 8 hops round trip -> 200 us
		BufferPkts:    100,
		MarkFrac:      0.20,
		LongPerRack:   14, // 42 total, as in 2 x 7 x 3
		WebServers:    7,
		WebClients:    6,
		Parallel:      10, // 7 x 6 x 3 x 10 = 1260 flows per epoch
		ObjectSize:    11_500,
		Epochs:        5,
		FirstEpoch:    200 * sim.Millisecond,
		EpochInterval: 400 * sim.Millisecond,
		Duration:      2400 * sim.Millisecond,
		HWatchMinRTO:  4 * sim.Millisecond, // paper Sec. VI: "RTO of 4ms"
		SampleEvery:   500 * sim.Microsecond,
		Seed:          7,
	}
}
