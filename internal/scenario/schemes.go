package scenario

import (
	"hwatch/internal/aqm"
	"hwatch/internal/core"
	"hwatch/internal/netem"
	"hwatch/internal/tcp"
)

// The built-in registry: the paper's four systems plus the extension
// schemes the transport-agnosticism studies use.

func init() {
	Register(Definition{
		Name:        string(DropTail),
		Label:       "TCP-DropTail",
		Description: "stock NewReno guests over plain DropTail buffers",
		Bottleneck:  dropTailQueue,
	})
	Register(Definition{
		Name:        string(RED),
		Label:       "TCP-RED",
		Description: "ECN-responsive NewReno over RED (Floyd parameters)",
		Guest:       ecnRenoGuest,
		Bottleneck:  redQueue,
	})
	Register(Definition{
		Name:        string(DCTCP),
		Label:       "DCTCP",
		Description: "DCTCP guests over instantaneous-threshold marking",
		Guest:       func(Env) tcp.Config { return tcp.DCTCPConfig() },
		Bottleneck:  markThresholdQueue,
	})
	Register(Definition{
		Name:        string(HWatch),
		Label:       "TCP-HWATCH",
		Description: "stock (non-ECN) NewReno guests + one HWatch shim per host over threshold marking",
		Bottleneck:  markThresholdQueue,
		Shims:       perHostShims,
	})
	Register(Definition{
		Name:        string(HWatchOvS),
		Label:       "TCP-HWATCH/OVS",
		Description: "HWatch as one shared OvS-style flow table and pacer for every host",
		Bottleneck:  markThresholdQueue,
		Shims:       sharedShim,
		SingleShard: true,
	})
	Register(Definition{
		Name:        string(CubicRED),
		Label:       "Cubic-RED",
		Description: "ECN-responsive Cubic guests over RED",
		Guest: func(Env) tcp.Config {
			c := tcp.CubicConfig()
			c.ECN = true
			c.ECNResponsive = true
			return c
		},
		Bottleneck: redQueue,
	})
	Register(Definition{
		Name:        string(DCTCPSack),
		Label:       "DCTCP-SACK",
		Description: "DCTCP guests with SACK recovery over threshold marking",
		Guest: func(Env) tcp.Config {
			c := tcp.DCTCPConfig()
			c.SACK = true
			return c
		},
		Bottleneck: markThresholdQueue,
	})
	Register(Definition{
		Name:        string(RenoECN),
		Label:       "TCP-ECN",
		Description: "ECN-responsive NewReno over threshold marking (the MIX's cooperative tenant)",
		Guest:       ecnRenoGuest,
		Bottleneck:  markThresholdQueue,
	})
	Register(Definition{
		Name:        string(RenoDeaf),
		Label:       "TCP-Deaf",
		Description: "ECN-capable but non-responsive NewReno over threshold marking (the MIX's rogue tenant)",
		Guest: func(Env) tcp.Config {
			c := tcp.DefaultConfig()
			c.ECN = true
			c.ECNResponsive = false
			return c
		},
		Bottleneck: markThresholdQueue,
	})
}

func ecnRenoGuest(Env) tcp.Config {
	c := tcp.DefaultConfig()
	c.ECN = true
	c.ECNResponsive = true
	return c
}

func dropTailQueue(e Env) func() netem.Queue {
	return func() netem.Queue {
		if e.ByteBuffers {
			return aqm.NewDropTailBytes(e.BufferBytes())
		}
		return aqm.NewDropTail(e.BufferPkts)
	}
}

func redQueue(e Env) func() netem.Queue {
	return func() netem.Queue {
		var cfg aqm.REDConfig
		if e.ByteBuffers {
			cfg = aqm.DefaultREDBytes(e.BufferBytes(), true, e.MeanPktTime, e.Clock)
		} else {
			cfg = aqm.DefaultRED(e.BufferPkts, true, e.MeanPktTime, e.Clock)
		}
		return aqm.NewRED(cfg, e.Rng.Fork().Float64)
	}
}

func markThresholdQueue(e Env) func() netem.Queue {
	return func() netem.Queue {
		if e.ByteBuffers {
			return aqm.NewMarkThresholdBytes(e.BufferBytes(), e.MarkBytes())
		}
		return aqm.NewMarkThreshold(e.BufferPkts, e.MarkPkts)
	}
}

// shimConfig builds the HWatch configuration a deployment installs, the
// one place a shim is configured: the paper's defaults for the fabric's
// base RTT, the guest's MSS and initial window, the fault hardening, the
// topology's own setting, and last the spec's, so explicit settings win.
func shimConfig(e Env, guest tcp.Config) core.Config {
	cfg := core.DefaultConfig(e.BaseRTT)
	cfg.MSS = guest.MSS
	cfg.DefaultICW = guest.InitCwnd
	if e.Hardened {
		// A chaos-tested deployment must not clamp on a signal path that
		// faults can sever.
		cfg.ProbeLossFallback = true
		cfg.EcnDarkEpochs = 8
	}
	e.FabricShim.apply(&cfg)
	e.Shim.apply(&cfg)
	return cfg
}

// perHostShims is the paper's deployment: one shim per hypervisor.
func perHostShims(e Env, guest tcp.Config) Deployment {
	cfg := shimConfig(e, guest)
	return func(hosts []*netem.Host) []*core.Shim {
		out := make([]*core.Shim, 0, len(hosts))
		for _, h := range hosts {
			out = append(out, core.Attach(h, cfg))
		}
		return out
	}
}

// sharedShim is the OvS-style deployment: one flow table and SYN-ACK
// pacer shared by every host (the NewShim/AttachHost path; both ends of
// an intra-deployment flow coexist in the shared table).
func sharedShim(e Env, guest tcp.Config) Deployment {
	cfg := shimConfig(e, guest)
	return func(hosts []*netem.Host) []*core.Shim {
		if len(hosts) == 0 {
			return nil
		}
		sh := core.NewShim(hosts[0].Eng, cfg, 0)
		for _, h := range hosts {
			sh.AttachHost(h)
		}
		return []*core.Shim{sh}
	}
}
