// Package scenario is the unified execution layer every experiment, CLI
// and example routes through: a string-keyed registry of congestion
// schemes (guest transport + bottleneck AQM + optional hypervisor shim
// deployment), a declarative Spec binding a topology kind, one or more
// schemes, a workload and observers into a single Run path, and a JSON
// loader for file-driven scenarios. New schemes register once and become
// available to cmd/hwatchsim -scheme, JSON specs and mixed-scheme
// tenancy without touching any figure code.
package scenario

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"hwatch/internal/core"
	"hwatch/internal/netem"
	"hwatch/internal/sim"
	"hwatch/internal/tcp"
)

// Scheme names a registered end-to-end system. The value is the
// registry key ("dctcp", "hwatch", ...); String renders the display
// label the figures print.
type Scheme string

// The paper's four schemes (Figs. 8-9).
const (
	DropTail Scheme = "droptail"
	RED      Scheme = "red"
	DCTCP    Scheme = "dctcp"
	HWatch   Scheme = "hwatch"
)

// Extension schemes registered out of the box.
const (
	CubicRED  Scheme = "cubic-red"
	DCTCPSack Scheme = "dctcp+sack"
	HWatchOvS Scheme = "hwatch-ovs"
	RenoECN   Scheme = "reno-ecn"
	RenoDeaf  Scheme = "reno-deaf"
)

func (s Scheme) String() string {
	if def, ok := Lookup(string(s)); ok {
		return def.Label
	}
	return string(s)
}

// AllSchemes lists the Fig. 8/9 comparison set in the paper's order.
func AllSchemes() []Scheme { return []Scheme{DropTail, RED, HWatch, DCTCP} }

// Env carries the fabric-level quantities a scheme definition may need:
// buffer and marking-threshold sizes, the bottleneck's mean packet
// service time, the topology's base RTT, guest overrides, the run's RNG
// and clock for randomized AQMs, and what shimConfig layers over the
// shim defaults.
type Env struct {
	BufferPkts  int
	MarkPkts    int
	MeanPktTime int64 // bottleneck service time of one MTU packet, ns
	BaseRTT     int64 // propagation-only round trip, ns
	ICW         int   // guest initial-window override (0 = stack default)
	MinRTO      int64 // guest minimum-RTO override (0 = stack default)
	ByteBuffers bool  // byte-accounted bottleneck buffers

	Rng   *sim.RNG     // randomized AQMs fork from here at queue build time
	Clock func() int64 // simulation clock (usable before the engine exists)

	// Hardened arms the shims' degradation fallbacks: the spec stages a
	// fault timeline.
	Hardened bool
	// FabricShim is the topology's own shim setting (the testbed's
	// SYN-ACK pacing); Shim, the spec's explicit one, is applied after it.
	FabricShim ShimParams
	Shim       ShimParams
}

// BufferBytes is the byte-accounted buffer capacity.
func (e Env) BufferBytes() int { return e.BufferPkts * netem.DefaultMTU }

// MarkBytes is the byte-accounted marking threshold.
func (e Env) MarkBytes() int { return e.MarkPkts * netem.DefaultMTU }

// Deployment installs a scheme's hypervisor shims on the scenario's
// hosts and returns them for stats aggregation. Hosts arrive in the
// topology's canonical order (dumbbell: senders then receiver;
// leaf-spine: rack by rack).
type Deployment func(hosts []*netem.Host) []*core.Shim

// Definition is one registered scheme: a display label plus factories
// for the guest stack, the bottleneck queue discipline and an optional
// shim deployment.
type Definition struct {
	// Name is the registry key ("dctcp"); lower-case, stable.
	Name string
	// Label is the display name figures print ("DCTCP").
	Label string
	// Description is the one-line summary -list-schemes prints.
	Description string
	// Guest returns the guest stack configuration (nil = stock NewReno).
	Guest func(Env) tcp.Config
	// Bottleneck returns the factory building the shared queue. Required.
	Bottleneck func(Env) func() netem.Queue
	// Shims, when non-nil, returns the hypervisor deployment for the
	// materialized guest configuration.
	Shims func(Env, tcp.Config) Deployment
	// SingleShard marks a scheme whose deployment shares mutable state
	// across every host from one engine (the OvS-style shared shim); such
	// schemes refuse to run on a sharded fabric.
	SingleShard bool
}

var (
	regMu    sync.RWMutex
	registry = map[string]Definition{}
)

// Register adds a scheme definition. It panics on an empty or duplicate
// name and on a missing bottleneck factory — registration mistakes are
// programming errors, caught at init time.
func Register(def Definition) {
	if def.Name == "" {
		panic("scenario: Register needs a name")
	}
	if def.Bottleneck == nil {
		panic("scenario: scheme " + def.Name + " needs a bottleneck factory")
	}
	if def.Label == "" {
		def.Label = def.Name
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[def.Name]; dup {
		panic("scenario: scheme " + def.Name + " registered twice")
	}
	registry[def.Name] = def
}

// Lookup returns the definition registered under name.
func Lookup(name string) (Definition, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	def, ok := registry[name]
	return def, ok
}

// LookupSchemes resolves scheme names, ignoring case and surrounding
// space; an unknown name errors, listing the registered ones.
func LookupSchemes(names []string) ([]Scheme, error) {
	set := make([]Scheme, 0, len(names))
	for _, raw := range names {
		name := strings.ToLower(strings.TrimSpace(raw))
		if _, ok := Lookup(name); !ok {
			return nil, fmt.Errorf("unknown scheme %q: registered schemes are %s",
				name, strings.Join(Names(), ", "))
		}
		set = append(set, Scheme(name))
	}
	return set, nil
}

// Names lists every registered scheme name, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Definitions lists every registered scheme, sorted by name.
func Definitions() []Definition {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Definition, 0, len(registry))
	for _, d := range registry {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Materialized is a scheme bound to one scenario's Env: the concrete
// guest configuration (ICW/MinRTO overrides applied), the bottleneck
// factory, and the shim deployment (nil for shimless schemes).
type Materialized struct {
	Name        string
	Label       string
	TCPConfig   tcp.Config
	BottleneckQ func() netem.Queue
	Attach      Deployment
}

// Materialize binds a scheme name to an Env. Unknown names error,
// listing the registry's valid names.
func Materialize(s Scheme, env Env) (Materialized, error) {
	def, ok := Lookup(string(s))
	if !ok {
		return Materialized{}, fmt.Errorf("unknown scheme %q: registered schemes are %s",
			string(s), strings.Join(Names(), ", "))
	}
	tcfg := tcp.DefaultConfig()
	if def.Guest != nil {
		tcfg = def.Guest(env)
	}
	if env.ICW > 0 {
		tcfg.InitCwnd = env.ICW
	}
	if env.MinRTO > 0 {
		tcfg.MinRTO = env.MinRTO
		tcfg.InitRTO = env.MinRTO
	}
	m := Materialized{
		Name:        def.Name,
		Label:       def.Label,
		TCPConfig:   tcfg,
		BottleneckQ: def.Bottleneck(env),
	}
	if def.Shims != nil {
		m.Attach = def.Shims(env, tcfg)
	}
	return m, nil
}
