// Package faults stages deterministic, engine-scheduled fault timelines
// against an assembled scenario: link failures, ECN-stripping legacy hops,
// hypervisor-shim crashes, probe blackouts, Gilbert–Elliott burst-loss
// windows, and the full netem impairment matrix — corruption, duplication,
// reordering, jitter and rate limiting — the deployment hazards the HWatch
// papers assume away. Every event fires at a fixed simulation time from
// the run's own engine, and every random draw comes from the run's seeded
// RNG, so a fault schedule is part of the determinism contract: same seed
// + spec + schedule ⇒ the same digest, run after run.
//
// A Schedule is pure data; Arm binds it to a Fabric (the named ports,
// switches, shims and hosts of a built topology) and queues the events.
// Events can recur (Recurrence wraps any kind into interval + duration
// windows with jittered starts) and can draw random targets per
// occurrence (Pick selects k of the fabric's links or shims) — the chaos
// shapes a production tool like Pumba runs. All recurrence expansion and
// target selection happens at Arm time, during sequential setup, so the
// armed event set is a pure function of seed + schedule + fabric and
// never of the shard partition. The scenario layer assembles the Fabric
// and exposes schedules through scenario.Spec.Faults and JSON spec files.
package faults

import (
	"fmt"
	"sort"
	"strings"

	"hwatch/internal/core"
	"hwatch/internal/netem"
	"hwatch/internal/sim"
)

// Kind names a fault type. The string values are what JSON spec files use.
type Kind string

const (
	// LinkDown fails a link at At: packets offered to it are lost, queued
	// packets hold until a LinkUp restores it.
	LinkDown Kind = "link-down"
	// LinkUp restores a failed link at At.
	LinkUp Kind = "link-up"
	// ECNBlackhole turns a switch into a legacy non-ECN hop for [At,Until):
	// every port strips CE/ECT before its AQM, so marking degrades to
	// dropping and upstream marks never arrive.
	ECNBlackhole Kind = "ecn-blackhole"
	// ProbeBlackout makes a link eat probe packets only for [At,Until) —
	// an ACL or middlebox discarding the shim's raw-IP probes.
	ProbeBlackout Kind = "probe-blackout"
	// ShimCrash kills hypervisor shims at At: flow tables wiped, clamps
	// released, traffic passes through unwatched.
	ShimCrash Kind = "shim-crash"
	// ShimRestart brings crashed shims back (cold tables) at At.
	ShimRestart Kind = "shim-restart"
	// BurstLoss runs a link through a Gilbert–Elliott burst-loss channel
	// for [At,Until); GE parameterizes the channel.
	BurstLoss Kind = "burst-loss"
	// Corrupt bit-flips packets on a link for [At,Until) with per-packet
	// probability Impair.Prob, leaving the checksum stale; Impair.DropFrac
	// of flipped packets are dropped at the port like FCS-failing frames.
	// Arming any corrupt event turns on checksum verification at every
	// fabric host, so surviving flips are discarded at the receiver.
	Corrupt Kind = "corrupt"
	// Duplicate clones packets on a link for [At,Until) with probability
	// Impair.Prob, injecting Impair.Copies bounded copies behind the
	// original.
	Duplicate Kind = "duplicate"
	// Reorder parks packets on a link for [At,Until) with probability
	// Impair.Prob, releasing each after a uniformly drawn hold in
	// (0, Impair.Hold], so later packets overtake.
	Reorder Kind = "reorder"
	// Jitter delays every packet on a link for [At,Until) by a draw from
	// a pluggable distribution (Impair.Dist: uniform, normal, pareto).
	Jitter Kind = "jitter"
	// RateLimit shapes a link to Impair.RateBps through a token bucket of
	// Impair.Burst bytes for [At,Until); always egress.
	RateLimit Kind = "rate-limit"
)

// Kinds lists every fault kind, for error messages and docs.
func Kinds() []Kind {
	return []Kind{LinkDown, LinkUp, ECNBlackhole, ProbeBlackout, ShimCrash, ShimRestart,
		BurstLoss, Corrupt, Duplicate, Reorder, Jitter, RateLimit}
}

// KindInfo describes one fault kind for operator-facing listings
// (hwatchsim -list-faults).
type KindInfo struct {
	Kind     Kind
	Windowed bool
	Doc      string
}

// Infos returns every fault kind with a one-line doc, in Kinds() order.
func Infos() []KindInfo {
	return []KindInfo{
		{LinkDown, false, "fail a link: offered packets lost, queue holds until link-up"},
		{LinkUp, false, "restore a failed link"},
		{ECNBlackhole, true, "switch strips CE/ECT before its AQMs (legacy non-ECN hop)"},
		{ProbeBlackout, true, "link eats shim probe packets only (ACL/middlebox)"},
		{ShimCrash, false, "kill hypervisor shims: tables wiped, clamps released"},
		{ShimRestart, false, "restart crashed shims with cold tables"},
		{BurstLoss, true, "Gilbert-Elliott burst-loss channel on a link (ge params)"},
		{Corrupt, true, "bit-flip packets (prob), checksum left stale; drop_frac dropped at port"},
		{Duplicate, true, "clone packets (prob) into `copies` bounded duplicates"},
		{Reorder, true, "hold packets (prob) up to hold_us so later ones overtake"},
		{Jitter, true, "per-packet delay from dist=uniform|normal|pareto (delay_us/jitter_us)"},
		{RateLimit, true, "token-bucket shape a link to rate_mbps with burst_kb"},
	}
}

// ImpairParams carries the knobs of the impairment kinds (Corrupt,
// Duplicate, Reorder, Jitter, RateLimit). Unused fields are ignored by
// the other kinds.
type ImpairParams struct {
	Prob     float64 // per-packet probability (corrupt, duplicate, reorder)
	DropFrac float64 // corrupt: fraction of flipped packets dropped at the port
	Copies   int     // duplicate: copies per selected packet (0 = 1, max 4)
	Hold     int64   // reorder: max hold, ns (0 = 100µs)
	Dist     string  // jitter: "uniform" (default), "normal", "pareto"
	Delay    int64   // jitter: distribution center / pareto scale, ns
	Jitter   int64   // jitter: spread (uniform half-width, normal sigma), ns
	Shape    float64 // jitter: pareto shape (0 = 1.5)
	RateBps  int64   // rate-limit: token-bucket rate, bits/s
	Burst    int     // rate-limit: bucket size, bytes (0 = two MTUs)
	Egress   bool    // attach on the wire side instead of ahead of the queue
}

// dist builds the jitter delay distribution the params describe.
// Validate has already vetted the fields.
func (p ImpairParams) dist() netem.DelayDist {
	switch p.Dist {
	case "", "uniform":
		lo := p.Delay - p.Jitter
		if lo < 0 {
			lo = 0
		}
		return netem.UniformDelay{Lo: lo, Hi: p.Delay + p.Jitter}
	case "normal":
		return netem.NormalDelay{Mean: p.Delay, Sigma: p.Jitter}
	case "pareto":
		shape := p.Shape
		if shape == 0 {
			shape = 1.5
		}
		max := p.Delay + 8*p.Jitter
		if p.Jitter == 0 {
			max = 4 * p.Delay
		}
		return netem.ParetoDelay{Shape: shape, Scale: p.Delay, Max: max}
	}
	panic("faults: unvalidated jitter dist " + p.Dist)
}

func (p ImpairParams) validate(kind Kind) error {
	switch kind {
	case Corrupt:
		if !(p.Prob > 0 && p.Prob <= 1) {
			return fmt.Errorf("prob = %v outside (0, 1]", p.Prob)
		}
		if !(p.DropFrac >= 0 && p.DropFrac <= 1) {
			return fmt.Errorf("drop_frac = %v outside [0, 1]", p.DropFrac)
		}
	case Duplicate:
		if !(p.Prob > 0 && p.Prob <= 1) {
			return fmt.Errorf("prob = %v outside (0, 1]", p.Prob)
		}
		if p.Copies < 0 || p.Copies > 4 {
			return fmt.Errorf("copies = %d outside [0, 4]", p.Copies)
		}
	case Reorder:
		if !(p.Prob > 0 && p.Prob <= 1) {
			return fmt.Errorf("prob = %v outside (0, 1]", p.Prob)
		}
		if p.Hold < 0 {
			return fmt.Errorf("hold = %d negative", p.Hold)
		}
	case Jitter:
		switch p.Dist {
		case "", "uniform", "normal", "pareto":
		default:
			return fmt.Errorf("unknown dist %q (dists: uniform, normal, pareto)", p.Dist)
		}
		if p.Delay < 0 || p.Jitter < 0 {
			return fmt.Errorf("delay/jitter must be non-negative (delay=%d jitter=%d)", p.Delay, p.Jitter)
		}
		if p.Delay+p.Jitter == 0 {
			return fmt.Errorf("delay and jitter both zero")
		}
		if p.Dist == "pareto" && p.Delay <= 0 {
			return fmt.Errorf("pareto needs delay > 0 (the scale / minimum)")
		}
		if p.Shape < 0 {
			return fmt.Errorf("shape = %v negative", p.Shape)
		}
	case RateLimit:
		if p.RateBps <= 0 {
			return fmt.Errorf("rate = %d bps not positive", p.RateBps)
		}
		if p.Burst < 0 {
			return fmt.Errorf("burst = %d negative", p.Burst)
		}
	}
	return nil
}

// Recurrence repeats an event Count times: occurrence i becomes active at
// At + i*Interval (+ a uniform [0, Jitter] draw per occurrence) and stays
// active for Duration. Point kinds pair up — LinkDown restores the link
// and ShimCrash restarts the shims after Duration — so a recurring flap
// needs no matching restore events. Until must be left zero; Duration
// replaces it.
type Recurrence struct {
	Interval int64 // start-to-start spacing, ns
	Duration int64 // each occurrence's active window, ns
	Jitter   int64 // uniform extra start offset, [0, Jitter] ns
	Count    int   // number of occurrences
}

func (r Recurrence) validate() error {
	if r.Count < 1 {
		return fmt.Errorf("count = %d, need >= 1", r.Count)
	}
	if r.Duration <= 0 {
		return fmt.Errorf("duration = %d, need > 0", r.Duration)
	}
	if r.Jitter < 0 {
		return fmt.Errorf("jitter = %d negative", r.Jitter)
	}
	if r.Count > 1 {
		if r.Interval <= 0 {
			return fmt.Errorf("interval = %d, need > 0 when count > 1", r.Interval)
		}
		if r.Duration+r.Jitter > r.Interval {
			return fmt.Errorf("duration %d + jitter %d exceed interval %d: occurrences would overlap",
				r.Duration, r.Jitter, r.Interval)
		}
	}
	return nil
}

// Event is one entry of a fault timeline. Times are simulation
// nanoseconds; Until bounds the windowed kinds and is ignored by the
// point kinds. Target names a Fabric link, switch or shim ("" selects the
// Fabric's default — the bottleneck, the core switch, every shim). Recur,
// if set, repeats the event; Pick > 0 draws that many random targets
// (links for link kinds, shims for shim kinds) per occurrence instead of
// using Target.
type Event struct {
	Kind   Kind
	At     int64
	Until  int64
	Target string
	GE     netem.GEParams
	Impair ImpairParams
	Recur  *Recurrence
	Pick   int
}

// Windowed reports whether the kind covers an [At,Until) interval.
func (e Event) Windowed() bool {
	switch e.Kind {
	case ECNBlackhole, ProbeBlackout, BurstLoss, Corrupt, Duplicate, Reorder, Jitter, RateLimit:
		return true
	}
	return false
}

// restoreKind reports kinds that undo a fault; they cannot recur or pick
// random targets (the matching fault already names its victims).
func restoreKind(k Kind) bool { return k == LinkUp || k == ShimRestart }

func (e Event) String() string {
	tgt := e.Target
	if tgt == "" {
		tgt = "default"
	}
	if e.Pick > 0 {
		tgt = fmt.Sprintf("pick:%d", e.Pick)
	}
	var s string
	switch {
	case e.Recur != nil:
		s = fmt.Sprintf("%s %s at %s x%d every %s for %s", e.Kind, tgt, fmtNs(e.At),
			e.Recur.Count, fmtNs(e.Recur.Interval), fmtNs(e.Recur.Duration))
	case e.Windowed():
		s = fmt.Sprintf("%s %s [%s, %s)", e.Kind, tgt, fmtNs(e.At), fmtNs(e.Until))
	default:
		s = fmt.Sprintf("%s %s at %s", e.Kind, tgt, fmtNs(e.At))
	}
	return s
}

func fmtNs(ns int64) string {
	return fmt.Sprintf("%.3fms", float64(ns)/float64(sim.Millisecond))
}

// Schedule is an ordered fault timeline (events may share instants; they
// fire in slice order, matching the engine's FIFO-within-instant rule).
type Schedule []Event

// Validate rejects schedules the injector could not arm deterministically.
func (s Schedule) Validate() error {
	known := map[Kind]bool{}
	for _, k := range Kinds() {
		known[k] = true
	}
	for i, e := range s {
		if !known[e.Kind] {
			return fmt.Errorf("faults[%d]: unknown kind %q (kinds: %s)", i, e.Kind, kindList())
		}
		if e.At < 0 {
			return fmt.Errorf("faults[%d] %s: negative time %d", i, e.Kind, e.At)
		}
		if e.Recur != nil {
			if restoreKind(e.Kind) {
				return fmt.Errorf("faults[%d] %s: restore kinds cannot recur (the fault occurrence restores itself)", i, e.Kind)
			}
			if e.Until != 0 {
				return fmt.Errorf("faults[%d] %s: until must be zero with a recurrence (duration bounds each occurrence)", i, e.Kind)
			}
			if err := e.Recur.validate(); err != nil {
				return fmt.Errorf("faults[%d] %s: recurrence: %v", i, e.Kind, err)
			}
		} else if e.Windowed() && e.Until <= e.At {
			return fmt.Errorf("faults[%d] %s: window end %d not after start %d", i, e.Kind, e.Until, e.At)
		} else if !e.Windowed() && e.Until != 0 {
			return fmt.Errorf("faults[%d] %s: a point kind takes no until (it stays in force until its restore kind or a recurrence's duration ends it)", i, e.Kind)
		}
		if e.Pick < 0 {
			return fmt.Errorf("faults[%d] %s: pick = %d negative", i, e.Kind, e.Pick)
		}
		if e.Pick > 0 {
			if restoreKind(e.Kind) {
				return fmt.Errorf("faults[%d] %s: restore kinds cannot pick random targets", i, e.Kind)
			}
			if e.Target != "" {
				return fmt.Errorf("faults[%d] %s: target %q and pick %d are mutually exclusive", i, e.Kind, e.Target, e.Pick)
			}
		}
		if e.Kind == BurstLoss {
			if err := checkGE(e.GE); err != nil {
				return fmt.Errorf("faults[%d] burst-loss: %v", i, err)
			}
		}
		if err := e.Impair.validate(e.Kind); err != nil {
			return fmt.Errorf("faults[%d] %s: %v", i, e.Kind, err)
		}
	}
	return nil
}

func checkGE(g netem.GEParams) error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"p_good_bad", g.GoodToBad}, {"p_bad_good", g.BadToGood},
		{"loss_good", g.LossGood}, {"loss_bad", g.LossBad},
	} {
		if !(p.v >= 0 && p.v <= 1) { // also rejects NaN
			return fmt.Errorf("%s = %v outside [0, 1]", p.name, p.v)
		}
	}
	if !g.Enabled() {
		return fmt.Errorf("channel can never drop (loss_good and loss_bad both zero)")
	}
	return nil
}

func kindList() string {
	names := make([]string, 0, len(Kinds()))
	for _, k := range Kinds() {
		names = append(names, string(k))
	}
	return strings.Join(names, ", ")
}

// LastClear returns an upper bound on the instant the final fault effect
// ends — the point after which recovery invariants must hold. Recurring
// events count their last occurrence at maximal start jitter; an armed
// Injector reports the tighter bound from the actual draws. Zero for an
// empty schedule.
func (s Schedule) LastClear() int64 {
	var last int64
	for _, e := range s {
		t := e.At
		switch {
		case e.Recur != nil:
			t += int64(e.Recur.Count-1)*e.Recur.Interval + e.Recur.Jitter + e.Recur.Duration
		case e.Windowed() && e.Until > t:
			t = e.Until
		}
		if t > last {
			last = t
		}
	}
	return last
}

// Fabric binds schedule targets to the concrete pieces of a built
// topology. The scenario layer fills it in; tests can assemble one by
// hand around any netem network.
type Fabric struct {
	// Links maps names to transmitting ports ("bottleneck", "sender0.up",
	// ...). Link-scoped events (LinkDown/Up, ProbeBlackout, BurstLoss and
	// the impairment kinds) resolve here; ECNBlackhole falls back here
	// when no switch matches.
	Links map[string]*netem.Port
	// DefaultLink is the link a link-scoped event with no Target hits.
	DefaultLink string
	// Switches maps names for ECNBlackhole targets; DefaultSwitch is used
	// when the event names none.
	Switches      map[string]*netem.Switch
	DefaultSwitch string
	// Shims are the deployed hypervisor shims. Shim events hit all of them
	// by default, or one selected as "shim0", "shim1", ... A scheme with
	// no shims ignores shim events, so one schedule chaos-tests every
	// registered scheme.
	Shims []*core.Shim
	// Hosts are the end hosts behind the fabric. Arming a corrupt event
	// turns checksum verification on for all of them, so bit flips that
	// survive the port are discarded at the receiver, not absorbed.
	Hosts []*netem.Host
}

func (f Fabric) link(target string) (*netem.Port, error) {
	name := target
	if name == "" {
		name = f.DefaultLink
	}
	if p, ok := f.Links[name]; ok && p != nil {
		return p, nil
	}
	return nil, fmt.Errorf("no link %q in fabric (links: %s)", name, joinKeys(f.Links))
}

// strip resolves an ECNBlackhole target to its toggle — a whole switch by
// name, or a single link as a fallback — and the engine that owns the
// target, so a sharded run toggles it from the owning shard. A switch with
// no ports yet reports a nil engine; the caller falls back to its own.
func (f Fabric) strip(target string) (func(bool), *sim.Engine, error) {
	name := target
	if name == "" {
		name = f.DefaultSwitch
		if name == "" {
			name = f.DefaultLink
		}
	}
	if sw, ok := f.Switches[name]; ok && sw != nil {
		var owner *sim.Engine
		if sw.NumPorts() > 0 {
			owner = sw.Port(0).Eng
		}
		return sw.SetStripECN, owner, nil
	}
	if p, ok := f.Links[name]; ok && p != nil {
		return p.SetStripECN, p.Eng, nil
	}
	return nil, nil, fmt.Errorf("no switch or link %q in fabric (switches: %s; links: %s)",
		name, joinKeysSw(f.Switches), joinKeys(f.Links))
}

func (f Fabric) shims(target string) ([]*core.Shim, error) {
	if target == "" {
		return f.Shims, nil // all of them; none deployed = event is a no-op
	}
	var idx int
	if _, err := fmt.Sscanf(target, "shim%d", &idx); err != nil || idx < 0 || idx >= len(f.Shims) {
		return nil, fmt.Errorf("no shim %q in fabric (%d shims deployed; use \"shim0\"..\"shim%d\" or \"\")",
			target, len(f.Shims), len(f.Shims)-1)
	}
	return []*core.Shim{f.Shims[idx]}, nil
}

// pickPool returns the sorted name pool a Pick event draws targets from:
// link names for link-scoped kinds, shim names for shim kinds. Sorting
// makes the pool — and therefore every draw — independent of map order.
func (f Fabric) pickPool(kind Kind) ([]string, error) {
	switch kind {
	case ShimCrash:
		if len(f.Shims) == 0 {
			return nil, fmt.Errorf("pick from a fabric with no shims")
		}
		pool := make([]string, len(f.Shims))
		for i := range f.Shims {
			pool[i] = fmt.Sprintf("shim%d", i)
		}
		return pool, nil
	case ECNBlackhole:
		if len(f.Switches) > 0 {
			return sortedKeysSw(f.Switches), nil
		}
		fallthrough
	default:
		if len(f.Links) == 0 {
			return nil, fmt.Errorf("pick from a fabric with no links")
		}
		return sortedKeys(f.Links), nil
	}
}

// pickTargets draws k distinct pool entries with rng, returned in pool
// order so arming order matches the fabric, not the draw sequence.
func pickTargets(pool []string, k int, rng *sim.RNG) []string {
	idx := rng.Perm(len(pool))[:k]
	sort.Ints(idx)
	out := make([]string, k)
	for i, j := range idx {
		out[i] = pool[j]
	}
	return out
}

// shimIndex reports a shim's position in the fabric's deployment order,
// so per-shim fault log lines name the shim the way targets do ("shim0"…).
func shimIndex(all []*core.Shim, sh *core.Shim) int {
	for i, s := range all {
		if s == sh {
			return i
		}
	}
	return -1
}

func sortedKeys(m map[string]*netem.Port) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedKeysSw(m map[string]*netem.Switch) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func joinKeys(m map[string]*netem.Port) string {
	return strings.Join(sortedKeys(m), ", ")
}

func joinKeysSw(m map[string]*netem.Switch) string {
	return strings.Join(sortedKeysSw(m), ", ")
}

// Injector is an armed schedule. Arm resolves every target eagerly (a
// typo fails the run before it starts, not at t=fault) and queues every
// event on the engine that owns its target — the shard a sharded fabric
// assigned the port, switch or shim to — so fault actions never mutate
// state across shard boundaries. The injector then just records what
// fired.
type Injector struct {
	Schedule Schedule

	lastClear int64
	channels  []*netem.GilbertElliott
	imps      []*netem.PortImpair
	slots     []logSlot
}

// logSlot is one pre-allocated log line. Slots are claimed at Arm time in
// schedule order with the event's fire instant; the fault action fills the
// message in when it fires, on whichever shard owns its target, and Log
// sorts the slots back into fire order.
type logSlot struct {
	at  int64
	msg string
}

// LastClear returns the instant the final fault effect ends, using the
// start jitters actually drawn for recurring events.
func (inj *Injector) LastClear() int64 { return inj.lastClear }

// Log lists every fault action that fired, stamped with simulation time,
// ordered by fire instant with schedule order breaking ties — the firing
// order a single-loop engine produces. Deterministic at any shard count,
// so tests can assert on it.
func (inj *Injector) Log() []string {
	fired := make([]logSlot, 0, len(inj.slots))
	for _, sl := range inj.slots {
		if sl.msg != "" {
			fired = append(fired, sl)
		}
	}
	sort.SliceStable(fired, func(i, j int) bool { return fired[i].at < fired[j].at })
	out := make([]string, len(fired))
	for i, sl := range fired {
		out[i] = sl.msg
	}
	return out
}

// BurstDrops totals the packets the armed burst-loss channels removed.
func (inj *Injector) BurstDrops() int64 {
	var n int64
	for _, g := range inj.channels {
		n += g.Drops
	}
	return n
}

// ImpairStats aggregates the per-kind counters of every port impairment
// the schedule armed. After a drained run, Held must be zero — the
// recovery observer asserts it.
func (inj *Injector) ImpairStats() netem.ImpairStats {
	var st netem.ImpairStats
	for _, im := range inj.imps {
		st.Add(im.Stats())
	}
	return st
}

// HasImpairments reports whether the schedule armed any impairment kinds.
func (inj *Injector) HasImpairments() bool { return len(inj.imps) > 0 }

// addImp records an armed pipeline once, keeping Arm order.
func (inj *Injector) addImp(im *netem.PortImpair) {
	for _, have := range inj.imps {
		if have == im {
			return
		}
	}
	inj.imps = append(inj.imps, im)
}

// slot reserves a log line for an action scheduled at `at`. Must be called
// during Arm, before any engine runs.
func (inj *Injector) slot(at int64) int {
	inj.slots = append(inj.slots, logSlot{at: at})
	return len(inj.slots) - 1
}

// logf fills a reserved slot when its action fires on the owning engine.
func (inj *Injector) logf(slot int, eng *sim.Engine, format string, args ...any) {
	inj.slots[slot].msg = fmtNs(eng.Now()) + " " + fmt.Sprintf(format, args...)
}

// kindNeedsRNG reports kinds whose armed effect consumes random draws at
// run time (a loss channel, a per-packet probability, a delay dist).
func kindNeedsRNG(k Kind) bool {
	switch k {
	case BurstLoss, Corrupt, Duplicate, Reorder, Jitter:
		return true
	}
	return false
}

// eventNeedsRNG reports whether arming ev consumes any randomness — the
// rule that fixes the RNG fork order: Arm forks the run RNG exactly once
// per event for which this is true, in schedule order, so RNG-free events
// never shift another event's stream and pre-existing schedules keep
// their digests.
func eventNeedsRNG(ev Event) bool {
	return kindNeedsRNG(ev.Kind) || ev.Pick > 0 || (ev.Recur != nil && ev.Recur.Jitter > 0)
}

// Arm validates the schedule, resolves every target against the fabric
// and queues the fault events — each on the engine that owns its target,
// so on a sharded fabric every action mutates only shard-local state.
// Call after the topology and shims are built but before the engine runs.
//
// Determinism: the run RNG is forked once per event that needs
// randomness, in schedule order. Within an event, each occurrence draws
// its start jitter, then its random targets, then forks one child per
// armed target whose kind consumes run-time draws (a one-shot event with
// a fixed target hands the event fork itself to the effect, matching the
// pre-recurrence fork order). Everything random is drawn here, during
// sequential setup — an occurrence's window, victims and loss streams
// are a pure function of seed + schedule + fabric, never of the shard
// partition or of run-time interleaving.
//
// eng is the fallback for targets with no resolvable owner (a port-less
// switch); on a single-loop fabric every owner is eng anyway.
func Arm(eng *sim.Engine, rng *sim.RNG, sched Schedule, fab Fabric) (*Injector, error) {
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	inj := &Injector{Schedule: sched}
	for _, ev := range sched {
		if ev.Kind == Corrupt {
			for _, h := range fab.Hosts {
				h.VerifyChecksums = true
			}
			break
		}
	}
	var lastClear int64
	for i, ev := range sched {
		ev := ev
		var evRng *sim.RNG
		if eventNeedsRNG(ev) {
			evRng = rng.Fork()
		}
		var pool []string
		if ev.Pick > 0 {
			var err error
			pool, err = fab.pickPool(ev.Kind)
			if err != nil {
				return nil, fmt.Errorf("faults[%d] %s: %v", i, ev.Kind, err)
			}
			if ev.Pick > len(pool) {
				return nil, fmt.Errorf("faults[%d] %s: pick %d exceeds %d available targets (%s)",
					i, ev.Kind, ev.Pick, len(pool), strings.Join(pool, ", "))
			}
		}
		count := 1
		if ev.Recur != nil {
			count = ev.Recur.Count
		}
		for oi := 0; oi < count; oi++ {
			start, end := ev.At, ev.Until
			if r := ev.Recur; r != nil {
				start = ev.At + int64(oi)*r.Interval
				if r.Jitter > 0 {
					start += evRng.Int63n(r.Jitter + 1)
				}
				end = start + r.Duration
			}
			targets := []string{ev.Target}
			if ev.Pick > 0 {
				targets = pickTargets(pool, ev.Pick, evRng)
			}
			for _, tgt := range targets {
				// Effects running on different shards must not share a
				// generator, or the order the shards run a window in
				// would decide who draws what: one child per armed target
				// unless this is the single pre-recurrence shape (one
				// shot, fixed target).
				kindRng := evRng
				if kindNeedsRNG(ev.Kind) && (ev.Recur != nil || ev.Pick > 0) {
					kindRng = evRng.Fork()
				}
				if err := inj.armOne(eng, fab, ev, tgt, start, end, kindRng); err != nil {
					return nil, fmt.Errorf("faults[%d] %s: %v", i, ev.Kind, err)
				}
			}
			clear := end
			if !ev.Windowed() && ev.Recur == nil {
				clear = start
			}
			if clear > lastClear {
				lastClear = clear
			}
		}
	}
	inj.lastClear = lastClear
	return inj, nil
}

// armOne queues the actions of one occurrence of ev against one resolved
// target. Point kinds under a recurrence pair up: the fault fires at
// start and its restore at end.
func (inj *Injector) armOne(eng *sim.Engine, fab Fabric, ev Event, target string, start, end int64, kindRng *sim.RNG) error {
	switch ev.Kind {
	case LinkDown, LinkUp:
		port, err := fab.link(target)
		if err != nil {
			return err
		}
		if ev.Recur == nil {
			down := ev.Kind == LinkDown
			slot := inj.slot(start)
			port.Eng.At(start, func() {
				port.SetDown(down)
				inj.logf(slot, port.Eng, "%s %s", ev.Kind, port.Label)
			})
			return nil
		}
		dn, up := inj.slot(start), inj.slot(end)
		port.Eng.At(start, func() {
			port.SetDown(true)
			inj.logf(dn, port.Eng, "link-down %s", port.Label)
		})
		port.Eng.At(end, func() {
			port.SetDown(false)
			inj.logf(up, port.Eng, "link-up %s", port.Label)
		})
	case ProbeBlackout:
		port, err := fab.link(target)
		if err != nil {
			return err
		}
		on, off := inj.slot(start), inj.slot(end)
		port.Eng.At(start, func() {
			port.SetDropProbes(true)
			inj.logf(on, port.Eng, "probe-blackout on %s", port.Label)
		})
		port.Eng.At(end, func() {
			port.SetDropProbes(false)
			inj.logf(off, port.Eng, "probe-blackout off %s", port.Label)
		})
	case ECNBlackhole:
		strip, owner, err := fab.strip(target)
		if err != nil {
			return err
		}
		if owner == nil {
			owner = eng
		}
		on, off := inj.slot(start), inj.slot(end)
		owner.At(start, func() {
			strip(true)
			inj.logf(on, owner, "ecn-blackhole on")
		})
		owner.At(end, func() {
			strip(false)
			inj.logf(off, owner, "ecn-blackhole off")
		})
	case ShimCrash, ShimRestart:
		shims, err := fab.shims(target)
		if err != nil {
			return err
		}
		crash := ev.Kind == ShimCrash
		// One event per shim, in fabric order, each on the shim's owning
		// engine. The event count — and therefore every shared setup
		// sequence number drawn after Arm — must be a function of the
		// fabric alone, never of the partition: grouping shims per owning
		// engine here would arm a shard-count-dependent number of events
		// and silently re-rank everything the workload arms afterwards.
		for _, sh := range shims {
			sh := sh
			se := sh.Eng()
			idx := shimIndex(fab.Shims, sh)
			slot := inj.slot(start)
			se.At(start, func() {
				if crash {
					sh.Crash()
				} else {
					sh.Restart()
				}
				inj.logf(slot, se, "%s shim%d", ev.Kind, idx)
			})
			if ev.Recur != nil {
				restart := inj.slot(end)
				se.At(end, func() {
					sh.Restart()
					inj.logf(restart, se, "shim-restart shim%d", idx)
				})
			}
		}
	case BurstLoss:
		port, err := fab.link(target)
		if err != nil {
			return err
		}
		ge := &netem.GilbertElliott{P: ev.GE, Rng: kindRng}
		inj.channels = append(inj.channels, ge)
		on, off := inj.slot(start), inj.slot(end)
		port.Eng.At(start, func() {
			port.SetLoss(func(*netem.Packet) bool { return ge.Drop() })
			inj.logf(on, port.Eng, "burst-loss on %s", port.Label)
		})
		port.Eng.At(end, func() {
			port.SetLoss(nil)
			inj.logf(off, port.Eng, "burst-loss off %s (%d/%d dropped)", port.Label, ge.Drops, ge.Seen)
		})
	case Corrupt, Duplicate, Reorder, Jitter, RateLimit:
		port, err := fab.link(target)
		if err != nil {
			return err
		}
		inj.armImpair(port, ev, start, end, kindRng)
	}
	return nil
}

// armImpair queues the on/off pair of one impairment occurrence on the
// port's own engine. Rate limiting always attaches egress (it paces the
// transmitter); the other kinds follow Impair.Egress.
func (inj *Injector) armImpair(port *netem.Port, ev Event, start, end int64, kindRng *sim.RNG) {
	pr := ev.Impair
	imp := port.Impair(pr.Egress || ev.Kind == RateLimit)
	inj.addImp(imp)
	on, off := inj.slot(start), inj.slot(end)
	switch ev.Kind {
	case Corrupt:
		port.Eng.At(start, func() {
			imp.SetCorrupt(pr.Prob, pr.DropFrac, kindRng)
			inj.logf(on, port.Eng, "corrupt on %s (p=%v)", port.Label, pr.Prob)
		})
		port.Eng.At(end, func() {
			imp.SetCorrupt(0, 0, nil)
			st := imp.Stats()
			inj.logf(off, port.Eng, "corrupt off %s (%d flipped, %d dropped)", port.Label, st.Corrupted, st.CorruptDrops)
		})
	case Duplicate:
		port.Eng.At(start, func() {
			imp.SetDuplicate(pr.Prob, pr.Copies, kindRng)
			inj.logf(on, port.Eng, "duplicate on %s (p=%v)", port.Label, pr.Prob)
		})
		port.Eng.At(end, func() {
			imp.SetDuplicate(0, 0, nil)
			inj.logf(off, port.Eng, "duplicate off %s (%d copies)", port.Label, imp.Stats().Duplicated)
		})
	case Reorder:
		port.Eng.At(start, func() {
			imp.SetReorder(pr.Prob, pr.Hold, kindRng)
			inj.logf(on, port.Eng, "reorder on %s (p=%v)", port.Label, pr.Prob)
		})
		port.Eng.At(end, func() {
			imp.SetReorder(0, 0, nil)
			inj.logf(off, port.Eng, "reorder off %s (%d held)", port.Label, imp.Stats().Reordered)
		})
	case Jitter:
		dist := pr.dist()
		port.Eng.At(start, func() {
			imp.SetJitter(dist, kindRng)
			inj.logf(on, port.Eng, "jitter on %s (%s)", port.Label, dist.Name())
		})
		port.Eng.At(end, func() {
			imp.SetJitter(nil, nil)
			inj.logf(off, port.Eng, "jitter off %s (%d delayed)", port.Label, imp.Stats().Jittered)
		})
	case RateLimit:
		port.Eng.At(start, func() {
			imp.SetRate(pr.RateBps, pr.Burst)
			inj.logf(on, port.Eng, "rate-limit on %s (%d bps)", port.Label, pr.RateBps)
		})
		port.Eng.At(end, func() {
			imp.SetRate(0, 0)
			inj.logf(off, port.Eng, "rate-limit off %s (%d paced)", port.Label, imp.Stats().RateLimited)
		})
	}
}
