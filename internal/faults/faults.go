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

// Kind names a fault type. The string values are what JSON spec files
// use; each kind's row in kinds holds its doc, the fields it reads and
// what arming it does.
type Kind string

// The fault kinds, in kinds' order.
const (
	LinkDown      Kind = "link-down"
	LinkUp        Kind = "link-up"
	ECNBlackhole  Kind = "ecn-blackhole"
	ProbeBlackout Kind = "probe-blackout"
	ShimCrash     Kind = "shim-crash"
	ShimRestart   Kind = "shim-restart"
	BurstLoss     Kind = "burst-loss"
	Corrupt       Kind = "corrupt"
	Duplicate     Kind = "duplicate"
	Reorder       Kind = "reorder"
	Jitter        Kind = "jitter"
	RateLimit     Kind = "rate-limit"
)

// KindInfo describes one fault kind for operator-facing listings
// (hwatchsim -list-faults): its one-line doc, whether it covers an
// [At,Until) window, and the JSON fields it reads beyond the ones every
// kind takes (kind, at_ms, until_ms, target, every_ms, for_ms, jitter_ms,
// count, pick). A spec setting any other field is rejected.
type KindInfo struct {
	Kind     Kind
	Windowed bool
	Doc      string
	Fields   []string
}

// kindRow is everything the package knows about one fault kind; every
// per-kind decision reads its row.
type kindRow struct {
	KindInfo
	restore bool              // undoes a fault: cannot recur or pick targets
	rng     bool              // the armed effect draws at run time
	scope   scope             // what a target names, and the Pick pool
	check   func(Event) error // parameter check (nil: no parameters)
	// effect builds one occurrence's actions on one resolved element.
	// Each makes its change and returns its log text; off runs only when
	// the event is windowed or recurring.
	effect func(a *arming) (on, off func() string)
}

// arming is what an effect sees: the event, its resolved element, the
// RNG its run-time draws come from, and the injector and fabric it arms.
type arming struct {
	element
	ev  Event
	rng *sim.RNG
	inj *Injector
	fab Fabric
}

var kinds = [...]kindRow{
	{KindInfo: KindInfo{LinkDown, false, "fail a link: offered packets lost, queue holds until link-up", nil},
		scope: linkScope,
		effect: func(a *arming) (on, off func() string) {
			return setDown(a.port, true), setDown(a.port, false)
		}},
	{KindInfo: KindInfo{LinkUp, false, "restore a failed link", nil},
		restore: true, scope: linkScope,
		effect: func(a *arming) (on, off func() string) { return setDown(a.port, false), nil }},
	{KindInfo: KindInfo{ECNBlackhole, true, "switch strips CE/ECT before its AQMs (legacy non-ECN hop)", nil},
		scope: switchScope,
		effect: func(a *arming) (on, off func() string) {
			return func() string { a.strip(true); return "ecn-blackhole on" },
				func() string { a.strip(false); return "ecn-blackhole off" }
		}},
	{KindInfo: KindInfo{ProbeBlackout, true, "link eats shim probe packets only (ACL/middlebox)", nil},
		scope: linkScope,
		effect: func(a *arming) (on, off func() string) {
			p := a.port
			return func() string { p.SetDropProbes(true); return "probe-blackout on " + p.Label },
				func() string { p.SetDropProbes(false); return "probe-blackout off " + p.Label }
		}},
	{KindInfo: KindInfo{ShimCrash, false, "kill hypervisor shims: tables wiped, clamps released", nil},
		scope: shimScope,
		effect: func(a *arming) (on, off func() string) {
			sh, label := a.shim, a.label
			return func() string { sh.Crash(); return "shim-crash " + label }, shimRestart(sh, label)
		}},
	{KindInfo: KindInfo{ShimRestart, false, "restart crashed shims with cold tables", nil},
		restore: true, scope: shimScope,
		effect: func(a *arming) (on, off func() string) { return shimRestart(a.shim, a.label), nil }},
	{KindInfo: KindInfo{BurstLoss, true, "Gilbert-Elliott burst-loss channel on a link",
		[]string{"p_good_bad", "p_bad_good", "loss_good", "loss_bad"}},
		rng: true, scope: linkScope,
		check: func(e Event) error { return checkGE(e.GE) },
		effect: func(a *arming) (on, off func() string) {
			p, ge := a.port, &netem.GilbertElliott{P: a.ev.GE, Rng: a.rng}
			a.inj.channels = append(a.inj.channels, ge)
			return func() string {
					p.SetLoss(func(*netem.Packet) bool { return ge.Drop() })
					return "burst-loss on " + p.Label
				}, func() string {
					p.SetLoss(nil)
					return fmt.Sprintf("burst-loss off %s (%d/%d dropped)", p.Label, ge.Drops, ge.Seen)
				}
		}},
	{KindInfo: KindInfo{Corrupt, true, "bit-flip packets (prob), checksum left stale; drop_frac dropped at port",
		[]string{"prob", "drop_frac", "egress"}},
		rng: true, scope: linkScope,
		check: func(e Event) error {
			if err := checkProb(e); err != nil {
				return err
			}
			if d := e.Impair.DropFrac; !(d >= 0 && d <= 1) {
				return fmt.Errorf("drop_frac = %v outside [0, 1]", d)
			}
			return nil
		},
		effect: func(a *arming) (on, off func() string) {
			// Flips that survive the port are discarded at the receiver.
			for _, h := range a.fab.Hosts {
				h.VerifyChecksums = true
			}
			p, pr := a.port, a.ev.Impair
			im := a.inj.impair(p, pr.Egress)
			return func() string {
					im.SetCorrupt(pr.Prob, pr.DropFrac, a.rng)
					return fmt.Sprintf("corrupt on %s (p=%v)", p.Label, pr.Prob)
				}, func() string {
					im.SetCorrupt(0, 0, nil)
					st := im.Stats()
					return fmt.Sprintf("corrupt off %s (%d flipped, %d dropped)", p.Label, st.Corrupted, st.CorruptDrops)
				}
		}},
	{KindInfo: KindInfo{Duplicate, true, "clone packets (prob) into `copies` bounded duplicates",
		[]string{"prob", "copies", "egress"}},
		rng: true, scope: linkScope,
		check: func(e Event) error {
			if err := checkProb(e); err != nil {
				return err
			}
			if c := e.Impair.Copies; c < 0 || c > 4 {
				return fmt.Errorf("copies = %d outside [0, 4]", c)
			}
			return nil
		},
		effect: func(a *arming) (on, off func() string) {
			p, pr := a.port, a.ev.Impair
			im := a.inj.impair(p, pr.Egress)
			return func() string {
					im.SetDuplicate(pr.Prob, pr.Copies, a.rng)
					return fmt.Sprintf("duplicate on %s (p=%v)", p.Label, pr.Prob)
				}, func() string {
					im.SetDuplicate(0, 0, nil)
					return fmt.Sprintf("duplicate off %s (%d copies)", p.Label, im.Stats().Duplicated)
				}
		}},
	{KindInfo: KindInfo{Reorder, true, "hold packets (prob) up to hold_us so later ones overtake",
		[]string{"prob", "hold_us", "egress"}},
		rng: true, scope: linkScope,
		check: func(e Event) error {
			if err := checkProb(e); err != nil {
				return err
			}
			if h := e.Impair.Hold; h < 0 {
				return fmt.Errorf("hold = %d negative", h)
			}
			return nil
		},
		effect: func(a *arming) (on, off func() string) {
			p, pr := a.port, a.ev.Impair
			im := a.inj.impair(p, pr.Egress)
			return func() string {
					im.SetReorder(pr.Prob, pr.Hold, a.rng)
					return fmt.Sprintf("reorder on %s (p=%v)", p.Label, pr.Prob)
				}, func() string {
					im.SetReorder(0, 0, nil)
					return fmt.Sprintf("reorder off %s (%d held)", p.Label, im.Stats().Reordered)
				}
		}},
	{KindInfo: KindInfo{Jitter, true, "per-packet delay from dist=uniform|normal|pareto (shape: pareto only)",
		[]string{"dist", "delay_us", "jitter_us", "shape", "egress"}},
		rng: true, scope: linkScope,
		check: func(e Event) error {
			p := e.Impair
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
			if p.Shape != 0 && p.Dist != "pareto" {
				return fmt.Errorf("shape = %v is read only under dist pareto", p.Shape)
			}
			return nil
		},
		effect: func(a *arming) (on, off func() string) {
			p, dist := a.port, a.ev.Impair.dist()
			im := a.inj.impair(p, a.ev.Impair.Egress)
			return func() string {
					im.SetJitter(dist, a.rng)
					return fmt.Sprintf("jitter on %s (%s)", p.Label, dist.Name())
				}, func() string {
					im.SetJitter(nil, nil)
					return fmt.Sprintf("jitter off %s (%d delayed)", p.Label, im.Stats().Jittered)
				}
		}},
	{KindInfo: KindInfo{RateLimit, true, "token-bucket shape a link to rate_mbps with burst_kb (always egress)",
		[]string{"rate_mbps", "burst_kb"}},
		scope: linkScope,
		check: func(e Event) error {
			if r := e.Impair.RateBps; r <= 0 {
				return fmt.Errorf("rate = %d bps not positive", r)
			}
			if b := e.Impair.Burst; b < 0 {
				return fmt.Errorf("burst = %d negative", b)
			}
			return nil
		},
		effect: func(a *arming) (on, off func() string) {
			p, pr := a.port, a.ev.Impair
			im := a.inj.impair(p, true) // a token bucket paces the transmitter
			return func() string {
					im.SetRate(pr.RateBps, pr.Burst)
					return fmt.Sprintf("rate-limit on %s (%d bps)", p.Label, pr.RateBps)
				}, func() string {
					im.SetRate(0, 0)
					return fmt.Sprintf("rate-limit off %s (%d paced)", p.Label, im.Stats().RateLimited)
				}
		}},
}

// byKind indexes kinds by name.
var byKind = func() map[Kind]*kindRow {
	m := make(map[Kind]*kindRow, len(kinds))
	for i := range kinds {
		m[kinds[i].Kind] = &kinds[i]
	}
	return m
}()

// Kinds lists every fault kind, for error messages and docs.
func Kinds() []Kind {
	out := make([]Kind, len(kinds))
	for i, r := range kinds {
		out[i] = r.Kind
	}
	return out
}

// Infos returns every fault kind's listing, in Kinds() order.
func Infos() []KindInfo {
	out := make([]KindInfo, len(kinds))
	for i, r := range kinds {
		out[i] = r.KindInfo
	}
	return out
}

// Info returns one kind's listing; false for an unknown kind.
func Info(k Kind) (KindInfo, bool) {
	if r := byKind[k]; r != nil {
		return r.KindInfo, true
	}
	return KindInfo{}, false
}

func setDown(p *netem.Port, down bool) func() string {
	return func() string {
		p.SetDown(down)
		if down {
			return "link-down " + p.Label
		}
		return "link-up " + p.Label
	}
}

func shimRestart(sh *core.Shim, label string) func() string {
	return func() string { sh.Restart(); return "shim-restart " + label }
}

func checkProb(e Event) error {
	if p := e.Impair.Prob; !(p > 0 && p <= 1) {
		return fmt.Errorf("prob = %v outside (0, 1]", p)
	}
	return nil
}

// ImpairParams carries the knobs of the impairment kinds (Corrupt,
// Duplicate, Reorder, Jitter, RateLimit); each kind reads only the
// fields its row lists.
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
	Egress   bool    // attach on the wire side, not ahead of the queue (rate-limit always does)
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
	if r.Count == 1 && r.Interval != 0 {
		// Accepted, it would move a spec's content address, not its run.
		return fmt.Errorf("interval = %d with count 1: a single occurrence never reads it (every_ms needs count > 1)", r.Interval)
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
// nanoseconds; Until bounds the windowed kinds and must be zero on the
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
	r := byKind[e.Kind]
	return r != nil && r.Windowed
}

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
	for i, e := range s {
		row := byKind[e.Kind]
		if row == nil {
			return fmt.Errorf("faults[%d]: unknown kind %q (kinds: %s)", i, e.Kind, kindList())
		}
		if e.At < 0 {
			return fmt.Errorf("faults[%d] %s: negative time %d", i, e.Kind, e.At)
		}
		if e.Recur != nil {
			if row.restore {
				return fmt.Errorf("faults[%d] %s: restore kinds cannot recur (the fault occurrence restores itself)", i, e.Kind)
			}
			if e.Until != 0 {
				return fmt.Errorf("faults[%d] %s: until must be zero with a recurrence (duration bounds each occurrence)", i, e.Kind)
			}
			if err := e.Recur.validate(); err != nil {
				return fmt.Errorf("faults[%d] %s: recurrence: %v", i, e.Kind, err)
			}
		} else if row.Windowed && e.Until <= e.At {
			return fmt.Errorf("faults[%d] %s: window end %d not after start %d", i, e.Kind, e.Until, e.At)
		} else if !row.Windowed && e.Until != 0 {
			return fmt.Errorf("faults[%d] %s: a point kind takes no until (it stays in force until its restore kind or a recurrence's duration ends it)", i, e.Kind)
		}
		if e.Pick < 0 {
			return fmt.Errorf("faults[%d] %s: pick = %d negative", i, e.Kind, e.Pick)
		}
		if e.Pick > 0 {
			if row.restore {
				return fmt.Errorf("faults[%d] %s: restore kinds cannot pick random targets", i, e.Kind)
			}
			if e.Target != "" {
				return fmt.Errorf("faults[%d] %s: target %q and pick %d are mutually exclusive", i, e.Kind, e.Target, e.Pick)
			}
		}
		if row.check != nil {
			if err := row.check(e); err != nil {
				return fmt.Errorf("faults[%d] %s: %v", i, e.Kind, err)
			}
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
	var names []string
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

// element is one resolved target: the engine that owns it — the shard a
// sharded fabric assigned it to — and the piece a kind's effect acts on.
type element struct {
	eng   *sim.Engine // nil for a port-less switch: Arm's engine owns it
	port  *netem.Port // link scope
	strip func(bool)  // switch scope: the ECN-strip toggle
	shim  *core.Shim  // shim scope
	label string      // shim scope: "shim0", "shim1", ...
}

// scope is what a kind's targets name: how one resolves to the elements
// an event arms on, and the sorted name pool a Pick draws from. Sorting
// makes the pool — and therefore every draw — independent of map order.
type scope struct {
	resolve func(f Fabric, target string) ([]element, error)
	pool    func(f Fabric) ([]string, error)
}

// linkScope names a link; "" is the fabric's default link.
var linkScope = scope{
	resolve: func(f Fabric, target string) ([]element, error) {
		name := target
		if name == "" {
			name = f.DefaultLink
		}
		if p, ok := f.Links[name]; ok && p != nil {
			return []element{{eng: p.Eng, port: p}}, nil
		}
		return nil, fmt.Errorf("no link %q in fabric (links: %s)", name, strings.Join(sortedKeys(f.Links), ", "))
	},
	pool: linkPool,
}

// switchScope names a whole switch, or a single link as a fallback; ""
// is the default switch, else the default link.
var switchScope = scope{
	resolve: func(f Fabric, target string) ([]element, error) {
		name := target
		if name == "" {
			name = f.DefaultSwitch
			if name == "" {
				name = f.DefaultLink
			}
		}
		if sw, ok := f.Switches[name]; ok && sw != nil {
			el := element{strip: sw.SetStripECN}
			if sw.NumPorts() > 0 {
				el.eng = sw.Port(0).Eng
			}
			return []element{el}, nil
		}
		if p, ok := f.Links[name]; ok && p != nil {
			return []element{{eng: p.Eng, strip: p.SetStripECN}}, nil
		}
		return nil, fmt.Errorf("no switch or link %q in fabric (switches: %s; links: %s)",
			name, strings.Join(sortedKeys(f.Switches), ", "), strings.Join(sortedKeys(f.Links), ", "))
	},
	pool: func(f Fabric) ([]string, error) {
		if len(f.Switches) > 0 {
			return sortedKeys(f.Switches), nil
		}
		return linkPool(f)
	},
}

// shimScope names one shim as "shim<i>"; "" is every deployed shim, and
// with none deployed the event is a no-op.
var shimScope = scope{
	resolve: func(f Fabric, target string) ([]element, error) {
		lo, hi := 0, len(f.Shims)
		if target != "" {
			var idx int
			if _, err := fmt.Sscanf(target, "shim%d", &idx); err != nil || idx < 0 || idx >= len(f.Shims) {
				return nil, fmt.Errorf("no shim %q in fabric (%d shims deployed; use \"shim0\"..\"shim%d\" or \"\")",
					target, len(f.Shims), len(f.Shims)-1)
			}
			lo, hi = idx, idx+1
		}
		els := make([]element, 0, hi-lo)
		for i := lo; i < hi; i++ {
			els = append(els, element{eng: f.Shims[i].Eng(), shim: f.Shims[i], label: fmt.Sprintf("shim%d", i)})
		}
		return els, nil
	},
	pool: func(f Fabric) ([]string, error) {
		if len(f.Shims) == 0 {
			return nil, fmt.Errorf("pick from a fabric with no shims")
		}
		pool := make([]string, len(f.Shims))
		for i := range f.Shims {
			pool[i] = fmt.Sprintf("shim%d", i)
		}
		return pool, nil
	},
}

func linkPool(f Fabric) ([]string, error) {
	if len(f.Links) == 0 {
		return nil, fmt.Errorf("pick from a fabric with no links")
	}
	return sortedKeys(f.Links), nil
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

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
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

// impair returns the port's impairment stage on the chosen side,
// recording each stage once, in Arm order.
func (inj *Injector) impair(p *netem.Port, egress bool) *netem.PortImpair {
	im := p.Impair(egress)
	for _, have := range inj.imps {
		if have == im {
			return im
		}
	}
	inj.imps = append(inj.imps, im)
	return im
}

// at queues act on eng at t and reserves its log line, which act's text
// fills when it fires. Must be called during Arm, before any engine runs.
func (inj *Injector) at(eng *sim.Engine, t int64, act func() string) {
	slot := len(inj.slots)
	inj.slots = append(inj.slots, logSlot{at: t})
	eng.At(t, func() { inj.slots[slot].msg = fmtNs(eng.Now()) + " " + act() })
}

// Arm validates the schedule, resolves every target against the fabric
// and queues the fault events — each on the engine that owns its target,
// so on a sharded fabric every action mutates only shard-local state.
// Call after the topology and shims are built but before the engine runs.
//
// Determinism: the run RNG is forked once per event that needs
// randomness (its kind draws at run time, it picks targets, or its
// recurrence jitters), in schedule order, so RNG-free events never shift
// another event's stream. Within an event, each occurrence draws its
// start jitter, then its random targets, then forks one child per armed
// target whose kind draws at run time (a one-shot event with a fixed
// target hands the event fork itself to the effect). Everything random
// is drawn here, during sequential setup — an occurrence's window,
// victims and loss streams are a pure function of seed + schedule +
// fabric, never of the shard partition or of run-time interleaving.
//
// Per resolved element, an occurrence reserves its start log slot and,
// when the event is windowed or recurring, its end slot, then queues the
// kind's on action at start and, in that case, its off action at end. A
// point kind under a recurrence thus pairs up: the fault fires at start
// and its restore at end. The element count — and so every shared setup
// sequence number drawn after Arm — is a function of the fabric alone,
// never of the partition.
//
// eng is the fallback for targets with no resolvable owner (a port-less
// switch); on a single-loop fabric every owner is eng anyway.
func Arm(eng *sim.Engine, rng *sim.RNG, sched Schedule, fab Fabric) (*Injector, error) {
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	inj := &Injector{Schedule: sched}
	for i, ev := range sched {
		if err := inj.arm(eng, rng, fab, ev); err != nil {
			return nil, fmt.Errorf("faults[%d] %s: %v", i, ev.Kind, err)
		}
	}
	return inj, nil
}

// arm queues every occurrence of one validated event.
func (inj *Injector) arm(eng *sim.Engine, rng *sim.RNG, fab Fabric, ev Event) error {
	row, r := byKind[ev.Kind], ev.Recur
	var evRng *sim.RNG
	if row.rng || ev.Pick > 0 || (r != nil && r.Jitter > 0) {
		evRng = rng.Fork()
	}
	var pool []string
	if ev.Pick > 0 {
		var err error
		if pool, err = row.scope.pool(fab); err != nil {
			return err
		}
		if ev.Pick > len(pool) {
			return fmt.Errorf("pick %d exceeds %d available targets (%s)", ev.Pick, len(pool), strings.Join(pool, ", "))
		}
	}
	paired := row.Windowed || r != nil
	count := 1
	if r != nil {
		count = r.Count
	}
	for oi := 0; oi < count; oi++ {
		start, end := ev.At, ev.Until
		if r != nil {
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
			// generator, or the order the shards run a window in would
			// decide who draws what: one child per armed target unless
			// this is the one-shot, fixed-target shape.
			kindRng := evRng
			if row.rng && (r != nil || ev.Pick > 0) {
				kindRng = evRng.Fork()
			}
			els, err := row.scope.resolve(fab, tgt)
			if err != nil {
				return err
			}
			for _, el := range els {
				if el.eng == nil {
					el.eng = eng
				}
				on, off := row.effect(&arming{el, ev, kindRng, inj, fab})
				inj.at(el.eng, start, on)
				if paired {
					inj.at(el.eng, end, off)
				}
			}
		}
		if !paired {
			end = start
		}
		inj.lastClear = max(inj.lastClear, end)
	}
	return nil
}
