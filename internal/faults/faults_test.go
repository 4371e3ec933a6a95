package faults

import (
	"strings"
	"testing"

	"hwatch/internal/aqm"
	"hwatch/internal/netem"
	"hwatch/internal/sim"
)

func TestScheduleValidate(t *testing.T) {
	ge := netem.GEParams{GoodToBad: 0.1, BadToGood: 0.5, LossBad: 1}
	cases := []struct {
		name    string
		sched   Schedule
		wantErr string
	}{
		{"empty ok", Schedule{}, ""},
		{"point ok", Schedule{{Kind: LinkDown, At: 5}}, ""},
		{"window ok", Schedule{{Kind: BurstLoss, At: 5, Until: 10, GE: ge}}, ""},
		{"unknown kind", Schedule{{Kind: "meteor-strike", At: 1}}, "unknown kind"},
		{"negative time", Schedule{{Kind: ShimCrash, At: -1}}, "negative time"},
		{"empty window", Schedule{{Kind: ECNBlackhole, At: 10, Until: 10}}, "not after start"},
		{"inverted window", Schedule{{Kind: ProbeBlackout, At: 10, Until: 3}}, "not after start"},
		{"ge out of range", Schedule{{Kind: BurstLoss, At: 1, Until: 2,
			GE: netem.GEParams{GoodToBad: 1.5, BadToGood: 0.5, LossBad: 1}}}, "outside [0, 1]"},
		{"ge never drops", Schedule{{Kind: BurstLoss, At: 1, Until: 2,
			GE: netem.GEParams{GoodToBad: 0.1, BadToGood: 0.5}}}, "never drop"},
	}
	for _, tc := range cases {
		err := tc.sched.Validate()
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestScheduleLastClear(t *testing.T) {
	ge := netem.GEParams{GoodToBad: 0.1, BadToGood: 0.5, LossBad: 1}
	s := Schedule{
		{Kind: LinkDown, At: 100},
		{Kind: LinkUp, At: 200},
		{Kind: BurstLoss, At: 50, Until: 400, GE: ge}, // window outlasts the point events
	}
	if got := s.LastClear(); got != 400 {
		t.Fatalf("LastClear = %d, want 400", got)
	}
	if got := (Schedule{}).LastClear(); got != 0 {
		t.Fatalf("empty LastClear = %d, want 0", got)
	}
}

// testFabric is one transmitting port ("up") into a sink.
type sink struct {
	pkts []*netem.Packet
}

func (s *sink) Deliver(p *netem.Packet) { s.pkts = append(s.pkts, p) }

func newTestFabric(eng *sim.Engine) (Fabric, *netem.Port, *sink) {
	s := &sink{}
	p := netem.NewPort(eng, aqm.NewDropTail(1000), 1e9, 0)
	p.Label = "up"
	p.Connect(s)
	return Fabric{Links: map[string]*netem.Port{"up": p}, DefaultLink: "up"}, p, s
}

func TestArmRejectsUnknownTargets(t *testing.T) {
	eng := sim.New()
	fab, _, _ := newTestFabric(eng)
	cases := []Schedule{
		{{Kind: LinkDown, At: 1, Target: "nosuch"}},
		{{Kind: ECNBlackhole, At: 1, Until: 2, Target: "nosuch"}},
		{{Kind: ShimCrash, At: 1, Target: "shim5"}}, // fabric has no shims
		{{Kind: ShimCrash, At: 1, Target: "bogus"}},
	}
	for i, sched := range cases {
		if _, err := Arm(eng, sim.NewRNG(1), sched, fab); err == nil {
			t.Errorf("case %d: Arm accepted an unresolvable target", i)
		}
	}
	// But shim events with the default "" target are a no-op on shimless
	// fabrics, so one schedule works across every scheme.
	if _, err := Arm(eng, sim.NewRNG(1), Schedule{{Kind: ShimCrash, At: 1}}, fab); err != nil {
		t.Fatalf("default-target shim event on shimless fabric: %v", err)
	}
}

// TestInjectorTimeline arms a link-flap plus probe blackout and checks the
// port state toggles exactly at the scheduled instants.
func TestInjectorTimeline(t *testing.T) {
	eng := sim.New()
	fab, port, _ := newTestFabric(eng)
	sched := Schedule{
		{Kind: LinkDown, At: 10 * sim.Microsecond},
		{Kind: LinkUp, At: 30 * sim.Microsecond},
		{Kind: ProbeBlackout, At: 40 * sim.Microsecond, Until: 60 * sim.Microsecond},
	}
	inj, err := Arm(eng, sim.NewRNG(1), sched, fab)
	if err != nil {
		t.Fatal(err)
	}
	type sample struct {
		at         int64
		down, drop bool
	}
	var got []sample
	for _, at := range []int64{5, 15, 35, 45, 65} {
		at := at * sim.Microsecond
		eng.At(at, func() { got = append(got, sample{at, port.Down(), false}) })
	}
	eng.Run()

	want := []bool{false, true, false, false, false}
	for i, s := range got {
		if s.down != want[i] {
			t.Errorf("t=%d: down = %v, want %v", s.at, s.down, want[i])
		}
	}
	if inj.LastClear() != 60*sim.Microsecond {
		t.Fatalf("LastClear = %d", inj.LastClear())
	}
	if log := inj.Log(); len(log) != 4 {
		t.Fatalf("Log has %d entries, want 4: %v", len(log), log)
	}
}

// TestBurstLossWindowDeterminism: the same seed and schedule produce the
// same drop pattern, and the channel is detached outside its window.
func TestBurstLossWindowDeterminism(t *testing.T) {
	run := func(seed int64) (delivered int, drops int64) {
		eng := sim.New()
		fab, port, snk := newTestFabric(eng)
		sched := Schedule{{
			Kind: BurstLoss, At: 10 * sim.Microsecond, Until: 510 * sim.Microsecond,
			GE: netem.GEParams{GoodToBad: 0.2, BadToGood: 0.3, LossBad: 1},
		}}
		inj, err := Arm(eng, sim.NewRNG(seed), sched, fab)
		if err != nil {
			t.Fatal(err)
		}
		// One 125-byte packet per microsecond: 1 us serialization each, so
		// the port keeps up and every loss is the channel's doing.
		for i := 0; i < 1000; i++ {
			i := i
			eng.At(int64(i)*sim.Microsecond, func() {
				port.Send(&netem.Packet{ID: uint64(i), Wire: 125})
			})
		}
		eng.Run()
		return len(snk.pkts), inj.BurstDrops()
	}

	d1, l1 := run(42)
	d2, l2 := run(42)
	if d1 != d2 || l1 != l2 {
		t.Fatalf("same seed diverged: %d/%d vs %d/%d", d1, l1, d2, l2)
	}
	if l1 == 0 {
		t.Fatal("burst channel never dropped despite GoodToBad=0.2 over 500 packets")
	}
	if d1+int(l1) != 1000 {
		t.Fatalf("delivered %d + dropped %d != 1000 offered", d1, l1)
	}
	d3, _ := run(43)
	if d3 == d1 {
		t.Log("seeds 42 and 43 delivered equal counts (possible but unlikely); pattern check follows")
	}
}

// newMultiFabric is four named links into private sinks, for pick-based
// and recurring schedules that need a target pool.
func newMultiFabric(eng *sim.Engine) (Fabric, map[string]*netem.Port) {
	links := map[string]*netem.Port{}
	for _, name := range []string{"l0", "l1", "l2", "l3"} {
		p := netem.NewPort(eng, aqm.NewDropTail(1000), 1e9, 0)
		p.Label = name
		p.Connect(&sink{})
		links[name] = p
	}
	return Fabric{Links: links, DefaultLink: "l0"}, links
}

func TestScheduleValidateChaos(t *testing.T) {
	rec := func(interval, dur, jit int64, count int) *Recurrence {
		return &Recurrence{Interval: interval, Duration: dur, Jitter: jit, Count: count}
	}
	cases := []struct {
		name    string
		sched   Schedule
		wantErr string
	}{
		{"recurring flap ok", Schedule{{Kind: LinkDown, At: 1, Recur: rec(100, 10, 5, 3)}}, ""},
		{"recurring pick ok", Schedule{{Kind: ShimCrash, At: 1, Pick: 2, Recur: rec(100, 10, 0, 2)}}, ""},
		{"single occurrence needs no interval", Schedule{{Kind: LinkDown, At: 1, Recur: rec(0, 10, 0, 1)}}, ""},
		{"restore cannot recur", Schedule{{Kind: LinkUp, At: 1, Recur: rec(100, 10, 0, 2)}}, "restore kinds cannot recur"},
		{"restore cannot pick", Schedule{{Kind: ShimRestart, At: 1, Pick: 1}}, "restore kinds cannot pick"},
		{"until with recur", Schedule{{Kind: ECNBlackhole, At: 1, Until: 50, Recur: rec(100, 10, 0, 2)}}, "until must be zero"},
		{"zero count", Schedule{{Kind: LinkDown, At: 1, Recur: rec(100, 10, 0, 0)}}, "count = 0"},
		{"zero duration", Schedule{{Kind: LinkDown, At: 1, Recur: rec(100, 0, 0, 2)}}, "duration = 0"},
		{"negative jitter", Schedule{{Kind: LinkDown, At: 1, Recur: rec(100, 10, -1, 2)}}, "jitter = -1"},
		{"overlapping occurrences", Schedule{{Kind: LinkDown, At: 1, Recur: rec(100, 60, 50, 2)}}, "exceed interval"},
		{"negative pick", Schedule{{Kind: LinkDown, At: 1, Pick: -1}}, "pick = -1"},
		{"target and pick", Schedule{{Kind: LinkDown, At: 1, Target: "up", Pick: 1}}, "mutually exclusive"},
		{"corrupt ok", Schedule{{Kind: Corrupt, At: 1, Until: 2, Impair: ImpairParams{Prob: 0.1, DropFrac: 0.5}}}, ""},
		{"corrupt prob zero", Schedule{{Kind: Corrupt, At: 1, Until: 2}}, "prob = 0"},
		{"corrupt drop frac", Schedule{{Kind: Corrupt, At: 1, Until: 2, Impair: ImpairParams{Prob: 0.1, DropFrac: 2}}}, "drop_frac"},
		{"duplicate copies", Schedule{{Kind: Duplicate, At: 1, Until: 2, Impair: ImpairParams{Prob: 0.1, Copies: 5}}}, "copies = 5"},
		{"reorder hold", Schedule{{Kind: Reorder, At: 1, Until: 2, Impair: ImpairParams{Prob: 0.1, Hold: -1}}}, "hold = -1"},
		{"jitter unknown dist", Schedule{{Kind: Jitter, At: 1, Until: 2, Impair: ImpairParams{Dist: "bimodal", Delay: 10}}}, "unknown dist"},
		{"jitter all zero", Schedule{{Kind: Jitter, At: 1, Until: 2}}, "both zero"},
		{"pareto needs delay", Schedule{{Kind: Jitter, At: 1, Until: 2, Impair: ImpairParams{Dist: "pareto", Jitter: 10}}}, "pareto needs delay"},
		{"rate not positive", Schedule{{Kind: RateLimit, At: 1, Until: 2}}, "not positive"},
		{"rate burst negative", Schedule{{Kind: RateLimit, At: 1, Until: 2, Impair: ImpairParams{RateBps: 1e6, Burst: -1}}}, "burst = -1"},
	}
	for _, tc := range cases {
		err := tc.sched.Validate()
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestUnknownKindListsRegistry: the error for a bad kind must name every
// registered kind, so a typo in a -faults file is self-diagnosing.
func TestUnknownKindListsRegistry(t *testing.T) {
	err := Schedule{{Kind: "meteor-strike", At: 1}}.Validate()
	if err == nil {
		t.Fatal("unknown kind accepted")
	}
	for _, k := range Kinds() {
		if !strings.Contains(err.Error(), string(k)) {
			t.Errorf("unknown-kind error omits %q: %v", k, err)
		}
	}
}

// TestPointKindRejectsUntil: a point kind has no window, so an until on
// one would be ignored by the run while still re-seeding the spec. Every
// non-windowed kind refuses it, naming the kind.
func TestPointKindRejectsUntil(t *testing.T) {
	for _, k := range Kinds() {
		ev := Event{Kind: k, At: 100, Until: 120}
		if ev.Windowed() {
			continue
		}
		err := Schedule{ev}.Validate()
		if err == nil || !strings.Contains(err.Error(), string(k)) {
			t.Errorf("%s with until: error %v, want one naming the kind", k, err)
		}
	}
}

// TestInfosCoverKinds: every registered kind carries a one-line doc (the
// -list-faults output), in registry order.
func TestInfosCoverKinds(t *testing.T) {
	infos := Infos()
	kinds := Kinds()
	if len(infos) != len(kinds) {
		t.Fatalf("Infos has %d entries, Kinds %d", len(infos), len(kinds))
	}
	for i, ki := range infos {
		if ki.Kind != kinds[i] {
			t.Errorf("Infos[%d] = %s, Kinds[%d] = %s", i, ki.Kind, i, kinds[i])
		}
		if ki.Doc == "" {
			t.Errorf("%s: empty doc line", ki.Kind)
		}
		if ki.Windowed != (Event{Kind: ki.Kind, At: 1, Until: 2}).Windowed() {
			t.Errorf("%s: Windowed flag disagrees with Event.Windowed", ki.Kind)
		}
	}
}

func TestScheduleLastClearRecurrence(t *testing.T) {
	s := Schedule{{Kind: LinkDown, At: 100,
		Recur: &Recurrence{Interval: 50, Duration: 10, Jitter: 5, Count: 4}}}
	// Last occurrence starts at 100 + 3*50 (+ up to 5 jitter), active 10.
	if got, want := s.LastClear(), int64(100+3*50+5+10); got != want {
		t.Fatalf("LastClear = %d, want %d", got, want)
	}
}

// TestRecurringFlapTimeline: a jitter-free recurrence downs the link at
// exactly At + i*Interval and restores it Duration later, every time.
func TestRecurringFlapTimeline(t *testing.T) {
	eng := sim.New()
	fab, port, _ := newTestFabric(eng)
	sched := Schedule{{Kind: LinkDown, At: 10 * sim.Microsecond,
		Recur: &Recurrence{Interval: 40 * sim.Microsecond, Duration: 10 * sim.Microsecond, Count: 3}}}
	inj, err := Arm(eng, sim.NewRNG(1), sched, fab)
	if err != nil {
		t.Fatal(err)
	}
	var got []bool
	for _, at := range []int64{5, 15, 25, 55, 65, 95, 105} {
		eng.At(at*sim.Microsecond, func() { got = append(got, port.Down()) })
	}
	eng.Run()
	want := []bool{false, true, false, true, false, true, false}
	for i, down := range got {
		if down != want[i] {
			t.Errorf("sample %d: down = %v, want %v", i, down, want[i])
		}
	}
	// 3 downs + 3 ups in the log; the injector clears with the last up.
	if log := inj.Log(); len(log) != 6 {
		t.Fatalf("Log has %d entries, want 6: %v", len(log), log)
	}
	if want := (90 + 10) * sim.Microsecond; inj.LastClear() != want {
		t.Fatalf("LastClear = %d, want %d", inj.LastClear(), want)
	}
}

// TestPickDeterminism: random target selection is a pure function of the
// seed — the same seed picks the same links in the same order, twice.
func TestPickDeterminism(t *testing.T) {
	run := func(seed int64) []string {
		eng := sim.New()
		fab, _ := newMultiFabric(eng)
		sched := Schedule{{Kind: LinkDown, At: 10 * sim.Microsecond, Pick: 2,
			Recur: &Recurrence{Interval: 50 * sim.Microsecond, Duration: 10 * sim.Microsecond,
				Jitter: 20 * sim.Microsecond, Count: 4}}}
		inj, err := Arm(eng, sim.NewRNG(seed), sched, fab)
		if err != nil {
			t.Fatal(err)
		}
		eng.Run()
		return inj.Log()
	}
	one, two := run(42), run(42)
	if len(one) != 4*2*2 { // 4 occurrences x 2 picked links x down+up
		t.Fatalf("Log has %d entries, want 16: %v", len(one), one)
	}
	for i := range one {
		if one[i] != two[i] {
			t.Fatalf("same seed diverged at log[%d]: %q vs %q", i, one[i], two[i])
		}
	}
	other := run(43)
	same := len(other) == len(one)
	if same {
		for i := range one {
			if one[i] != other[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("seeds 42 and 43 produced identical picks and jitter across 4 occurrences")
	}
}

func TestPickExceedsPool(t *testing.T) {
	eng := sim.New()
	fab, _, _ := newTestFabric(eng) // one link
	_, err := Arm(eng, sim.NewRNG(1), Schedule{{Kind: LinkDown, At: 1, Pick: 5}}, fab)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("pick 5 of 1 link: err = %v, want 'exceeds'", err)
	}
}

// TestArmImpairWindow: an armed corrupt window flips packets only inside
// [At, Until) and the injector surfaces the counters.
func TestArmImpairWindow(t *testing.T) {
	eng := sim.New()
	fab, port, snk := newTestFabric(eng)
	sched := Schedule{{Kind: Corrupt, At: 100 * sim.Microsecond, Until: 600 * sim.Microsecond,
		Impair: ImpairParams{Prob: 1, DropFrac: 1}}}
	inj, err := Arm(eng, sim.NewRNG(5), sched, fab)
	if err != nil {
		t.Fatal(err)
	}
	if !inj.HasImpairments() {
		t.Fatal("HasImpairments = false with a corrupt window armed")
	}
	for i := 0; i < 1000; i++ {
		i := i
		eng.At(int64(i)*sim.Microsecond, func() {
			port.Send(&netem.Packet{ID: uint64(i), Wire: 125})
		})
	}
	eng.Run()
	st := inj.ImpairStats()
	// Prob 1 + drop 1: exactly the in-window packets flip and die.
	if st.Corrupted != 500 || st.CorruptDrops != 500 {
		t.Fatalf("corrupted %d / dropped %d, want 500 / 500", st.Corrupted, st.CorruptDrops)
	}
	if len(snk.pkts) != 500 {
		t.Fatalf("delivered %d, want the 500 out-of-window packets", len(snk.pkts))
	}
}
