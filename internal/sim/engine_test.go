package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestEventLayout pins the layout the event store's cost rests on.
func TestEventLayout(t *testing.T) {
	var ev event
	if end := unsafe.Offsetof(ev.next) + unsafe.Sizeof(ev.next); end > 64 {
		t.Errorf("event.next ends at byte %d: the slot walk in refillDue reads next and sortDue reads the order key, so both belong in the event's first 64 bytes", end)
	}
	if end := unsafe.Offsetof(ev.seq) + unsafe.Sizeof(ev.seq); end > 64 {
		t.Errorf("the order key ends at byte %d: eventBefore must read (Time, sched, rank, seq) from the event's first 64 bytes", end)
	}
	if end := max(unsafe.Offsetof(ev.next), unsafe.Offsetof(ev.Time), unsafe.Offsetof(ev.sched)) + 8; end > 24 {
		t.Errorf("next, Time and sched end at byte %d: slab events start 32 bytes apart within a cache line, and only the first 24 bytes share one line at both offsets", end)
	}
	if sz := unsafe.Sizeof(ev); sz != 96 {
		t.Errorf("event is %d B, want 96: slabSize events of 96 B plus the runtime's 8 B header fill the 24 KiB size class", sz)
	}
}

func TestScheduleOrdering(t *testing.T) {
	e := New()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %d, want 30", e.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events not FIFO at %d: %v", i, got[:i+1])
		}
	}
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	ev := e.Schedule(10, func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if ev.Pending() {
		t.Fatal("Pending() = true after Cancel")
	}
	// Double-cancel and cancelling the zero handle must not panic.
	ev.Cancel()
	Handle{}.Cancel()
}

func TestCancelRemovesEagerly(t *testing.T) {
	e := New()
	ev := e.Schedule(1000, func() {})
	keep := e.Schedule(2000, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	ev.Cancel()
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d after cancel, want 1 (eager removal)", e.Pending())
	}
	// Double-cancel stays a no-op and must not disturb the survivor.
	ev.Cancel()
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d after double cancel, want 1", e.Pending())
	}
	e.Run()
	if keep.Pending() {
		t.Fatal("surviving event did not fire")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after Run, want 0", e.Pending())
	}
	// Long-lived timers must not leak queue slots: arm/cancel many times.
	for i := 0; i < 10000; i++ {
		e.Schedule(1<<40, func() {}).Cancel()
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after arm/cancel churn, want 0", e.Pending())
	}
}

// Table-driven determinism check: an interleaved mix of Schedule, At and
// Cancel operations — many landing on identical timestamps — must fire in
// the same order every time, for several operation-mix seeds.
func TestDeterministicOrderUnderCancel(t *testing.T) {
	cases := []struct {
		name string
		seed int64
		ops  int
	}{
		{"seed1", 1, 300},
		{"seed7", 7, 500},
		{"seed42", 42, 800},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			trial := func() []int {
				rng := rand.New(rand.NewSource(tc.seed))
				e := New()
				var order []int
				var evs []Handle
				for i := 0; i < tc.ops; i++ {
					id := i
					// Coarse time grid so many events collide on the
					// same instant and FIFO tie-breaking is exercised.
					at := int64(rng.Intn(16)) * 10
					switch rng.Intn(4) {
					case 0, 1:
						evs = append(evs, e.Schedule(at, func() { order = append(order, id) }))
					case 2:
						evs = append(evs, e.At(at, func() { order = append(order, id) }))
					case 3:
						if len(evs) > 0 {
							evs[rng.Intn(len(evs))].Cancel()
						}
					}
				}
				e.Run()
				return order
			}
			a, b := trial(), trial()
			if len(a) != len(b) {
				t.Fatalf("fired %d vs %d events across identical trials", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("firing order diverged at %d: %d vs %d", i, a[i], b[i])
				}
			}
		})
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	e := New()
	e.Schedule(100, func() {})
	e.RunUntil(50)
	if e.Now() != 50 {
		t.Fatalf("Now = %d, want horizon 50", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	e.RunUntil(200)
	if e.Now() != 200 {
		t.Fatalf("Now = %d, want 200", e.Now())
	}
}

func TestStop(t *testing.T) {
	e := New()
	n := 0
	for i := 0; i < 10; i++ {
		e.Schedule(int64(i), func() {
			n++
			if n == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if n != 3 {
		t.Fatalf("executed %d events after Stop, want 3", n)
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 1000 {
			e.Schedule(1, recurse)
		}
	}
	e.Schedule(0, recurse)
	e.Run()
	if depth != 1000 {
		t.Fatalf("depth = %d, want 1000", depth)
	}
	if e.Now() != 999 {
		t.Fatalf("Now = %d, want 999", e.Now())
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative delay")
		}
	}()
	New().Schedule(-1, func() {})
}

func TestAtPastPanics(t *testing.T) {
	e := New()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic scheduling in the past")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

// Property: for any multiset of delays, events fire in nondecreasing time
// order and the engine processes exactly len(delays) events.
func TestPropertyFiringOrder(t *testing.T) {
	f := func(raw []uint16) bool {
		e := New()
		var fired []int64
		for _, d := range raw {
			e.Schedule(int64(d), func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(raw) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		return e.Processed == uint64(len(raw))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: random interleaving of schedule/cancel never fires a cancelled
// event and fires every non-cancelled one.
func TestPropertyCancelSoundness(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		type rec struct {
			ev        Handle
			cancelled bool
			fired     bool
		}
		recs := make([]*rec, 0, n)
		for i := 0; i < int(n); i++ {
			r := &rec{}
			r.ev = e.Schedule(rng.Int63n(1000), func() { r.fired = true })
			recs = append(recs, r)
		}
		for _, r := range recs {
			if rng.Intn(2) == 0 {
				r.cancelled = true
				r.ev.Cancel()
			}
		}
		e.Run()
		for _, r := range recs {
			if r.cancelled == r.fired {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTimerResetStop(t *testing.T) {
	e := New()
	fires := 0
	tm := NewTimer(e, func() { fires++ })
	if tm.Armed() {
		t.Fatal("new timer armed")
	}
	if tm.Deadline() != -1 {
		t.Fatal("disarmed timer has a deadline")
	}
	tm.Reset(100)
	if !tm.Armed() || tm.Deadline() != 100 {
		t.Fatalf("armed=%v deadline=%d", tm.Armed(), tm.Deadline())
	}
	tm.Reset(200) // re-arm replaces the old expiry
	e.Run()
	if fires != 1 {
		t.Fatalf("fires = %d, want 1 (Reset must cancel prior expiry)", fires)
	}
	if e.Now() != 200 {
		t.Fatalf("fired at %d, want 200", e.Now())
	}

	tm.Reset(50)
	if !tm.Stop() {
		t.Fatal("Stop reported no pending expiry")
	}
	if tm.Stop() {
		t.Fatal("second Stop reported a pending expiry")
	}
	e.Run()
	if fires != 1 {
		t.Fatalf("stopped timer fired; fires = %d", fires)
	}
}

func TestTimerRearmFromCallback(t *testing.T) {
	e := New()
	count := 0
	var tm *Timer
	tm = NewTimer(e, func() {
		count++
		if count < 5 {
			tm.Reset(10)
		}
	})
	tm.Reset(10)
	e.Run()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if e.Now() != 50 {
		t.Fatalf("Now = %d, want 50", e.Now())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRNG(1).Int63() == NewRNG(2).Int63() {
		t.Fatal("different seeds produced identical first draw (suspicious)")
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(7)
	const mean = 1000
	var sum int64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Exp(mean)
	}
	got := float64(sum) / n
	if got < 0.95*mean || got > 1.05*mean {
		t.Fatalf("empirical mean %.1f, want ~%d", got, mean)
	}
	if r.Exp(0) != 0 || r.Exp(-5) != 0 {
		t.Fatal("non-positive mean must yield 0")
	}
}

func TestRNGUniformRange(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		v := r.UniformRange(10, 20)
		if v < 10 || v > 20 {
			t.Fatalf("UniformRange out of bounds: %d", v)
		}
	}
	if r.UniformRange(5, 5) != 5 || r.UniformRange(9, 3) != 9 {
		t.Fatal("degenerate ranges mishandled")
	}
}

func TestRNGPareto(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 10000; i++ {
		v := r.Pareto(1.2, 100, 10000)
		if v < 100 || v > 10000 {
			t.Fatalf("Pareto out of bounds: %d", v)
		}
	}
	if r.Pareto(0, 100, 1000) != 100 {
		t.Fatal("bad shape must return scale")
	}
}

func TestRNGForkIndependence(t *testing.T) {
	parent := NewRNG(5)
	c1 := parent.Fork()
	c2 := parent.Fork()
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Int63() == c2.Int63() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("forked streams correlated: %d/100 identical draws", same)
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := New()
		for j := 0; j < 1000; j++ {
			e.Schedule(int64(j%97), func() {})
		}
		e.Run()
	}
}
