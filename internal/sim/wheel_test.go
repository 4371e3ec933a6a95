package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// wheelOp is one step of a generated scheduler workload. The same op list
// is replayed against the wheel engine and the plain-heap oracle, so any
// divergence in firing order or observable state is a wheel bug.
type wheelOp struct {
	kind  int   // 0: schedule, 1: cancel, 2: nested schedule-from-callback, 3: cancel a dead handle
	delay int64 // relative to now at execution
	pick  int   // which earlier event a cancel targets
}

// genOps builds a workload that straddles every scheduler regime: same-tick
// inserts, intra-wheel slots, far-future overflow promotion, zero-delay
// storms, and cancels against all of them.
func genOps(rng *rand.Rand, n int) []wheelOp {
	ops := make([]wheelOp, n)
	for i := range ops {
		op := wheelOp{kind: rng.Intn(4), pick: rng.Int()}
		switch rng.Intn(5) {
		case 0: // same instant / same tick
			op.delay = rng.Int63n(1 << tickBits)
		case 1: // inside the wheel window
			op.delay = rng.Int63n(numSlots << tickBits)
		case 2: // straddling the wheel horizon
			op.delay = (numSlots << tickBits) + rng.Int63n(4<<tickBits) - 2<<tickBits
		case 3: // deep overflow
			op.delay = rng.Int63n(1 << 40)
		case 4: // zero delay
			op.delay = 0
		}
		if op.delay < 0 {
			op.delay = 0
		}
		ops[i] = op
	}
	return ops
}

// stagedShells counts cancelled events still occupying a wheel slot or the
// agenda: their slots are neither pending nor free until the tick drains.
func (e *Engine) stagedShells() int {
	n := 0
	for _, ev := range e.due[e.dueIdx:] {
		if ev.fn == nil {
			n++
		}
	}
	for s := range e.slots {
		for _, ev := range e.slots[s] {
			if ev.fn == nil {
				n++
			}
		}
	}
	return n
}

// freeSlots walks the free list.
func (e *Engine) freeSlots() int {
	n := 0
	for ev := e.free; ev != nil; ev = ev.next {
		n++
	}
	return n
}

// checkSlotBooks verifies that every slot ever carved is exactly one of
// pending, a staged shell, or on the free list: none leaked, none freed
// twice.
func checkSlotBooks(e *Engine) error {
	if e.noSlab {
		return nil
	}
	if shells, free := e.stagedShells(), e.freeSlots(); e.minted != e.live+shells+free {
		return fmt.Errorf("slot books: minted %d != pending %d + shells %d + free %d",
			e.minted, e.live, shells, free)
	}
	return nil
}

// runOps drives one engine through the workload. It returns the event IDs
// in firing order and the externally visible state after every op:
// Engine.Pending, and for cancel ops the target and whether it was still
// pending. Slab engines also have their slot books checked after every op.
func runOps(e *Engine, ops []wheelOp) (fired, state []int, err error) {
	var handles []Handle
	next := 0
	for i, op := range ops {
		switch op.kind {
		case 0:
			id := next
			next++
			handles = append(handles, e.Schedule(op.delay, func() { fired = append(fired, id) }))
		case 1:
			if len(handles) > 0 {
				k := op.pick % len(handles)
				state = append(state, k, btoi(handles[k].Pending()))
				handles[k].Cancel()
			}
		case 2:
			id := next
			next++
			d := op.delay
			handles = append(handles, e.Schedule(d, func() {
				fired = append(fired, id)
				// Reschedule deterministically from inside the callback,
				// exercising dueInsert and slot inserts mid-drain.
				nid := -id - 1
				e.Schedule(d%(1<<tickBits+3), func() { fired = append(fired, nid) })
			}))
		case 3:
			// The recycling hazard: cancel a handle whose event fired or
			// was cancelled some schedules ago, so its slot has likely been
			// reused. Nothing may change.
			for k := len(handles) - 1 - op.pick%64; k >= 0; k-- {
				if !handles[k].Pending() {
					before := e.Pending()
					handles[k].Cancel()
					if handles[k].Pending() || handles[k].Time() != -1 || e.Pending() != before {
						return nil, nil, fmt.Errorf("op %d: Cancel on dead handle %d changed state", i, k)
					}
					state = append(state, k)
					break
				}
			}
		}
		// Interleave partial runs so events are consumed while later ops
		// still schedule into drained ticks.
		if op.pick%7 == 0 {
			e.RunUntil(e.Now() + op.delay/2)
		}
		state = append(state, e.Pending())
		if err := checkSlotBooks(e); err != nil {
			return nil, nil, fmt.Errorf("op %d: %v", i, err)
		}
	}
	e.Run()
	state = append(state, e.Pending())
	return fired, state, checkSlotBooks(e)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// diffOracle replays ops on the recycling engines (calendar queue, and the
// plain heap over the same slab) and on the {NoWheel, NoSlab} oracle, which
// allocates every event and reuses nothing. Fire order and every observed
// Pending must be identical.
func diffOracle(ops []wheelOp) error {
	wantFired, wantState, err := runOps(NewWith(Options{NoWheel: true, NoSlab: true}), ops)
	if err != nil {
		return fmt.Errorf("oracle: %v", err)
	}
	for _, opt := range []Options{{}, {NoWheel: true}} {
		fired, state, err := runOps(NewWith(opt), ops)
		if err != nil {
			return fmt.Errorf("%+v: %v", opt, err)
		}
		if !slices.Equal(fired, wantFired) {
			return fmt.Errorf("%+v: fire order diverges from oracle (%d vs %d events)", opt, len(fired), len(wantFired))
		}
		if !slices.Equal(state, wantState) {
			return fmt.Errorf("%+v: Pending trace diverges from oracle", opt)
		}
	}
	return nil
}

// TestWheelMatchesHeapOracle is the equivalence harness the scheduler and
// the recycling event store rest on: for arbitrary schedule/cancel/nested
// workloads, including cancels of long-dead handles, the production engine
// must be indistinguishable from the retired plain-heap scheduler that
// never reuses an event (Options{NoWheel, NoSlab}).
func TestWheelMatchesHeapOracle(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw%600) + 5
		if err := diffOracle(genOps(rand.New(rand.NewSource(seed)), n)); err != nil {
			t.Logf("seed %d n %d: %v", seed, n, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// FuzzEventSlab feeds byte-derived workloads to the same oracle comparison:
// three bytes per op select the kind, the delay regime and magnitude, and
// the cancel target.
func FuzzEventSlab(f *testing.F) {
	f.Add([]byte("schedule-fire-reuse-cancel"))
	f.Add([]byte{0, 3, 9, 1, 0, 0, 0, 3, 9, 3, 0, 0})          // overflow arm, cancel, re-arm, dead cancel
	f.Add([]byte{0, 1, 7, 1, 0, 0, 0, 1, 7, 3, 0, 0, 0, 0, 7}) // wheel shell, then drain
	f.Add([]byte{2, 0, 7, 2, 4, 14, 3, 0, 1, 1, 0, 2, 3, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		// The per-op checks are linear in the handles so far: skip long
		// inputs, so the fuzzer explores new op sequences instead of
		// minimizing long ones.
		if len(data) > 3*200 {
			t.Skip()
		}
		if err := diffOracle(opsFromBytes(data)); err != nil {
			t.Fatal(err)
		}
	})
}

// opsFromBytes decodes a fuzz input, three bytes per op.
func opsFromBytes(data []byte) []wheelOp {
	var ops []wheelOp
	for i := 0; i+2 < len(data); i += 3 {
		op := wheelOp{kind: int(data[i] % 4), pick: int(data[i+2])}
		m := int64(data[i+2])
		switch data[i+1] % 5 {
		case 0:
			op.delay = m << 4
		case 1:
			op.delay = m << tickBits
		case 2:
			op.delay = numSlots<<tickBits + (m-128)<<6
		case 3:
			op.delay = (m + 1) << 30
		}
		ops = append(ops, op)
	}
	return ops
}

// TestWheelClockMatchesOracle checks the observable clock/pending state of
// both engines across horizon-bounded partial runs.
func TestWheelClockMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		wheel := NewWith(Options{})
		oracle := NewWith(Options{NoWheel: true})
		for i := 0; i < 40; i++ {
			d := rng.Int63n(3 << (tickBits + 4))
			wheel.Schedule(d, func() {})
			oracle.Schedule(d, func() {})
			if i%5 == 0 {
				h := wheel.Now() + rng.Int63n(1<<(tickBits+2))
				wheel.RunUntil(h)
				oracle.RunUntil(h)
				if wheel.Now() != oracle.Now() || wheel.Pending() != oracle.Pending() {
					t.Logf("seed %d: now %d/%d pending %d/%d", seed,
						wheel.Now(), oracle.Now(), wheel.Pending(), oracle.Pending())
					return false
				}
			}
		}
		wheel.Run()
		oracle.Run()
		return wheel.Now() == oracle.Now() && wheel.Processed == oracle.Processed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestLateCancelAfterFireIsInert is the hazard recycling creates: A fires
// (or is cancelled), B is scheduled and — on a slab engine — lands in A's
// slot, then model code cancels its stale handle to A. B must survive with
// Pending exact, wherever B resides: the agenda, a wheel slot or the
// overflow heap.
func TestLateCancelAfterFireIsInert(t *testing.T) {
	residency := []struct {
		name  string
		delay int64
	}{
		{"agenda", 1},
		{"wheel", 8 << tickBits},
		{"overflow", 1 << 40},
	}
	for _, opt := range []Options{{}, {NoWheel: true}, {NoWheel: true, NoSlab: true}} {
		for _, res := range residency {
			for _, how := range []string{"fired", "cancelled"} {
				e := NewWith(opt)
				e.Schedule(5, func() {})
				e.Run() // the agenda now covers tick 0
				var a Handle
				if how == "fired" {
					a = e.Schedule(5, func() {})
					e.Run()
				} else {
					a = e.Schedule(1<<40, func() {})
					a.Cancel()
				}
				if a.Pending() || a.Time() != -1 {
					t.Fatalf("%+v %s: dead handle reads Pending=%v Time=%d", opt, how, a.Pending(), a.Time())
				}

				fired := false
				b := e.Schedule(res.delay, func() { fired = true })
				if !opt.NoSlab && b.ev != a.ev {
					t.Fatalf("%+v %s/%s: B did not reuse A's slot; the test no longer exercises the hazard", opt, how, res.name)
				}
				a.Cancel()
				if !b.Pending() || b.Time() != e.Now()+res.delay || e.Pending() != 1 {
					t.Fatalf("%+v %s/%s: late Cancel hit the slot's new occupant: Pending=%v Time=%d engine=%d",
						opt, how, res.name, b.Pending(), b.Time(), e.Pending())
				}
				e.Run()
				if !fired || b.Pending() || e.Pending() != 0 {
					t.Fatalf("%+v %s/%s: fired=%v Pending=%v engine=%d after Run", opt, how, res.name, fired, b.Pending(), e.Pending())
				}
			}
		}
	}
}

// TestCancelledShellSlotReusedAfterDrain covers the third release point: an
// event cancelled while staged in the wheel keeps its slot until the tick
// drains, and only then may a new event take it — with the old handle
// still inert.
func TestCancelledShellSlotReusedAfterDrain(t *testing.T) {
	e := NewWith(Options{})
	a := e.Schedule(8<<tickBits, func() { t.Fatal("cancelled event fired") })
	a.Cancel()
	if e.freeSlots() != 0 || e.stagedShells() != 1 {
		t.Fatalf("free=%d shells=%d after wheel cancel, want 0 and 1", e.freeSlots(), e.stagedShells())
	}
	b := e.Schedule(1, func() {})
	if b.ev == a.ev {
		t.Fatal("staged shell's slot handed out before its tick drained")
	}
	e.RunUntil(16 << tickBits)
	if e.freeSlots() != 2 || e.stagedShells() != 0 {
		t.Fatalf("free=%d shells=%d after drain, want 2 and 0", e.freeSlots(), e.stagedShells())
	}
	fired := false
	c := e.Schedule(1, func() { fired = true })
	d := e.Schedule(1, func() {})
	if c.ev != a.ev && d.ev != a.ev {
		t.Fatal("drained shell's slot was not recycled")
	}
	a.Cancel()
	b.Cancel()
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d after stale cancels, want 2", e.Pending())
	}
	e.Run()
	if !fired {
		t.Fatal("stale Cancel killed the slot's new occupant")
	}
}

// TestSteadyStateAllocatesNothing pins the point of recycling: once the
// slab, the free list and the wheel's slot slices have grown to the
// workload's live set, scheduling allocates nothing — whether events fire,
// are cancelled in the wheel (lazy shells), are cancelled in the overflow
// heap (eager removal), or belong to a Timer being re-armed.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	nop := func(any) {}
	const span = numSlots << tickBits
	cases := []struct {
		name string
		run  func(e *Engine, tm *Timer)
	}{
		{"schedule-fire", func(e *Engine, _ *Timer) {
			for j := int64(0); j < 64; j++ {
				e.ScheduleArg(j*977%span, nop, nil)
			}
			e.RunUntil(e.Now() + span)
		}},
		{"schedule-cancel-wheel", func(e *Engine, _ *Timer) {
			var hs [64]Handle
			for j := range hs {
				hs[j] = e.ScheduleArg(int64(j)*977%span, nop, nil)
			}
			for _, h := range hs {
				h.Cancel()
			}
			e.RunUntil(e.Now() + span)
		}},
		{"schedule-cancel-overflow", func(e *Engine, _ *Timer) {
			for j := 0; j < 64; j++ {
				e.ScheduleArg(200*Millisecond, nop, nil).Cancel()
			}
		}},
		{"timer-reset", func(e *Engine, tm *Timer) {
			for j := 0; j < 64; j++ {
				tm.Reset(200 * Millisecond)
			}
			tm.Reset(span / 2)
			e.RunUntil(e.Now() + span)
		}},
	}
	for _, tc := range cases {
		e := New()
		tm := NewTimer(e, func() {})
		for i := 0; i < 4; i++ { // grow everything once
			tc.run(e, tm)
		}
		if n := testing.AllocsPerRun(100, func() { tc.run(e, tm) }); n != 0 {
			t.Errorf("%s: %v allocs per run in steady state, want 0", tc.name, n)
		}
	}
}

// BenchmarkEngineHeapOracle is the schedule+fire cycle at mixed horizons
// (the loop behind bench/'s sim.schedule_fire_ns driver) on the NoWheel
// engine, so the wheel's win stays measurable.
func BenchmarkEngineHeapOracle(b *testing.B) {
	e := NewWith(Options{NoWheel: true})
	fn := func(any) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleArg(int64(i%977)*512, fn, nil)
		if e.Pending() > 4096 {
			e.Run()
		}
	}
	e.Run()
}
