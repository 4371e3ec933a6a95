// Fixture for the detrand analyzer: loaded by atest under the package
// path hwatch/internal/sim/a, which is inside the determinism scope.
package a

import (
	"fmt"
	"math/rand"
	"time"
)

// Minimal stand-ins for the simulator types the analyzer recognizes by
// name (receiver type Engine, receiver type Digest).
type Event struct{}

type Engine struct{ now int64 }

func (e *Engine) Schedule(delay int64, fn func()) *Event                      { return &Event{} }
func (e *Engine) ScheduleArg(d int64, fn func(any), a any) *Event             { return &Event{} }
func (e *Engine) ScheduleRemoteArg(dst *Engine, d int64, fn func(any), a any) {}
func (e *Engine) Now() int64                                                  { return e.now }
func (e *Engine) RunUntil(horizon int64)                                      {}

type Digest struct{ h uint64 }

func (d *Digest) Add(v uint64) { d.h ^= v }

func wallClock(e *Engine) {
	_ = time.Now()          // want `time.Now is wall clock`
	t := time.Unix(0, 0)    // time.Unix is pure conversion: allowed
	_ = time.Since(t)       // want `time.Since is wall clock`
	time.Sleep(time.Second) // want `time.Sleep is wall clock`
	_ = e.Now()             // engine clock: the sanctioned path
}

func globalRand() {
	_ = rand.Int() // want `rand.Int draws from the global, unseeded RNG`
	r := rand.New(rand.NewSource(42))
	_ = r.Int() // seeded instance: allowed
}

func mapOrderDirect(e *Engine, m map[int]func()) {
	for _, fn := range m { // want `map iteration order can reach Engine.Schedule`
		e.Schedule(1, fn)
	}
}

func mapOrderDigest(d *Digest, m map[int]uint64) {
	for _, v := range m { // want `map iteration order can reach a digest`
		d.Add(v)
	}
}

func mapOrderOutput(m map[string]int) {
	for k, v := range m { // want `map iteration order can reach emitted output`
		fmt.Println(k, v)
	}
}

// helper reaches Engine.Schedule one static call away; the interprocedural
// reacher must see through it.
func helper(e *Engine) { e.Schedule(1, noop) }

func noop() {}

func mapOrderViaHelper(e *Engine, m map[int]int) {
	for range m { // want `map iteration order can reach Engine.Schedule \(via helper\)`
		helper(e)
	}
}

func mapOrderBenign(m map[int]int) int {
	// Pure accumulation: commutative, order-insensitive, no sink reached.
	sum := 0
	for _, v := range m {
		sum += v
	}
	return sum
}

func suppressed(e *Engine, m map[int]func()) {
	//hwatchvet:allow detrand exercised by the directive fixture: order is proven commutative here
	for _, fn := range m {
		e.Schedule(1, fn)
	}
}

// Cross-shard hazards: channel receive order is goroutine scheduling, so a
// receive that can reach the event queue makes the event order depend on
// it.

func chanOrderDirect(e *Engine, ch chan func()) {
	for fn := range ch { // want `channel receive order can reach Engine.Schedule`
		e.Schedule(1, fn)
	}
}

func mapOrderRemote(e, dst *Engine, m map[int]int) {
	for v := range m { // want `map iteration order can reach Engine.ScheduleRemoteArg`
		e.ScheduleRemoteArg(dst, 1, handleAny, v)
	}
}

func handleAny(any) {}

func chanOrderRemote(e, dst *Engine, ch chan int) {
	for v := range ch { // want `channel receive order can reach Engine.ScheduleRemoteArg`
		e.ScheduleRemoteArg(dst, 1, handleAny, v)
	}
}

func selectOrder(e *Engine, a, b chan func()) {
	select {
	case fn := <-a: // want `select receive arm can reach Engine.Schedule`
		e.Schedule(1, fn)
	case fn := <-b: // want `select receive arm can reach Engine.Schedule`
		e.Schedule(1, fn)
	}
}

func selectSingleArm(e *Engine, a chan func()) {
	// One receive arm: nothing to race, no ordering choice lost.
	select {
	case fn := <-a:
		e.Schedule(1, fn)
	}
}

func recvFeedsSink(e *Engine, ch chan int) {
	e.ScheduleArg(1, handleAny, <-ch) // want `channel receive feeds Engine.ScheduleArg directly`
}

func chanOrderBenign(ch chan int) int {
	// Pure accumulation off a channel: commutative, no sink reached.
	sum := 0
	for v := range ch {
		sum += v
	}
	return sum
}

func windowLoop(e *Engine, cmd chan int64) {
	// Window ends off a channel only drive RunUntil, which schedules
	// nothing: the receive order never reaches the event queue.
	for end := range cmd {
		e.RunUntil(end)
	}
}
