package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// The postponed-timer property: a Timer whose later Resets only record an
// identity fires at the same instants, in the same place of the total
// order, and leaves Processed and Pending exactly as an eagerly re-armed
// timer does. The oracle lives here, as the timer was before postponing:
// every Reset cancels the queued expiry and schedules a fresh one.

type timerAPI interface {
	Reset(d int64)
	Stop() bool
	Armed() bool
	Deadline() int64
}

type eagerTimer struct {
	eng *Engine
	ev  Handle
	fn  func()
}

func eagerExpire(a any) { a.(*eagerTimer).fn() }

func (t *eagerTimer) Reset(d int64) {
	t.ev.Cancel()
	t.ev = t.eng.ScheduleArg(d, eagerExpire, t)
}

func (t *eagerTimer) Stop() bool {
	armed := t.ev.Pending()
	t.ev.Cancel()
	return armed
}

func (t *eagerTimer) Armed() bool     { return t.ev.Pending() }
func (t *eagerTimer) Deadline() int64 { return t.ev.Time() }

const (
	ppGrid      = 1000 // op instants and short delays sit on a 1 µs grid
	ppLookahead = 2 * ppGrid
	ppTimers    = 3
)

// ppDelays mixes same-instant, sub-tick, in-wheel and overflow-heap delays.
var ppDelays = []int64{0, 0, ppGrid, ppGrid, 2 * ppGrid, 5 * ppGrid,
	300 * Microsecond, 1200 * Microsecond, 3 * Millisecond}

// ppOp is one scripted action. kind: 'r' Reset, 'R' two Resets in one
// callback, 's' Stop, 'a' Armed and Deadline, 'u' an unrelated event, 'x'
// a Reset sent to another shard. mode picks the Reset delay: 0 d, 1 the
// current deadline, 2 d before it, 3 d after it.
type ppOp struct {
	at, lead int64 // lead < 0: armed at setup
	shard    int
	kind     byte
	timer    int
	mode     int
	d, d2    int64
}

type ppRec struct {
	Kind byte
	ID   int
	T    int64
	V    int64
}

type ppWorld struct {
	engs   []*Engine
	timers [][]timerAPI
	logs   [][]ppRec
	ops    []ppOp
	// In a Group, a shard's Pending counts a remote Reset from the moment
	// it is sent, and whether the destination has run that window yet
	// follows where windows fall, which follows PeekTime, which a
	// postponed expiry may report early. So a Group's records carry
	// Pending net of sent, unfired remote Resets, which the model alone
	// fixes: inbox counts each shard's until they fire.
	group bool
	inbox []int
}

func genPPOps(rng *rand.Rand, shards int) []ppOp {
	instants := make([]int64, 3+rng.Intn(12))
	for i := range instants {
		instants[i] = rng.Int63n(4000) * ppGrid
	}
	kinds := []byte("rrrrrRsauuuux")
	ops := make([]ppOp, 20+rng.Intn(200))
	for i := range ops {
		op := ppOp{
			at:    instants[rng.Intn(len(instants))],
			lead:  -1,
			shard: rng.Intn(shards),
			kind:  kinds[rng.Intn(len(kinds))],
			timer: rng.Intn(ppTimers),
			mode:  rng.Intn(4),
			d:     ppDelays[rng.Intn(len(ppDelays))],
			d2:    ppDelays[rng.Intn(len(ppDelays))],
		}
		if rng.Intn(3) > 0 {
			op.lead = min(op.at, []int64{0, ppGrid, 3 * ppGrid}[rng.Intn(3)])
		}
		ops[i] = op
	}
	return ops
}

func (w *ppWorld) log(shard int, r ppRec) { w.logs[shard] = append(w.logs[shard], r) }

// pending is the shard's Pending, net of sent remote Resets in a Group.
func (w *ppWorld) pending(shard int) int64 {
	n := w.engs[shard].Pending()
	if w.group {
		n -= w.inbox[shard]
	}
	return int64(n)
}

// delay resolves an op's Reset delay against the timer's current deadline.
func (w *ppWorld) delay(e *Engine, tm timerAPI, mode int, d int64) int64 {
	dl := tm.Deadline()
	if dl < 0 || mode == 0 {
		return d
	}
	switch mode {
	case 1:
		return dl - e.Now()
	case 2:
		return max(0, dl-e.Now()-d)
	}
	return dl - e.Now() + d
}

func (w *ppWorld) act(a any) {
	i := a.(int)
	op := w.ops[i]
	e := w.engs[op.shard]
	tm := w.timers[op.shard][op.timer]
	switch op.kind {
	case 'r':
		tm.Reset(w.delay(e, tm, op.mode, op.d))
	case 'R':
		tm.Reset(w.delay(e, tm, op.mode, op.d))
		tm.Reset(w.delay(e, tm, 3-op.mode, op.d2))
	case 's':
		v := int64(0)
		if tm.Stop() {
			v = 1
		}
		w.log(op.shard, ppRec{'s', i, e.Now(), v})
	case 'a':
		v := tm.Deadline()
		if !tm.Armed() {
			v = -2 - v
		}
		w.log(op.shard, ppRec{'a', i, e.Now(), v})
	case 'u':
		e.ScheduleArg(op.d, w.unrelated, i)
	case 'x':
		dst := (op.shard + 1) % len(w.engs)
		e.ScheduleRemoteArg(w.engs[dst], ppLookahead+op.d, w.remoteReset, i)
		w.inbox[dst]++
	}
	w.log(op.shard, ppRec{'p', i, e.Now(), w.pending(op.shard)})
}

func (w *ppWorld) unrelated(a any) {
	op := w.ops[a.(int)]
	w.log(op.shard, ppRec{'u', a.(int), w.engs[op.shard].Now(), 0})
}

func (w *ppWorld) remoteReset(a any) {
	op := w.ops[a.(int)]
	shard := (op.shard + 1) % len(w.engs)
	e := w.engs[shard]
	w.inbox[shard]--
	tm := w.timers[shard][op.timer]
	tm.Reset(w.delay(e, tm, op.mode, op.d2))
	w.log(shard, ppRec{'x', a.(int), e.Now(), w.pending(shard)})
}

// runPP plays ops on fresh engines — one, or the shards of a Group — with
// postponing timers or the eager oracle, and returns every shard's log and
// the final Processed and Pending counts.
func runPP(o Options, shards int, eager bool, ops []ppOp) ([][]ppRec, uint64, int) {
	w := &ppWorld{ops: ops, logs: make([][]ppRec, shards), timers: make([][]timerAPI, shards),
		inbox: make([]int, shards)}
	var g *Group
	if shards > 1 {
		g = NewGroup(shards, o)
		g.SetLookahead(ppLookahead)
		w.group = true
		for i := 0; i < shards; i++ {
			w.engs = append(w.engs, g.Engine(i))
		}
	} else {
		w.engs = []*Engine{NewWith(o)}
	}
	for s, e := range w.engs {
		for id := 0; id < ppTimers; id++ {
			s, e, id := s, e, id
			var tm timerAPI
			fire := func() {
				w.log(s, ppRec{'f', id, e.Now(), w.pending(s)})
				// Some expiries re-arm from their own callback, at least a
				// grid step later so the chain ends.
				if k := e.Now()/ppGrid + int64(id); k%3 == 0 && e.Now() < 8*Millisecond {
					tm.Reset(ppGrid + ppDelays[k%int64(len(ppDelays))])
				}
			}
			if eager {
				tm = &eagerTimer{eng: e, fn: fire}
			} else {
				tm = NewTimer(e, fire)
			}
			w.timers[s] = append(w.timers[s], tm)
		}
	}
	launch := func(a any) {
		op := w.ops[a.(int)]
		w.engs[op.shard].ScheduleArg(op.lead, w.act, a)
	}
	for i, op := range ops {
		e := w.engs[op.shard]
		if op.lead < 0 {
			e.AtArg(op.at, w.act, i)
		} else {
			e.AtArg(op.at-op.lead, launch, i)
		}
	}
	if g != nil {
		g.RunUntil(Second) // past every op and re-arm
		return w.logs, g.Processed(), g.Pending()
	}
	w.engs[0].Run()
	return w.logs, w.engs[0].Processed, w.engs[0].Pending()
}

func TestTimerPostponeMatchesEagerQuick(t *testing.T) {
	configs := []struct {
		name   string
		o      Options
		shards int
	}{
		{"wheel", Options{}, 1},
		{"nowheel", Options{NoWheel: true}, 1},
		{"noslab", Options{NoSlab: true}, 1},
		{"group2", Options{}, 2},
	}
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			prop := func(seed int64) bool {
				ops := genPPOps(rand.New(rand.NewSource(seed)), c.shards)
				wantLog, wantProc, wantPend := runPP(c.o, c.shards, true, ops)
				gotLog, gotProc, gotPend := runPP(c.o, c.shards, false, ops)
				if !reflect.DeepEqual(gotLog, wantLog) {
					for s := range wantLog {
						if d := firstDiff(gotLog[s], wantLog[s]); d != "" {
							t.Logf("seed %d shard %d: %s", seed, s, d)
						}
					}
					return false
				}
				if gotProc != wantProc || gotPend != wantPend {
					t.Logf("seed %d: Processed %d Pending %d, eager oracle %d and %d",
						seed, gotProc, gotPend, wantProc, wantPend)
					return false
				}
				return true
			}
			cfg := &quick.Config{MaxCount: 300}
			if testing.Short() {
				cfg.MaxCount = 60
			}
			if err := quick.Check(prop, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func firstDiff(got, want []ppRec) string {
	for i := 0; i < min(len(got), len(want)); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("record %d: postponed %+v, eager %+v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("postponed logged %d records, eager %d", len(got), len(want))
	}
	return ""
}
