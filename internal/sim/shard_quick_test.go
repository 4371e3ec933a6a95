package sim

import (
	"cmp"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

// The quick property: on a random topology of message-passing nodes, the
// per-node fire order (time + payload of every delivery, in the order the
// owning engine ran them) is identical whether the nodes share one engine
// or are partitioned across k shards of a Group. The cascade derives every
// choice — fan-out, destination, delay, payload — from mix64 hashes of the
// payload alone, so any disagreement is an ordering leak in the shard
// protocol, not model nondeterminism.

// qlookahead is the group window width; every cross-node delay is at least
// this, while self-sends may land sub-window and even same-instant to
// exercise the (Time, sched, rank, seq) tie-break.
const qlookahead = 8

type qrec struct {
	T int64
	X uint64
}

type qnode struct {
	eng   *Engine
	net   *qnet
	trace []qrec
}

type qnet struct{ nodes []*qnode }

// recv records the delivery, then spawns 0–2 children. The low nibble of
// the payload is a hop budget; everything else is hash state.
func (n *qnode) recv(a any) {
	x := a.(uint64)
	n.trace = append(n.trace, qrec{n.eng.Now(), x})
	hops := x & 0xf
	if hops == 0 {
		return
	}
	for c := uint64(0); c < mix64(x)%3; c++ {
		h := mix64(x ^ (c+1)*0x9e3779b97f4a7c15)
		child := (h &^ 0xf) | (hops - 1)
		dst := n.net.nodes[h%uint64(len(n.net.nodes))]
		if dst == n {
			n.eng.ScheduleArg(int64(h>>32)%qlookahead, n.recv, child)
		} else {
			delay := qlookahead + int64(h>>32)%(3*qlookahead)
			n.eng.ScheduleRemoteArg(dst.eng, delay, dst.recv, child)
		}
	}
}

// runQuickCascade builds nNodes nodes partitioned round-robin over shards,
// injects one seeded cascade per node at setup, runs to a fixed horizon,
// and returns each node's delivery trace.
func runQuickCascade(seed uint64, nNodes, shards int) [][]qrec {
	g := NewGroup(shards, Options{})
	g.SetLookahead(qlookahead)
	net := &qnet{}
	for i := 0; i < nNodes; i++ {
		net.nodes = append(net.nodes, &qnode{eng: g.Engine(i % shards), net: net})
	}
	for i, nd := range net.nodes {
		h := mix64(seed + uint64(i))
		nd.eng.AtArg(int64(h%64), nd.recv, (h&^0xf)|8)
	}
	g.RunUntil(1 << 20)
	out := make([][]qrec, nNodes)
	for i, nd := range net.nodes {
		out[i] = nd.trace
	}
	return out
}

// TestShardFireOrderQuick is the satellite property test: for random
// (seed, node count, shard count), the sharded group's fire order agrees
// with the single-loop engine's, node for node, delivery for delivery.
func TestShardFireOrderQuick(t *testing.T) {
	prop := func(seed uint64, nRaw, kRaw uint8) bool {
		n := 2 + int(nRaw%6)
		k := 2 + int(kRaw%3)
		return reflect.DeepEqual(runQuickCascade(seed, n, 1), runQuickCascade(seed, n, k))
	}
	cfg := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfg.MaxCount = 10
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// qident is one event identity of TestInsertOrderIrrelevantQuick, and
// whether the event is cancelled once every identity is in.
type qident struct {
	t, sched  int64
	rank, seq uint64
	cancel    bool
}

// insertAll inserts ids into e in the given order, as a cross-shard send
// does — with the identity the sender fixed — cancels the marked ones,
// runs e dry and returns the indices of ids in the order they fired.
func insertAll(e *Engine, ids []qident, order []int) []int {
	var fired []int
	rec := func(a any) { fired = append(fired, a.(int)) }
	hs := make([]Handle, len(ids))
	for _, i := range order {
		id := ids[i]
		hs[i] = e.insertRemote(id.t, id.sched, id.rank, id.seq, rec, i)
	}
	for i, id := range ids {
		if id.cancel {
			hs[i].Cancel()
		}
	}
	e.Run()
	return fired
}

// TestInsertOrderIrrelevantQuick is the property a window's direct
// cross-shard insert rests on: an engine fires a set of event identities
// in (Time, sched, rank, seq) order, whatever order they were inserted
// in. The identities cover same-instant ties, the tick being drained, the
// wheel's slots, the overflow heap and cancels; both engines have run to
// the same clock first, so the current tick holds a live agenda.
func TestInsertOrderIrrelevantQuick(t *testing.T) {
	prop := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		now := rng.Int63n(1<<20) + 1
		instants := []int64{
			now,                                  // the current instant
			now + rng.Int63n(1<<tickBits),        // the current tick or the next
			now + rng.Int63n(numSlots<<tickBits), // a wheel slot
			now + (numSlots+1+rng.Int63n(64))<<tickBits, // the overflow heap
		}
		ids := make([]qident, 1+int(nRaw%96))
		for i := range ids {
			at := instants[rng.Intn(len(instants))]
			ids[i] = qident{
				t:      at,
				sched:  []int64{0, now / 2, now}[rng.Intn(3)],
				rank:   uint64(rng.Intn(3)),
				seq:    uint64(i), // unique, as across a group
				cancel: rng.Intn(5) == 0,
			}
		}
		var fired [2][]int
		for k := range fired {
			e := NewWith(Options{})
			for i := 0; i < 3; i++ { // a live agenda on the current tick
				e.At(now-int64(i), func() {})
			}
			e.At(now+1, func() {})
			e.RunUntil(now)
			fired[k] = insertAll(e, ids, rng.Perm(len(ids)))
		}
		var want []int
		for i, id := range ids {
			if !id.cancel {
				want = append(want, i)
			}
		}
		slices.SortFunc(want, func(a, b int) int {
			x, y := ids[a], ids[b]
			return cmp.Or(cmp.Compare(x.t, y.t), cmp.Compare(x.sched, y.sched),
				cmp.Compare(x.rank, y.rank), cmp.Compare(x.seq, y.seq))
		})
		return slices.Equal(fired[0], fired[1]) && slices.Equal(fired[0], want)
	}
	cfg := &quick.Config{MaxCount: 200}
	if testing.Short() {
		cfg.MaxCount = 50
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestCrossShardSendBelowLookaheadPanics: inside a window, a send to
// another shard that would land less than a lookahead later panics, as
// a plain send and as a reservation's child; one a full lookahead later
// is legal.
func TestCrossShardSendBelowLookaheadPanics(t *testing.T) {
	const la = 100
	sends := map[string]func(src, dst *Engine, delay int64){
		"ScheduleRemoteArg": func(src, dst *Engine, delay int64) {
			src.ScheduleRemoteArg(dst, delay, func(any) {}, nil)
		},
		"ScheduleRemoteChildArg": func(src, dst *Engine, delay int64) {
			var r Reservation
			src.Reserve(&r, 0)
			src.ScheduleRemoteChildArg(dst, &r, 0, delay, func(any) {}, nil)
		},
	}
	for name, send := range sends {
		for _, c := range []struct {
			delay     int64
			wantPanic bool
		}{{la - 1, true}, {0, true}, {la, false}} {
			g := NewGroup(2, Options{})
			g.SetLookahead(la)
			src, dst := g.Engine(1), g.Engine(0)
			src.At(10, func() { send(src, dst, c.delay) })
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				g.RunUntil(10 * la)
				return false
			}()
			if panicked != c.wantPanic {
				t.Errorf("%s with delay %d (lookahead %d): panicked %v, want %v",
					name, c.delay, la, panicked, c.wantPanic)
			}
		}
	}
}

// TestGroupRunStartsNoGoroutine: a sharded run executes every window on
// the calling goroutine. The poll hook, which every shard calls mid-window,
// sees the goroutine count the run started with.
func TestGroupRunStartsNoGoroutine(t *testing.T) {
	g := NewGroup(4, Options{})
	g.SetLookahead(1000)
	const n = 2 * pollEvery
	for i := 0; i < g.Shards(); i++ {
		src, dst := g.Engine(i), g.Engine((i+1)%g.Shards())
		k := 0
		var tick func()
		tick = func() {
			src.ScheduleRemoteArg(dst, 1000, func(any) {}, nil)
			if k++; k < n {
				src.Schedule(500, tick)
			}
		}
		src.Schedule(0, tick)
	}
	before := runtime.NumGoroutine()
	var polls int
	g.SetPoll(func(int64, uint64) bool {
		polls++
		if got := runtime.NumGoroutine(); got != before {
			t.Errorf("%d goroutines mid-window, %d before the run", got, before)
		}
		return false
	})
	g.RunUntil(int64(n) * 1000)
	if polls == 0 {
		t.Fatal("the poll hook never ran")
	}
}
