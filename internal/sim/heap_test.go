package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// checkHeap verifies the 4-ary heap property and that every entry's idx is
// its position.
func checkHeap(t *testing.T, h eventHeap) {
	t.Helper()
	for i, ev := range h {
		if int(ev.idx) != i {
			t.Fatalf("entry at %d records idx %d", i, ev.idx)
		}
		if i > 0 && eventBefore(ev, h[(i-1)/4]) {
			t.Fatalf("entry at %d sorts before its parent", i)
		}
	}
}

// TestEventHeapMatchesSorted drives the overflow heap through random
// pushes, removals at the root, the last position and interior positions,
// and pops, against a reference slice kept sorted by eventBefore. Keys are
// tie-heavy, so every field of the order gets compared.
func TestEventHeapMatchesSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for round := 0; round < 200; round++ {
		h := make(eventHeap, 0, 64)
		var ref []*event
		seq := uint64(0)
		for op := 0; op < 300; op++ {
			switch k := rng.Intn(10); {
			case k < 5 || len(h) == 0:
				ev := &event{Time: rng.Int63n(8), sched: rng.Int63n(3), rank: uint64(rng.Intn(3)), seq: seq}
				seq++
				h.push(ev)
				i, _ := slices.BinarySearchFunc(ref, ev, func(a, b *event) int {
					if eventBefore(a, b) {
						return -1
					}
					return 1
				})
				ref = slices.Insert(ref, i, ev)
			case k < 7:
				if got := h.remove(0); got != ref[0] || got.idx != idxStaged {
					t.Fatalf("round %d: pop returned %+v, want %+v", round, *got, *ref[0])
				}
				ref = ref[1:]
			default:
				var i int
				switch k {
				case 7:
					i = len(h) - 1
				case 8:
					i = rng.Intn(len(h))
				default:
					i = 0
				}
				ev := h[i]
				h.remove(i)
				ref = slices.DeleteFunc(ref, func(x *event) bool { return x == ev })
			}
			checkHeap(t, h)
			if len(h) != len(ref) {
				t.Fatalf("round %d: heap holds %d, reference %d", round, len(h), len(ref))
			}
		}
		for len(h) > 0 {
			if got := h.remove(0); got != ref[0] {
				t.Fatalf("round %d: drain popped %+v, want %+v", round, *got, *ref[0])
			}
			ref = ref[1:]
		}
	}
}

// BenchmarkTimerStopReset is the retransmission-timer pattern of the
// many-flow workloads: a timer armed past the wheel's span sits in the
// overflow heap, is stopped (an eager removal from the heap's interior)
// and re-armed (a push), among a thousand others.
func BenchmarkTimerStopReset(b *testing.B) {
	e := New()
	timers := make([]*Timer, 1024)
	for i := range timers {
		timers[i] = NewTimer(e, func() {})
		timers[i].Reset(2*Millisecond + int64(i)*Microsecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := timers[i%len(timers)]
		t.Stop()
		t.Reset(2*Millisecond + int64(i%997)*Microsecond)
	}
}
