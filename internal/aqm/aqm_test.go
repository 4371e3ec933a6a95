package aqm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hwatch/internal/netem"
)

func pkt(wire int, ecn netem.ECN) *netem.Packet {
	return &netem.Packet{Wire: wire, ECN: ecn}
}

func TestDropTailCapacityPackets(t *testing.T) {
	q := NewDropTail(3)
	for i := 0; i < 5; i++ {
		q.Enqueue(pkt(100, netem.NotECT))
	}
	if q.Len() != 3 {
		t.Fatalf("Len = %d, want 3", q.Len())
	}
	st := q.Stats()
	if st.Dropped != 2 || st.Enqueued != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MaxLen != 3 {
		t.Fatalf("MaxLen = %d", st.MaxLen)
	}
}

func TestDropTailCapacityBytes(t *testing.T) {
	q := NewDropTailBytes(250)
	if !q.Enqueue(pkt(100, netem.NotECT)) || !q.Enqueue(pkt(100, netem.NotECT)) {
		t.Fatal("enqueue under byte cap failed")
	}
	if q.Enqueue(pkt(100, netem.NotECT)) {
		t.Fatal("enqueue over byte cap succeeded")
	}
	if q.Bytes() != 200 {
		t.Fatalf("Bytes = %d", q.Bytes())
	}
}

func TestDropTailFIFOOrder(t *testing.T) {
	q := NewDropTail(100)
	for i := 0; i < 100; i++ {
		p := pkt(10, netem.NotECT)
		p.ID = uint64(i)
		q.Enqueue(p)
	}
	for i := 0; i < 100; i++ {
		if got := q.Dequeue(); got.ID != uint64(i) {
			t.Fatalf("dequeue %d got ID %d", i, got.ID)
		}
	}
	if q.Dequeue() != nil {
		t.Fatal("empty dequeue not nil")
	}
	// Interleaved on a fresh queue, so the buffer wraps before it grows.
	q = NewDropTail(1000)
	rng := rand.New(rand.NewSource(1))
	var model []uint64
	for i := 0; i < 5000; i++ {
		if rng.Intn(5) < 3 {
			p := pkt(10, netem.NotECT)
			p.ID = uint64(i)
			if q.Enqueue(p) {
				model = append(model, p.ID)
			}
		} else if got := q.Dequeue(); len(model) == 0 {
			if got != nil {
				t.Fatal("empty dequeue not nil")
			}
		} else if got.ID != model[0] {
			t.Fatalf("op %d: dequeued ID %d, want %d", i, got.ID, model[0])
		} else {
			model = model[1:]
		}
		if q.Len() != len(model) || q.Bytes() != 10*len(model) {
			t.Fatalf("op %d: Len %d Bytes %d, want %d and %d", i, q.Len(), q.Bytes(), len(model), 10*len(model))
		}
	}
}

func TestDropTailNeverMarks(t *testing.T) {
	q := NewDropTail(10)
	for i := 0; i < 10; i++ {
		q.Enqueue(pkt(100, netem.ECT0))
	}
	for p := q.Dequeue(); p != nil; p = q.Dequeue() {
		if p.ECN == netem.CE {
			t.Fatal("DropTail marked a packet")
		}
	}
}

func TestMarkThresholdMarksAboveK(t *testing.T) {
	q := NewMarkThreshold(250, 50)
	// Fill to K: none of the first 50 should be marked.
	for i := 0; i < 50; i++ {
		q.Enqueue(pkt(1500, netem.ECT0))
	}
	if q.Stats().Marked != 0 {
		t.Fatalf("marked %d below threshold", q.Stats().Marked)
	}
	// Every further ECT arrival sees len >= K and must be marked.
	for i := 0; i < 20; i++ {
		q.Enqueue(pkt(1500, netem.ECT0))
	}
	if got := q.Stats().Marked; got != 20 {
		t.Fatalf("marked = %d, want 20", got)
	}
}

func TestMarkThresholdNonECTNotMarkedNotDropped(t *testing.T) {
	q := NewMarkThreshold(250, 10)
	for i := 0; i < 50; i++ {
		if !q.Enqueue(pkt(1500, netem.NotECT)) {
			t.Fatal("non-ECT dropped below capacity")
		}
	}
	if q.Stats().Marked != 0 {
		t.Fatal("non-ECT packet was marked")
	}
}

func TestMarkThresholdOverflowDrops(t *testing.T) {
	q := NewMarkThreshold(10, 5)
	for i := 0; i < 15; i++ {
		q.Enqueue(pkt(1500, netem.ECT0))
	}
	if st := q.Stats(); st.Dropped != 5 {
		t.Fatalf("Dropped = %d, want 5", st.Dropped)
	}
}

func TestWREDRegions(t *testing.T) {
	rng := rand.New(rand.NewSource(1)).Float64
	q := NewWRED(250, 10, 20, rng)
	// Below Low: never marked.
	for i := 0; i < 10; i++ {
		q.Enqueue(pkt(1500, netem.ECT0))
	}
	if q.Stats().Marked != 0 {
		t.Fatal("marked below Low")
	}
	// Fill past High: arrivals at len >= High always marked.
	for i := 0; i < 15; i++ {
		q.Enqueue(pkt(1500, netem.ECT0))
	}
	before := q.Stats().Marked
	for i := 0; i < 10; i++ {
		q.Enqueue(pkt(1500, netem.ECT0))
	}
	if got := q.Stats().Marked - before; got != 10 {
		t.Fatalf("above-High marks = %d, want 10", got)
	}
}

func TestWREDRampProbabilistic(t *testing.T) {
	rng := rand.New(rand.NewSource(2)).Float64
	marked := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		q := NewWRED(250, 10, 30, rng)
		for j := 0; j < 20; j++ { // leave queue at 20: inside the ramp
			q.Enqueue(pkt(1500, netem.ECT0))
		}
		p := pkt(1500, netem.ECT0)
		q.Enqueue(p)
		if p.ECN == netem.CE {
			marked++
		}
	}
	// At len 20 with [10,30] the ramp gives ~(20-10+1)/(30-10+1) ≈ 0.52.
	frac := float64(marked) / trials
	if frac < 0.40 || frac < 0.0 || frac > 0.65 {
		t.Fatalf("ramp mark fraction = %.3f, want ≈0.52", frac)
	}
}

func redCfg(capPkts int, ecn bool) REDConfig {
	now := int64(0)
	cfg := DefaultRED(capPkts, ecn, 1200, func() int64 { return now })
	return cfg
}

func TestREDBelowMinThNoAction(t *testing.T) {
	rng := rand.New(rand.NewSource(3)).Float64
	q := NewRED(redCfg(240, true), rng)
	for i := 0; i < 10; i++ {
		if !q.Enqueue(pkt(1500, netem.ECT0)) {
			t.Fatal("drop below MinTh")
		}
	}
	if st := q.Stats(); st.Marked != 0 || st.EarlyDrop != 0 {
		t.Fatalf("action below MinTh: %+v", st)
	}
}

func TestREDSustainedLoadMarks(t *testing.T) {
	rng := rand.New(rand.NewSource(4)).Float64
	q := NewRED(redCfg(240, true), rng)
	// Keep the standing queue near 60 (MinTh=20, MaxTh=60): enqueue many,
	// dequeue few, so the EWMA climbs into the marking band.
	for i := 0; i < 5000; i++ {
		q.Enqueue(pkt(1500, netem.ECT0))
		if q.Len() > 60 {
			q.Dequeue()
		}
	}
	st := q.Stats()
	if st.Marked == 0 {
		t.Fatalf("no ECN marks under sustained load; avg=%.1f stats=%+v", q.Avg(), st)
	}
	if st.EarlyDrop > st.Marked {
		t.Fatalf("ECN mode should prefer marking: %+v", st)
	}
}

func TestREDDropModeDrops(t *testing.T) {
	rng := rand.New(rand.NewSource(5)).Float64
	q := NewRED(redCfg(240, false), rng)
	for i := 0; i < 5000; i++ {
		q.Enqueue(pkt(1500, netem.ECT0))
		if q.Len() > 60 {
			q.Dequeue()
		}
	}
	st := q.Stats()
	if st.EarlyDrop == 0 {
		t.Fatal("drop-mode RED never early-dropped under sustained load")
	}
	if st.Marked != 0 {
		t.Fatal("drop-mode RED marked packets")
	}
}

func TestREDHardOverflow(t *testing.T) {
	rng := rand.New(rand.NewSource(6)).Float64
	q := NewRED(redCfg(50, true), rng)
	for i := 0; i < 100; i++ {
		q.Enqueue(pkt(1500, netem.ECT0))
	}
	if q.Len() > 50 {
		t.Fatalf("queue %d exceeds physical capacity 50", q.Len())
	}
	if q.Stats().Dropped == 0 {
		t.Fatal("no overflow drops recorded")
	}
}

func TestREDIdleDecay(t *testing.T) {
	now := int64(0)
	cfg := DefaultRED(240, true, 1200, func() int64 { return now })
	rng := rand.New(rand.NewSource(7)).Float64
	q := NewRED(cfg, rng)
	for i := 0; i < 2000; i++ {
		q.Enqueue(pkt(1500, netem.ECT0))
		if q.Len() > 40 {
			q.Dequeue()
		}
	}
	high := q.Avg()
	if high < 10 {
		t.Fatalf("setup failed to raise avg (%.2f)", high)
	}
	for q.Dequeue() != nil {
	}
	now += 100 * 1200 * 1000 // long idle period
	q.Enqueue(pkt(1500, netem.ECT0))
	if q.Avg() >= high/2 {
		t.Fatalf("avg did not decay across idle: %.2f -> %.2f", high, q.Avg())
	}
}

// Property: under any arrival/departure interleaving, every discipline keeps
// Len() within capacity, Bytes() consistent with the queued packets, and
// conserves packets (enqueued-accepted = dequeued + still queued).
func TestPropertyQueueConservation(t *testing.T) {
	run := func(mk func() netem.Queue) func(seed int64, steps uint16) bool {
		return func(seed int64, steps uint16) bool {
			rng := rand.New(rand.NewSource(seed))
			q := mk()
			accepted, dequeued, queuedBytes := 0, 0, 0
			for i := 0; i < int(steps); i++ {
				if rng.Intn(3) > 0 {
					p := pkt(64+rng.Intn(1436), netem.ECN(rng.Intn(4)))
					if q.Enqueue(p) {
						accepted++
						queuedBytes += p.Wire
					}
				} else if p := q.Dequeue(); p != nil {
					dequeued++
					queuedBytes -= p.Wire
				}
				if q.Bytes() != queuedBytes {
					return false
				}
				if accepted-dequeued != q.Len() {
					return false
				}
			}
			return true
		}
	}
	now := int64(0)
	clock := func() int64 { now += 1200; return now }
	cases := map[string]func() netem.Queue{
		"droptail": func() netem.Queue { return NewDropTail(64) },
		"bytes":    func() netem.Queue { return NewDropTailBytes(64 * 1500) },
		"markth":   func() netem.Queue { return NewMarkThreshold(64, 16) },
		"wred": func() netem.Queue {
			return NewWRED(64, 16, 48, rand.New(rand.NewSource(9)).Float64)
		},
		"red": func() netem.Queue {
			cfg := DefaultRED(64, true, 1200, clock)
			return NewRED(cfg, rand.New(rand.NewSource(10)).Float64)
		},
	}
	for name, mk := range cases {
		if err := quick.Check(run(mk), &quick.Config{MaxCount: 60}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestFIFOCompaction(t *testing.T) {
	// Heavy churn must not leak; exercise the compaction path.
	q := NewDropTail(1 << 20)
	for round := 0; round < 100; round++ {
		for i := 0; i < 1000; i++ {
			q.Enqueue(pkt(100, netem.NotECT))
		}
		for i := 0; i < 1000; i++ {
			if q.Dequeue() == nil {
				t.Fatal("lost a packet during churn")
			}
		}
	}
	if q.Len() != 0 || q.Bytes() != 0 {
		t.Fatalf("residual len=%d bytes=%d", q.Len(), q.Bytes())
	}
}

func TestWREDByteMode(t *testing.T) {
	rng := rand.New(rand.NewSource(8)).Float64
	q := NewWREDBytes(30_000, 7_500, 7_500, rng)
	// Fill to the byte threshold with unmarkable packets.
	for q.Bytes() < 7_500 {
		if !q.Enqueue(pkt(1500, netem.NotECT)) {
			t.Fatal("dropped below byte capacity")
		}
	}
	if q.Stats().Marked != 0 {
		t.Fatal("non-ECT marked")
	}
	// ECT arrivals at/above the byte threshold are always marked.
	for i := 0; i < 5; i++ {
		q.Enqueue(pkt(1500, netem.ECT0))
	}
	if got := q.Stats().Marked; got != 5 {
		t.Fatalf("marked = %d, want 5", got)
	}
	// Byte overflow drops.
	for q.Enqueue(pkt(1500, netem.ECT0)) {
	}
	if q.Bytes() > 30_000 {
		t.Fatalf("bytes %d exceed capacity", q.Bytes())
	}
	if q.Stats().Dropped == 0 {
		t.Fatal("no overflow drop recorded")
	}
	// Tiny probe-sized packets still fit when a full MTU would not.
	for q.Bytes()+1500 > 30_000 && q.Bytes()+38 <= 30_000 {
		if !q.Enqueue(pkt(38, netem.ECT0)) {
			t.Fatal("probe-sized packet rejected despite byte headroom")
		}
	}
}
