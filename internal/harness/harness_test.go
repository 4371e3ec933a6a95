package harness

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestSeedForDeterministic(t *testing.T) {
	a := SeedFor("fig2/hwatch", 42)
	b := SeedFor("fig2/hwatch", 42)
	if a != b {
		t.Fatalf("same (spec, base) derived %d then %d", a, b)
	}
	if a <= 0 {
		t.Fatalf("derived seed must be positive, got %d", a)
	}
	if SeedFor("fig2/hwatch", 43) == a {
		t.Fatalf("base seed change did not move the derived seed")
	}
	if SeedFor("fig2/cubic", 42) == a {
		t.Fatalf("spec change did not move the derived seed")
	}
	// Structurally adjacent labels must land far apart, not off-by-one.
	if d := SeedFor("deg=8", 1) ^ SeedFor("deg=9", 1); d == 0 || d == 1 {
		t.Fatalf("adjacent specs derived correlated seeds (xor=%d)", d)
	}
}

func TestDigestOrderAndContent(t *testing.T) {
	d1 := NewDigest()
	d1.Float64(1.5)
	d1.Float64(2.5)
	d2 := NewDigest()
	d2.Float64(2.5)
	d2.Float64(1.5)
	if d1.Sum() == d2.Sum() {
		t.Fatalf("digest is order-insensitive: %016x", d1.Sum())
	}

	// Length prefixes keep boundary-shifted inputs distinct.
	a := NewDigest()
	a.String("ab")
	a.String("c")
	b := NewDigest()
	b.String("a")
	b.String("bc")
	if a.Sum() == b.Sum() {
		t.Fatalf("string folding ignores boundaries")
	}

	s := NewDigest()
	s.Series([]int64{1, 2}, []float64{3, 4})
	s2 := NewDigest()
	s2.Series([]int64{1, 2}, []float64{3, 4})
	if s.Sum() != s2.Sum() {
		t.Fatalf("identical series digests differ")
	}
	if got := s.Hex(); len(got) != 16 {
		t.Fatalf("Hex() = %q, want 16 hex chars", got)
	}
	if fmt.Sprintf("%016x", s.Sum()) != s.Hex() {
		t.Fatalf("Hex does not match Sum")
	}
}

func TestPoolBoundedParallelism(t *testing.T) {
	const parallel, tasks = 3, 24
	var running, peak atomic.Int64
	p := NewPool(context.Background(), parallel)
	for i := 0; i < tasks; i++ {
		p.Go(fmt.Sprintf("t%d", i), func(context.Context) error {
			n := running.Add(1)
			for {
				old := peak.Load()
				if n <= old || peak.CompareAndSwap(old, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			running.Add(-1)
			return nil
		})
	}
	if err := p.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if got := peak.Load(); got > parallel {
		t.Fatalf("observed %d concurrent tasks, pool bound is %d", got, parallel)
	}
	if got := len(p.Metrics()); got != tasks {
		t.Fatalf("recorded %d metrics, want %d", got, tasks)
	}
	for _, m := range p.Metrics() {
		if m.Err != nil {
			t.Fatalf("task %s failed: %v", m.Name, m.Err)
		}
	}
}

func TestPoolCancellationSkipsQueuedTasks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := NewPool(ctx, 1)
	started := make(chan struct{})
	release := make(chan struct{})
	p.Go("holder", func(context.Context) error {
		close(started)
		<-release
		return nil
	})
	<-started
	var ran atomic.Int64
	for i := 0; i < 8; i++ {
		p.Go(fmt.Sprintf("queued%d", i), func(context.Context) error {
			ran.Add(1)
			return nil
		})
	}
	cancel()
	close(release)
	if err := p.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	// The holder ran; queued tasks raced cancellation and some may have
	// slipped through before cancel, but every submission is accounted for.
	if got := len(p.Metrics()); got != 9 {
		t.Fatalf("recorded %d metrics, want 9", got)
	}
}

func TestMapPreservesItemOrder(t *testing.T) {
	items := make([]int, 50)
	for i := range items {
		items[i] = i
	}
	out, err := Map(context.Background(), 8, items, func(_ context.Context, v int) (int, error) {
		return v * v, nil
	})
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	out, err := Map(context.Background(), 4, []int{1, 2, 3}, func(_ context.Context, v int) (int, error) {
		if v == 2 {
			return 0, boom
		}
		return v, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Map error = %v, want boom", err)
	}
	if out[1] != 0 {
		t.Fatalf("failed slot should stay zero, got %d", out[1])
	}
}

// TestPoolTurnsTaskPanicIntoError: a panicking task fails that task with
// an error naming it and the panic value; its neighbours still run and the
// pool still drains.
func TestPoolTurnsTaskPanicIntoError(t *testing.T) {
	pool := NewPool(context.Background(), 2)
	var ran atomic.Int64
	pool.Go("sound", func(context.Context) error { ran.Add(1); return nil })
	pool.Go("broken", func(context.Context) error { panic("kaboom") })
	pool.Go("sound-too", func(context.Context) error { ran.Add(1); return nil })
	err := pool.Wait()
	if err == nil || !strings.Contains(err.Error(), "broken") || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("Wait returned %v, want an error naming task broken and panic kaboom", err)
	}
	if ran.Load() != 2 {
		t.Errorf("%d sound tasks ran, want 2", ran.Load())
	}
}

func TestEventsPerSec(t *testing.T) {
	if got := EventsPerSec(1000, time.Second); got != 1000 {
		t.Fatalf("EventsPerSec = %v, want 1000", got)
	}
	if got := EventsPerSec(1000, 0); got != 0 {
		t.Fatalf("EventsPerSec with zero wall = %v, want 0", got)
	}
}
