package scenario

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"hwatch/internal/harness"
	"hwatch/internal/sim"
)

// cancelTestSpec is a modest chaos-golden-sized dumbbell: big enough to
// fire hundreds of thousands of events (so mid-run interruption is a real
// state), small enough to finish in seconds when a regression lets it run
// to completion.
func cancelTestSpec(shards int) *Spec {
	p := PaperDumbbell(5, 5)
	p.Seed = 42
	p.ByteBuffers = true
	p.Duration = 400 * sim.Millisecond
	p.DrainAfter = 200 * sim.Millisecond
	p.Epochs = 2
	return &Spec{
		Kind:     KindDumbbell,
		Schemes:  []Share{{Scheme: HWatch}},
		Dumbbell: p,
		Shards:   shards,
	}
}

func testCancelMidRun(t *testing.T, shards int) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := cancelTestSpec(shards)
	var calls atomic.Int64
	s.Progress = func(simNow int64, processed uint64) {
		if calls.Add(1) == 2 {
			cancel()
		}
	}
	run, err := s.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned err %v, want context.Canceled", err)
	}
	if run != nil {
		t.Errorf("cancelled run returned a non-nil Run (label %q)", run.Label)
	}
	if calls.Load() < 2 {
		t.Errorf("progress hook called %d times before the run ended, want >= 2", calls.Load())
	}
}

// TestRunContextCancelMidRun proves cancellation interrupts an in-flight
// single-loop run: RunContext returns context.Canceled and no Run.
func TestRunContextCancelMidRun(t *testing.T) { testCancelMidRun(t, 1) }

// TestRunContextCancelSharded proves the same through the windowed
// conservative-lookahead group: a poll-hook stop on any shard ends the
// whole run at the next barrier.
func TestRunContextCancelSharded(t *testing.T) { testCancelMidRun(t, 2) }

// TestRunContextDigestNeutral proves the ctx/Progress plumbing is invisible
// to the model: an uninterrupted run under a cancellable context with a
// progress hook armed digests byte-identically to a plain Run.
func TestRunContextDigestNeutral(t *testing.T) {
	base, err := cancelTestSpec(0).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := cancelTestSpec(0)
	var progressed atomic.Int64
	s.Progress = func(int64, uint64) { progressed.Add(1) }
	got, err := s.RunContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if progressed.Load() == 0 {
		t.Error("progress hook never fired during the run")
	}
	if got.DigestHex() != base.DigestHex() {
		t.Errorf("digest %s with progress+ctx armed, %s without — the hook leaked into the model",
			got.DigestHex(), base.DigestHex())
	}
}

// TestPoolCancelStopsInFlightRun is the harness.Pool cancellation
// regression test: cancelling the pool's context must interrupt a run
// already executing inside a task — not merely stop dequeuing — now that
// scenario runs observe the ctx the pool hands them.
func TestPoolCancelStopsInFlightRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pool := harness.NewPool(ctx, 1)

	started := make(chan struct{})
	var once sync.Once
	s := cancelTestSpec(0)
	s.Progress = func(int64, uint64) { once.Do(func() { close(started) }) }

	var run *Run
	var runErr error
	pool.Go("cancelled-run", func(ctx context.Context) error {
		run, runErr = s.RunContext(ctx)
		return runErr
	})
	<-started // the run is provably in flight
	cancel()

	if err := pool.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("pool.Wait returned %v, want context.Canceled", err)
	}
	if !errors.Is(runErr, context.Canceled) {
		t.Errorf("in-flight run returned %v, want context.Canceled — pool ctx did not propagate", runErr)
	}
	if run != nil {
		t.Errorf("in-flight run returned a completed Run despite cancellation")
	}
}
