package experiments

import (
	"testing"

	"hwatch/internal/sim"
)

// TestPoolingDigestParity proves packet recycling is semantically
// invisible: a fig-scale scenario must produce byte-identical run digests
// with the networks' free lists on and off. Off is sim's NoSlab default,
// the never-reusing oracle, under which networks keep no released packet
// (and engines reuse no event slot). Any use-after-release or incomplete
// reset shows up as a digest mismatch here, and louder still under
// -tags poolpoison, where CI repeats the golden digests with released
// packets filled with sentinel garbage.
func TestPoolingDigestParity(t *testing.T) {
	if sim.DefaultOptions().NoSlab {
		t.Fatal("recycling must be the default")
	}
	defer sim.SetDefaultOptions(sim.Options{})

	pooled := mustFig(t, "fig8", 0.1)
	sim.SetDefaultOptions(sim.Options{NoSlab: true})
	plain := mustFig(t, "fig8", 0.1)
	sim.SetDefaultOptions(sim.Options{})

	for k, r := range pooled {
		if a, b := r.DigestHex(), plain[k].DigestHex(); a != b {
			t.Errorf("%v: digest %s with recycling, %s without", k, a, b)
		}
	}
}

// TestWheelDigestParity does the same for the scheduler: the calendar-queue
// engine and the plain-heap oracle must drive a full scenario to identical
// digests, end to end — the coarse-grained complement of the sim package's
// per-operation property test.
func TestWheelDigestParity(t *testing.T) {
	if sim.DefaultOptions().NoWheel {
		t.Fatal("timer wheel must be the default")
	}
	defer sim.SetDefaultOptions(sim.Options{})

	wheel := mustFig(t, "fig2", 0.1)
	sim.SetDefaultOptions(sim.Options{NoWheel: true, NoSlab: true})
	heap := mustFig(t, "fig2", 0.1)
	sim.SetDefaultOptions(sim.Options{})

	if len(wheel) != 3 {
		t.Fatalf("fig2 has %d curves, want 3", len(wheel))
	}
	for k, r := range wheel {
		if a, b := r.DigestHex(), heap[k].DigestHex(); a != b {
			t.Errorf("fig2/%s: digest %s with wheel, %s with heap oracle", k, a, b)
		}
	}
}

// TestPooledParallelRuns exists for `go test -race ./...`: eight runs
// recycle packets on worker goroutines at once, each through its own
// network's free lists, so a list shared between runs — or a packet
// touched after release — trips the race detector here even when digests
// happen to collide.
func TestPooledParallelRuns(t *testing.T) {
	SetParallel(8)
	defer SetParallel(0)
	for k, r := range mustFig(t, "fig8", 0.1) {
		if r.Events == 0 {
			t.Errorf("%v: zero events", k)
		}
	}
}
