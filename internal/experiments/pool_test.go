package experiments

import (
	"testing"

	"hwatch/internal/netem"
	"hwatch/internal/sim"
)

// TestPoolingDigestParity proves packet pooling is semantically invisible:
// a fig-scale scenario must produce byte-identical run digests with the
// pool on and off. Any use-after-release or incomplete reset shows up as a
// digest mismatch here (and louder still under -tags poolpoison, where CI
// repeats this test with released packets filled with sentinel garbage).
func TestPoolingDigestParity(t *testing.T) {
	if !netem.PacketPooling() {
		t.Fatal("pooling must be the default")
	}
	defer netem.SetPacketPooling(true)

	pooled := mustFig(t, "fig8", 0.1)
	netem.SetPacketPooling(false)
	plain := mustFig(t, "fig8", 0.1)
	netem.SetPacketPooling(true)

	for k, r := range pooled {
		if a, b := r.DigestHex(), plain[k].DigestHex(); a != b {
			t.Errorf("%v: digest %s with pooling, %s without", k, a, b)
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

// TestPooledParallelRuns exists for `go test -race ./...`: eight pooled
// runs share one sync.Pool across worker goroutines, so a packet touched
// after release — or released into two runs at once — trips the race
// detector here even when digests happen to collide.
func TestPooledParallelRuns(t *testing.T) {
	if !netem.PacketPooling() {
		t.Fatal("pooling must be the default")
	}
	SetParallel(8)
	defer SetParallel(0)
	for k, r := range mustFig(t, "fig8", 0.1) {
		if r.Events == 0 {
			t.Errorf("%v: zero events", k)
		}
	}
}
