package core

import (
	"testing"

	"hwatch/internal/netem"
	"hwatch/internal/sim"
)

// rwndRewrite returns one pass of the per-ACK hot path: the rwnd clamp with
// its incremental checksum patch, no network around it.
func rwndRewrite() func() {
	eng := sim.New()
	s := NewShim(eng, DefaultConfig(testRTT(25*sim.Microsecond)), 0)
	e := &flowEntry{wndSegs: 2, wscale: 7}
	p := &netem.Packet{Flags: netem.FlagACK, Rwnd: 0xffff, WScaleOpt: -1}
	netem.SetChecksum(p)
	return func() {
		p.Rwnd = 0xffff
		s.clampRwnd(p, e)
	}
}

func BenchmarkShimRewrite(b *testing.B) {
	rewrite := rwndRewrite()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rewrite()
	}
}

// TestRwndRewriteAllocatesNothing holds the per-ACK rewrite at zero
// allocations: it runs once per ACK of every tracked flow.
func TestRwndRewriteAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(1000, rwndRewrite()); n != 0 {
		t.Fatalf("rwnd rewrite allocates %v per ACK, want 0", n)
	}
}

// BenchmarkTokenBucket isolates the SYN-ACK pacer.
func BenchmarkTokenBucket(b *testing.B) {
	tb := newTokenBucket(4, 1000)
	for i := 0; i < b.N; i++ {
		tb.take(int64(i) * 300)
	}
}
