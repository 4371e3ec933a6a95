package aqm

import (
	"testing"

	"hwatch/internal/netem"
)

func benchCycle(b *testing.B, q netem.Queue) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &netem.Packet{Wire: 1500, ECN: netem.ECT0}
		if q.Enqueue(p) && q.Len() > 32 {
			q.Dequeue()
		}
	}
}

func BenchmarkMarkThresholdBytes(b *testing.B) {
	benchCycle(b, NewMarkThresholdBytes(64*1500, 16*1500))
}
