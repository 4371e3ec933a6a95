// Package aqm implements the queue disciplines the paper's switches run:
// plain DropTail, RED (Floyd/Jacobson with optional gentle mode), and the
// single instantaneous threshold marking DCTCP recommends — which is also
// the WRED profile the paper configures for HWatch (min = max).
//
// All disciplines implement netem.Queue. Marking sets the IP ECN codepoint
// to CE when the packet is ECN-capable; non-capable packets are dropped
// instead when the discipline would otherwise have marked-by-necessity
// (RED drop mode) or simply enqueued (pure marking disciplines).
package aqm

import (
	"hwatch/internal/netem"
)

// Stats counts discipline-level outcomes for one queue.
type Stats struct {
	Enqueued  int64
	Dropped   int64 // tail/overflow drops
	EarlyDrop int64 // RED probabilistic drops
	Marked    int64 // CE marks applied
	MaxLen    int   // high-water mark, packets
	MaxBytes  int
}

// fifo is the common packet buffer under every discipline: a ring that
// doubles when full, so it holds at most twice the queue's peak occupancy
// and a dequeue never copies.
type fifo struct {
	ring  []*netem.Packet // length 0 or a power of two
	head  int
	n     int
	bytes int
	stats Stats
}

func (f *fifo) push(p *netem.Packet) {
	if f.n == len(f.ring) {
		ring := make([]*netem.Packet, max(8, 2*len(f.ring)))
		k := copy(ring, f.ring[f.head:])
		copy(ring[k:], f.ring[:f.head])
		f.ring, f.head = ring, 0
	}
	f.ring[(f.head+f.n)&(len(f.ring)-1)] = p
	f.n++
	f.bytes += p.Wire
	f.stats.Enqueued++
	if f.n > f.stats.MaxLen {
		f.stats.MaxLen = f.n
	}
	if f.bytes > f.stats.MaxBytes {
		f.stats.MaxBytes = f.bytes
	}
}

func (f *fifo) pop() *netem.Packet {
	if f.n == 0 {
		return nil
	}
	p := f.ring[f.head]
	f.ring[f.head] = nil
	f.head = (f.head + 1) & (len(f.ring) - 1)
	f.n--
	f.bytes -= p.Wire
	return p
}

func (f *fifo) len() int { return f.n }

// mark sets CE on an ECN-capable packet and counts it.
func (f *fifo) mark(p *netem.Packet) {
	if p.ECN != netem.CE {
		p.ECN = netem.CE
		f.stats.Marked++
	}
}
