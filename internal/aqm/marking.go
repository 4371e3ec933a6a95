package aqm

import "hwatch/internal/netem"

// MarkThreshold is the DCTCP-recommended discipline: a DropTail buffer that
// CE-marks every ECN-capable packet arriving when the *instantaneous* queue
// occupancy is at or above K. Non-capable packets are enqueued unmarked
// (and dropped only on overflow). Capacity and threshold are counted in
// packets (ns-2 style) or in bytes (shared-buffer switch style) depending
// on the constructor.
type MarkThreshold struct {
	fifo
	CapPkts int
	K       int // marking threshold, packets

	CapBytes int
	KBytes   int // marking threshold, bytes (byte mode when > 0)
}

// NewMarkThreshold returns the packet-counted discipline with buffer
// capPkts and threshold k.
func NewMarkThreshold(capPkts, k int) *MarkThreshold {
	return &MarkThreshold{CapPkts: capPkts, K: k}
}

// NewMarkThresholdBytes returns the byte-counted discipline, matching
// switches whose shared buffer is cell/byte accounted (tiny probe packets
// consume proportionally tiny space).
func NewMarkThresholdBytes(capBytes, kBytes int) *MarkThreshold {
	return &MarkThreshold{CapBytes: capBytes, KBytes: kBytes}
}

// Enqueue implements netem.Queue.
func (q *MarkThreshold) Enqueue(p *netem.Packet) bool {
	if q.CapBytes > 0 {
		if q.bytes+p.Wire > q.CapBytes {
			q.stats.Dropped++
			return false
		}
		if q.bytes >= q.KBytes && p.ECN.Capable() {
			q.mark(p)
		}
		q.push(p)
		return true
	}
	if q.len() >= q.CapPkts {
		q.stats.Dropped++
		return false
	}
	if q.len() >= q.K && p.ECN.Capable() {
		q.mark(p)
	}
	q.push(p)
	return true
}

// Dequeue implements netem.Queue.
func (q *MarkThreshold) Dequeue() *netem.Packet { return q.pop() }

// Len implements netem.Queue.
func (q *MarkThreshold) Len() int { return q.len() }

// Bytes implements netem.Queue.
func (q *MarkThreshold) Bytes() int { return q.bytes }

// Stats returns a copy of the discipline counters.
func (q *MarkThreshold) Stats() Stats { return q.stats }
