package main

import "time"

// The reference host is a two-core virtual machine whose speed wanders with
// its neighbours': by a third within half an hour, in spells of minutes, so
// that no estimator over one run's passes sees it. Two sets of ten runs of
// the same binary, 14 minutes apart, gave wall_s medians 9–17 % apart as
// timed and quartile spreads of 11–31 %. So a run also times a fixed
// reference kernel between its passes and multiplies its three time metrics
// by the host's speed while it ran. On the same 100 runs that brought the
// medians within 5 % and the spreads to 3–15 % (README.md, "Host speed";
// AGREEMENT.md prints both).
//
// The kernel is a miniature event loop: pop the earliest of 2000 events off
// a binary heap, write its successor into the next slot of a pool, read
// one slot picked at random, push the successor. It calls nothing of the
// repository, allocates nothing, and its pool is a pointer-free array
// outside the Go heap, so neither a change to the program nor the heap of
// the instance under test nor the collector can move it. Among pools of
// 0.25, 4, 16 and 64 MB the largest followed the workloads best: log-log
// slope 0.7–1.1 against the workloads' pass times, r 0.65–0.95.

type calibEvent struct {
	t     int64
	cause int32
	_     [17]int32 // 80 bytes like the simulator's events, no pointers
}

const (
	calibPoolBytes = 64 << 20
	calibSlots     = calibPoolBytes / 80
	// calibOps events through the kernel take calibNominal seconds on the
	// reference host at its quietest (the fastest run median of 100), so
	// that scaled seconds are that host's seconds.
	calibOps     = 50_000
	calibNominal = 0.0120
	// calibReps kernel runs make one reading; the fastest counts.
	calibReps = 3
)

var (
	calibPool   [calibSlots]calibEvent
	calibAgenda [2048]int32
	// calibNext is where the pool is written next: readings walk on through
	// it, so each one writes 4 MB that the caches have long let go.
	calibNext int32
)

// calibWarm makes the whole pool resident, so that no reading pays for
// page faults and the pool's share of the resident set is known.
func calibWarm() {
	for i := range calibPool {
		calibPool[i].t = int64(i)
	}
}

func calibKernel() time.Duration {
	h := calibAgenda[:0]
	less := func(a, b int32) bool { return calibPool[a].t < calibPool[b].t }
	push := func(x int32) {
		h = append(h, x)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if !less(h[i], h[p]) {
				break
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
	}
	pop := func() int32 {
		x := h[0]
		n := len(h) - 1
		h[0] = h[n]
		h = h[:n]
		for i := 0; ; {
			l, r, m := 2*i+1, 2*i+2, i
			if l < n && less(h[l], h[m]) {
				m = l
			}
			if r < n && less(h[r], h[m]) {
				m = r
			}
			if m == i {
				break
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
		return x
	}
	alloc := func() int32 {
		x := calibNext
		calibNext = (calibNext + 1) % calibSlots
		return x
	}
	start := time.Now()
	for i := 0; i < 2000; i++ {
		x := alloc()
		calibPool[x].t = int64(i)
		push(x)
	}
	rnd := uint64(88172645463325252)
	var seen int64
	for i := 0; i < calibOps; i++ {
		e := pop()
		now := calibPool[e].t
		rnd ^= rnd << 13
		rnd ^= rnd >> 7
		rnd ^= rnd << 17
		seen += calibPool[int32(rnd>>33)%calibSlots].t
		n := alloc()
		calibPool[n].t = now + int64(rnd%100_000)
		calibPool[n].cause = e
		push(n)
	}
	sink += uint64(seen)
	return time.Since(start)
}

// calibRead is one reading of the host: seconds for the kernel.
func calibRead() float64 {
	best := calibKernel()
	for i := 1; i < calibReps; i++ {
		if d := calibKernel(); d < best {
			best = d
		}
	}
	return best.Seconds()
}

// hostSpeed turns a run's readings into the one factor that scales its
// times to reference-host seconds: below 1 when the host was slow. One
// factor per run, from the median reading: a 40 ms reading says little
// about the second next to it, a run's fifteen say how the run went.
func hostSpeed(readings []float64) float64 {
	return calibNominal / median(readings)
}
