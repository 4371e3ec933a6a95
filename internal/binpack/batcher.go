package binpack

// Batcher is the temporal Next Fit of HWatch's theory (Section IV): given
// ECN feedback for a flow's recent window — how many packets passed a
// congestion point unmarked (X_UM) and how many were marked (X_M) — it
// assigns the next window's packets to transmission *batches* (= buffer
// drain rounds = bins in time):
//
//   - Theorem IV.1: the unmarked count fits the current drain round, so
//     batch 1 carries X_UM packets.
//   - Theorem IV.2: the marked count must be split across two later
//     rounds, X_M/2 each (a single marked packet goes to either round
//     with probability 1/2).
//   - Corollary IV.2.1: three batches mitigate incast overflow.
//   - Corollary IV.2.2: batches 1 and 2 may be merged and sent together,
//     shortening completion to ≤ 2 RTT (Lemma IV.3).
type Batcher struct {
	// MergeFirstTwo applies Corollary IV.2.2 (the paper's default).
	MergeFirstTwo bool
	// MinBatch floors the first batch so a flow always makes progress.
	MinBatch int
	// StartMarkedCredit is the fraction of *marked* probes still credited
	// toward the initial window by StartWindow. The theory's merged first
	// batch corresponds to 0.5 (Corollary IV.2.2); the cautious default 0
	// grants only the unmarked share immediately, because start-up probes
	// measure buffer space already occupied by other tenants' traffic
	// rather than this flow's own previous window.
	StartMarkedCredit float64
	// Rand supplies the coin for odd marked counts; uniform [0,1).
	Rand func() float64
}

// Plan is the batch assignment for one window: Sizes()[i] packets are sent
// in round i (round 0 = immediately, round i = after i drain periods). It
// is a plain value — at most three batches, no backing slice to allocate.
type Plan struct {
	sizes [3]int
	n     int
}

// Sizes returns the batch sizes, first round first.
func (p *Plan) Sizes() []int { return p.sizes[:p.n] }

// Total returns the packets across all batches.
func (p Plan) Total() int {
	t := 0
	for _, s := range p.Sizes() {
		t += s
	}
	return t
}

// Rounds returns the number of non-empty batches.
func (p Plan) Rounds() int {
	n := 0
	for _, s := range p.Sizes() {
		if s > 0 {
			n++
		}
	}
	return n
}

// Split assigns unmarked (X_UM) and marked (X_M) packet counts to batches
// per the theorems above. Total packets are conserved.
func (b Batcher) Split(unmarked, marked int) Plan {
	if unmarked < 0 || marked < 0 {
		panic("binpack: negative packet count")
	}
	half1 := marked / 2
	half2 := marked - half1
	if marked%2 == 1 && b.Rand != nil && b.Rand() < 0.5 {
		// The odd packet lands in either half with probability 1/2
		// (Theorem IV.2, special case X_M = 1).
		half1, half2 = half2, half1
	}
	p := Plan{sizes: [3]int{unmarked, half1, half2}, n: 3}
	if b.MergeFirstTwo {
		p = Plan{sizes: [3]int{unmarked + half1, half2}, n: 2}
	}
	if b.MinBatch > 0 && p.sizes[0] < b.MinBatch {
		p.sizes[0] = b.MinBatch
	}
	return p
}

// StartWindow maps probe feedback to the safe initial window of Rule 2:
// with p probes of which m were marked, the connection may start with the
// merged first batch of Split(p-m, m), capped at the stack's default
// initial window and floored at MinBatch (≥ 1 segment so the handshake's
// first data can always leave).
func (b Batcher) StartWindow(probes, markedProbes, defaultICW int) int {
	if probes <= 0 {
		return defaultICW // no probe information: behave like stock TCP
	}
	if markedProbes > probes {
		markedProbes = probes
	}
	unmarked := probes - markedProbes
	// Scale the probe verdict onto the ICW range: probes sample the path,
	// the window is granted proportionally.
	w := int((float64(unmarked) + b.StartMarkedCredit*float64(markedProbes)) *
		float64(defaultICW) / float64(probes))
	if w > defaultICW {
		w = defaultICW
	}
	min := b.MinBatch
	if min <= 0 {
		min = 1
	}
	if w < min {
		w = min
	}
	return w
}
