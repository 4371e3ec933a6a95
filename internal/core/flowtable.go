package core

import (
	"math/bits"

	"hwatch/internal/netem"
	"hwatch/internal/sim"
)

// flowEntry is one row of the shim's flow table, keyed by the 4-tuple of
// the *data direction* (sender -> receiver), exactly like the paper's
// hash-table indexed by source/destination IPs and ports. It stores the
// window-scale factor exchanged at setup, the ECN mark accounting, and the
// current window verdict.
//
// Entries live in generation-indexed slabs (see flowTable below), not
// behind individual heap pointers: the row is owned by the table, handed
// out as a *flowEntry that stays valid only until remove. Anything that
// outlives a packet callback — the epoch timer, the post-expiry linger —
// must hold the entry's flowHandle and re-resolve it, never the pointer.
type flowEntry struct {
	key netem.FlowKey

	// Slab bookkeeping. gen is the occupancy generation drawn from the
	// table's counter at ensure time; live distinguishes an occupied slot
	// from a freed one awaiting reuse.
	slot uint32
	gen  uint32
	live bool

	role role
	// Receiver side: the guest's advertised window scale, captured from
	// the SYN-ACK so clamps re-encode correctly (Section IV-E).
	wscale   int8
	guestECN bool // guest negotiated ECN itself; don't dye its packets
	stamped  bool // Rule 2: SYN-ACK already rewritten
	closed   bool

	// self is the entry's handle pre-boxed as an `any`, so the per-flow
	// timers (epoch close, post-expiry linger) schedule through
	// ScheduleArg without boxing per event: one 8-byte box per flow
	// lifetime instead of one per RTT.
	self any

	// Rule 2 state.
	probesSeen   int
	probesMarked int

	// Rule 1 state: per-epoch data-packet mark accounting. epoch is the
	// per-RTT chain; it parks on an epoch that saw no packet and is resumed
	// by the next one.
	unmarked    int
	marked      int
	cleanEpochs int // consecutive epochs without a mark
	wndSegs     int // current clamp; <0 until established
	epoch       sim.Chain

	lastActive int64 // last packet seen, for idle GC
}

// flowHandle names a table row as {slot, generation}: 32 bits of slot index
// in the low word, 32 bits of generation in the high word. The zero handle
// is never valid (generations start at 1). A handle resolves to an entry
// only while that exact occupancy is live — after remove, or after the slot
// is reused by a later flow, resolve returns nil. Generations are drawn
// from a per-table counter that survives Crash (the replacement table
// continues it), so a handle minted before a wipe can never alias a row
// created after it.
type flowHandle uint64

func makeHandle(slot, gen uint32) flowHandle {
	return flowHandle(uint64(gen)<<32 | uint64(slot))
}

func (h flowHandle) slot() uint32 { return uint32(h) }
func (h flowHandle) gen() uint32  { return uint32(h >> 32) }

// Slab chunks grow geometrically — 8, 16, 32, 64, 128 rows — and are
// flowChunkSize rows each from then on, so a shim that tracks a flow or two
// does not pay for 256 rows. Chunks are never reallocated once grown, so
// *flowEntry pointers handed out by get/ensure remain stable for the
// entry's lifetime even as the table grows — growth appends a chunk, it
// never moves existing rows.
const (
	flowChunkShift = 8
	flowChunkSize  = 1 << flowChunkShift
	flowChunkMask  = flowChunkSize - 1
	flowGeomRows   = flowChunkSize - 8 // rows in the five chunks below full size
)

// chunkOf maps a slot to its chunk and the row within it.
func chunkOf(slot uint32) (chunk int, row uint32) {
	if slot < flowGeomRows {
		chunk = bits.Len32(slot+8) - 4
		return chunk, slot + 8 - 8<<chunk
	}
	slot -= flowGeomRows
	return 5 + int(slot>>flowChunkShift), slot & flowChunkMask
}

// flowBucket is one slot of the open-addressing key index. h == 0 marks an
// empty bucket (valid handles are never zero).
type flowBucket struct {
	h   flowHandle
	key netem.FlowKey
}

// flowTable is the slab-backed flow state store: a dense chunked array of
// rows addressed by slot, a freelist of vacated slots, and a compact
// linear-probing index from FlowKey to handle. Compared to the previous
// map[FlowKey]*flowEntry it allocates nothing per flow on the steady path
// (rows are recycled through the freelist), keeps rows cache-dense, and
// gives the GC two flat slices to scan instead of a pointer per flow.
//
// Determinism: FlowKey.Hash is seedless, so the probe order — and with it
// every observable iteration the table performs (index rebuilds) — is
// identical across processes. Sweeps iterate slot order, which is
// insertion/reuse order and equally deterministic; nothing here depends on
// the runtime's seeded map hash.
type flowTable struct {
	slabs [][]flowEntry // chunked rows, addressed through chunkOf
	free  []uint32      // vacated slots, reused LIFO
	next  uint32        // lowest never-occupied slot
	used  int           // live rows

	idx  []flowBucket // open-addressing key index, power-of-two sized
	mask uint64

	genc uint32 // next generation to assign; starts at 1, never reused (ensure panics on wrap)
}

const flowIdxInitial = 16

func newFlowTable() *flowTable { return newFlowTableGen(1) }

// newFlowTableGen builds a table whose generation counter starts at gen;
// Crash uses it so the replacement table cannot re-mint handles the wiped
// table already handed out.
func newFlowTableGen(gen uint32) *flowTable {
	if gen == 0 {
		gen = 1
	}
	return &flowTable{
		idx:  make([]flowBucket, flowIdxInitial),
		mask: flowIdxInitial - 1,
		genc: gen,
	}
}

// at returns the row at slot. The slot must be < t.next.
func (t *flowTable) at(slot uint32) *flowEntry {
	chunk, row := chunkOf(slot)
	return &t.slabs[chunk][row]
}

func (t *flowTable) get(k netem.FlowKey) *flowEntry {
	i := k.Hash() & t.mask
	for {
		b := &t.idx[i]
		if b.h == 0 {
			return nil
		}
		if b.key == k {
			return t.rowOf(b)
		}
		i = (i + 1) & t.mask
	}
}

// rowOf resolves an index bucket to its slab row, checking that the row is
// still the occupancy the bucket was minted for. The index and slab are
// updated in lockstep, so a dead or recycled row here means the index is
// corrupt — panic rather than silently alias one flow's state to another.
func (t *flowTable) rowOf(b *flowBucket) *flowEntry {
	e := t.at(b.h.slot())
	if !e.live || e.gen != b.h.gen() {
		panic("core: flowTable index bucket names a dead or recycled row")
	}
	return e
}

func (t *flowTable) ensure(k netem.FlowKey, r role) (*flowEntry, bool) {
	if e := t.get(k); e != nil {
		return e, false
	}
	var slot uint32
	if n := len(t.free); n > 0 {
		slot = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		slot = t.next
		t.next++
		if chunk, _ := chunkOf(slot); chunk == len(t.slabs) {
			t.slabs = append(t.slabs, make([]flowEntry, min(flowChunkSize, 8<<chunk)))
		}
	}
	gen := t.genc
	t.genc++
	if t.genc == 0 {
		// A wrapped counter would mint handle {0,0} — the empty-bucket
		// sentinel — and start reusing generations, breaking the
		// never-resurrect contract resolve() depends on. 2^32 ensures per
		// table lineage is unreachable in any run we model; fail loudly
		// rather than alias silently.
		panic("core: flowTable generation counter wrapped")
	}
	h := makeHandle(slot, gen)
	// Index the key before the row goes live: idxInsert may grow the index,
	// and idxGrow reinserts every live row — a row already marked live here
	// would be inserted by the grow and then again by idxInsert, leaving a
	// duplicate bucket that outlives remove().
	t.idxInsert(k, h)
	e := t.at(slot)
	*e = flowEntry{
		key:     k,
		role:    r,
		slot:    slot,
		gen:     gen,
		live:    true,
		self:    h,
		wndSegs: -1,
	}
	t.used++
	return e, true
}

// resolve returns the entry a handle names, or nil if that occupancy has
// ended (row removed, slot reused, or table replaced since the handle was
// minted). This is the only safe way to reach a row from a deferred event.
func (t *flowTable) resolve(h flowHandle) *flowEntry {
	slot := h.slot()
	if slot >= t.next {
		return nil
	}
	e := t.at(slot)
	if !e.live || e.gen != h.gen() {
		return nil
	}
	return e
}

// remove vacates the row under k and returns it (nil if absent). The
// returned pointer is only good for a last look at the fields: the slot is
// already on the freelist and its generation retired, so held handles no
// longer resolve and the row may be recycled by the next ensure.
func (t *flowTable) remove(k netem.FlowKey) *flowEntry {
	i := k.Hash() & t.mask
	for {
		b := &t.idx[i]
		if b.h == 0 {
			return nil
		}
		if b.key == k {
			e := t.rowOf(b)
			t.idxDelete(i)
			e.live = false
			e.self = nil
			t.free = append(t.free, e.slot)
			t.used--
			return e
		}
		i = (i + 1) & t.mask
	}
}

func (t *flowTable) len() int { return t.used }

// idxInsert adds a key under linear probing, growing the index at 3/4
// load.
func (t *flowTable) idxInsert(k netem.FlowKey, h flowHandle) {
	if uint64(t.used+1)*4 > uint64(len(t.idx))*3 {
		t.idxGrow()
	}
	i := k.Hash() & t.mask
	for t.idx[i].h != 0 {
		i = (i + 1) & t.mask
	}
	t.idx[i] = flowBucket{h: h, key: k}
}

// idxDelete empties bucket i and backward-shifts the probe chain behind it
// (Knuth 6.4 algorithm R), so lookups need no tombstones.
func (t *flowTable) idxDelete(i uint64) {
	for {
		t.idx[i] = flowBucket{}
		j := i
		for {
			j = (j + 1) & t.mask
			b := t.idx[j]
			if b.h == 0 {
				return
			}
			// b may fill the hole at i iff i lies on b's probe path, i.e.
			// probing from b's home bucket reaches i no later than j.
			home := b.key.Hash() & t.mask
			if ((j - home) & t.mask) >= ((j - i) & t.mask) {
				t.idx[i] = b
				i = j
				break
			}
		}
	}
}

// idxGrow doubles the index and reinserts all live keys in slot order
// (deterministic: slot order is insertion/reuse order).
func (t *flowTable) idxGrow() {
	t.idx = make([]flowBucket, 2*len(t.idx))
	t.mask = uint64(len(t.idx)) - 1
	for slot := uint32(0); slot < t.next; slot++ {
		e := t.at(slot)
		if !e.live {
			continue
		}
		i := e.key.Hash() & t.mask
		for t.idx[i].h != 0 {
			i = (i + 1) & t.mask
		}
		t.idx[i] = flowBucket{h: makeHandle(e.slot, e.gen), key: e.key}
	}
}

// keyLess orders flow keys by 4-tuple; the one total order operator-facing
// listings (Snapshot) present rows in.
func keyLess(a, b netem.FlowKey) bool {
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	if a.SrcPort != b.SrcPort {
		return a.SrcPort < b.SrcPort
	}
	if a.Dst != b.Dst {
		return a.Dst < b.Dst
	}
	return a.DstPort < b.DstPort
}
