package core

import (
	"testing"
	"testing/quick"
	"unsafe"

	"hwatch/internal/netem"
	"hwatch/internal/sim"
)

// mapFlowTable is the pre-slab map implementation, kept here as the
// reference model for the equivalence property test below. The scenario-
// level proof of parity is in internal/experiments: the committed golden
// digests were generated while this implementation was the production
// table, and TestGoldenDigests asserts the slab table reproduces them
// byte-identically.
type mapFlowTable struct {
	entries map[netem.FlowKey]*flowEntry
}

func newMapFlowTable() *mapFlowTable {
	return &mapFlowTable{entries: make(map[netem.FlowKey]*flowEntry)}
}

func (t *mapFlowTable) get(k netem.FlowKey) *flowEntry { return t.entries[k] }

func (t *mapFlowTable) ensure(k netem.FlowKey, r role) (*flowEntry, bool) {
	if e, ok := t.entries[k]; ok {
		return e, false
	}
	e := &flowEntry{key: k, role: r, wndSegs: -1}
	t.entries[k] = e
	return e, true
}

func (t *mapFlowTable) remove(k netem.FlowKey) *flowEntry {
	e := t.entries[k]
	delete(t.entries, k)
	return e
}

func (t *mapFlowTable) len() int { return len(t.entries) }

// testKey maps a small integer to a flow key; the 16-key universe forces
// plenty of slot reuse and index collisions in the property test.
func testKey(i uint8) netem.FlowKey {
	return netem.FlowKey{
		Src:     netem.NodeID(i % 4),
		Dst:     netem.NodeID(4 + i/8),
		SrcPort: 1000 + uint16(i%8),
		DstPort: 80,
	}
}

// TestFlowTableMatchesMap drives random get/ensure/remove/len sequences
// through the slab table and the map reference in lockstep and requires
// identical observable behavior, including per-entry state mutated through
// the returned pointers. Even-length sequences start from a table already
// holding flowSeamBallast rows, so the churn runs across the seam between
// the geometric chunks and the full-size ones.
// TestFlowEntrySize pins the row: the parkable epoch chain must not have
// grown it past the 152 bytes it had before by more than 8.
func TestFlowEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(flowEntry{}); got > 160 {
		t.Fatalf("flowEntry is %d bytes, want <= 160", got)
	}
}

func TestFlowTableMatchesMap(t *testing.T) {
	check := func(ops []uint16) bool {
		slab := newFlowTable()
		ref := newMapFlowTable()
		for i := 0; len(ops)%2 == 0 && i < flowSeamBallast; i++ {
			k := netem.FlowKey{Src: 9, Dst: 9, SrcPort: uint16(i), DstPort: 81}
			slab.ensure(k, roleReceiver)
			ref.ensure(k, roleReceiver)
		}
		for step, op := range ops {
			k := testKey(uint8(op >> 2 % 16))
			switch op % 4 {
			case 0: // ensure
				r := roleSender
				if op&0x8000 != 0 {
					r = roleReceiver
				}
				se, screated := slab.ensure(k, r)
				me, mcreated := ref.ensure(k, r)
				if screated != mcreated || se.key != me.key || se.role != me.role {
					t.Logf("step %d: ensure(%v) diverged: created %v/%v", step, k, screated, mcreated)
					return false
				}
				// Mutate through the pointer; later gets must see it.
				se.wndSegs = step
				me.wndSegs = step
			case 1: // get
				se, me := slab.get(k), ref.get(k)
				if (se == nil) != (me == nil) {
					t.Logf("step %d: get(%v) presence diverged", step, k)
					return false
				}
				if se != nil && (se.key != me.key || se.role != me.role || se.wndSegs != me.wndSegs) {
					t.Logf("step %d: get(%v) state diverged: %+v vs %+v", step, k, se, me)
					return false
				}
			case 2: // remove
				se, me := slab.remove(k), ref.remove(k)
				if (se == nil) != (me == nil) {
					t.Logf("step %d: remove(%v) presence diverged", step, k)
					return false
				}
			case 3: // len
				if slab.len() != ref.len() {
					t.Logf("step %d: len diverged: %d vs %d", step, slab.len(), ref.len())
					return false
				}
			}
		}
		// Final sweep: every key in the reference must be in the slab with
		// identical state, and vice versa.
		if slab.len() != ref.len() {
			return false
		}
		for k, me := range ref.entries {
			se := slab.get(k)
			if se == nil || se.role != me.role || se.wndSegs != me.wndSegs {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestFlowTableGrowthBoundaryNoGhosts pins the ensure/idxGrow ordering: a
// row must not be marked live until after it is indexed, or the grow
// triggered at the 3/4-load boundary reinserts it and idxInsert then adds
// the same key a second time. The duplicate bucket survives remove() and a
// later get() resolves it to a dead or recycled row. 600 keys cross every
// index boundary from 16 to 1024 buckets and every chunk seam up to the
// third full-size chunk; rows must stay where they were handed out, and
// after removing every key the table and its index must both be empty.
func TestFlowTableGrowthBoundaryNoGhosts(t *testing.T) {
	tab := newFlowTable()
	keys := make([]netem.FlowKey, 600)
	rows := make([]*flowEntry, len(keys))
	for i := range keys {
		keys[i] = netem.FlowKey{Src: 1, Dst: 2, SrcPort: uint16(i), DstPort: 80}
		var created bool
		if rows[i], created = tab.ensure(keys[i], roleSender); !created {
			t.Fatalf("ensure(%v) found a pre-existing row", keys[i])
		}
	}
	for i, want := range []int{8, 16, 32, 64, 128, 256, 256} {
		if got := len(tab.slabs[i]); got != want {
			t.Fatalf("chunk %d holds %d rows, want %d", i, got, want)
		}
	}
	for i, k := range keys {
		if e := tab.get(k); e != rows[i] || tab.at(uint32(i)) != rows[i] || e.slot != uint32(i) {
			t.Fatalf("row %d moved or is misaddressed after growth", i)
		}
	}
	for _, k := range keys {
		if tab.remove(k) == nil {
			t.Fatalf("remove(%v) lost the row", k)
		}
	}
	if tab.len() != 0 {
		t.Fatalf("len = %d after removing every key, want 0", tab.len())
	}
	for _, k := range keys {
		if e := tab.get(k); e != nil {
			t.Fatalf("get(%v) returned a ghost row %+v after removal", k, e)
		}
	}
	for i, b := range tab.idx {
		if b.h != 0 {
			t.Fatalf("index bucket %d still occupied by %v after removing every key", i, b.key)
		}
	}
}

// TestFlowHandleStaleAfterRemove pins the handle contract: a handle stops
// resolving the moment its row is removed, and keeps not resolving after
// the slot is recycled by a different flow.
func TestFlowHandleStaleAfterRemove(t *testing.T) {
	tab := newFlowTable()
	k1, k2 := testKey(1), testKey(2)
	e1, _ := tab.ensure(k1, roleSender)
	h1 := e1.self.(flowHandle)
	if tab.resolve(h1) != e1 {
		t.Fatal("live handle must resolve to its entry")
	}
	tab.remove(k1)
	if tab.resolve(h1) != nil {
		t.Fatal("handle must not resolve after remove")
	}
	// Recycle the slot with a different flow.
	e2, created := tab.ensure(k2, roleReceiver)
	if !created || e2.slot != e1.slot {
		t.Fatalf("expected slot reuse: created=%v slot=%d want %d", created, e2.slot, e1.slot)
	}
	if tab.resolve(h1) != nil {
		t.Fatal("stale handle must not resurrect on the recycled slot")
	}
	if tab.resolve(e2.self.(flowHandle)) != e2 {
		t.Fatal("recycled slot's new handle must resolve")
	}
}

// TestFlowHandleSurvivesCrashWipe pins the Crash contract: handles minted
// by a wiped table never alias rows of its replacement, because the
// replacement continues the generation counter.
func TestFlowHandleSurvivesCrashWipe(t *testing.T) {
	eng := sim.New()
	s := NewShim(eng, DefaultConfig(100*sim.Microsecond), 0)
	e, _ := s.table.ensure(testKey(3), roleReceiver)
	h := e.self.(flowHandle)
	s.Crash()
	s.Restart()
	// Same key re-tracked after restart lands in slot 0 of the new table,
	// just like the old entry did in the old table.
	e2, _ := s.table.ensure(testKey(3), roleReceiver)
	if e2.slot != e.slot {
		t.Fatalf("expected the fresh table to reuse slot %d, got %d", e.slot, e2.slot)
	}
	if s.table.resolve(h) != nil {
		t.Fatal("pre-crash handle must not resolve against the replacement table")
	}
}

// TestGCSweepAllocationFree holds the satellite guarantee: the idle sweep
// iterates slots in place, with no per-sweep key snapshot. The only
// allocations on the sweep path are the event slab's amortized chunk
// growths (1 per 256 events), hence the fractional tolerance.
func TestGCSweepAllocationFree(t *testing.T) {
	eng := sim.New()
	cfg := DefaultConfig(100 * sim.Microsecond)
	cfg.GCInterval = sim.Second
	cfg.IdleTimeout = 30 * sim.Second
	s := NewShim(eng, cfg, 0)
	for i := 0; i < 200; i++ {
		s.table.ensure(testKey(uint8(i)), roleSender)
	}
	avg := testing.AllocsPerRun(500, s.gcSweep)
	if avg > 0.05 {
		t.Fatalf("gcSweep allocates %.3f per call over 200 entries; want ~0", avg)
	}
}

// BenchmarkGCSweep measures the idle sweep over a populated table. Before
// the slab refactor this allocated and sorted a fresh key slice per call.
func BenchmarkGCSweep(b *testing.B) {
	eng := sim.New()
	cfg := DefaultConfig(100 * sim.Microsecond)
	cfg.GCInterval = sim.Second
	cfg.IdleTimeout = 30 * sim.Second
	s := NewShim(eng, cfg, 0)
	for i := 0; i < 1024; i++ {
		k := testKey(uint8(i))
		k.SrcPort = uint16(i) // widen past the 16-key universe: 1024 rows
		s.table.ensure(k, roleSender)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.gcSweep()
	}
}
