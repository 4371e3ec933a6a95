package core

import (
	"testing"

	"hwatch/internal/netem"
)

// FuzzFlowSlab interprets the input as an op stream over the slab table —
// ensure, remove, get, and probes of both live and retired handles — and
// checks the two properties the generation scheme exists for:
//
//  1. no resurrection: a handle retired by remove (or orphaned by slot
//     reuse) must never resolve again, to any row;
//  2. no slot leaks: live rows plus freelist slots always account for
//     every slot ever minted, and the key index agrees with a model map
//     at every step.
//
// Every input runs twice: on an empty table, and on one holding
// flowSeamBallast rows, so the same 32-key churn straddles the seam between
// the last geometric chunk (slot 247) and the first full-size one.
func FuzzFlowSlab(f *testing.F) {
	f.Add([]byte("ensure-remove-ensure"))
	f.Add([]byte("\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09"))
	f.Add([]byte("\x00\x05\x01\x05\x00\x05\x02\x05\x03\x05\x01\x05"))
	f.Add([]byte{0, 1, 0, 2, 1, 1, 0, 3, 1, 2, 0, 1, 3, 0, 4, 0, 2, 1, 1, 3})
	// Eight ensures cross the seam on the ballasted table; then churn there.
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 1, 5, 1, 6, 0, 8, 4, 7, 3, 0, 0, 5, 4, 5, 2, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzFlowSlab(t, data, 0)
		fuzzFlowSlab(t, data, flowSeamBallast)
	})
}

// flowSeamBallast rows put the next ensure four slots short of the seam.
const flowSeamBallast = flowGeomRows - 4

func fuzzFlowSlab(t *testing.T, data []byte, ballast int) {
	tab := newFlowTable()
	model := make(map[netem.FlowKey]flowHandle) // live keys -> handle
	rows := make(map[netem.FlowKey]*flowEntry)  // live keys -> row: rows never move
	var retired []flowHandle                    // handles that must stay dead
	for i := 0; i < ballast; i++ {
		k := netem.FlowKey{Src: 9, Dst: 9, SrcPort: uint16(i), DstPort: 81}
		e, _ := tab.ensure(k, roleReceiver)
		model[k], rows[k] = e.self.(flowHandle), e
	}

	key := func(b byte) netem.FlowKey {
		// 32-key universe: small enough that remove/reuse interleavings
		// recycle slots constantly.
		return netem.FlowKey{
			Src:     netem.NodeID(b % 4),
			Dst:     netem.NodeID(4 + b%2),
			SrcPort: uint16(b % 32),
			DstPort: 80,
		}
	}

	for i := 0; i+1 < len(data); i += 2 {
		op, sel := data[i]%5, data[i+1]
		k := key(sel)
		switch op {
		case 0: // ensure
			e, created := tab.ensure(k, roleSender)
			_, inModel := model[k]
			if created == inModel {
				t.Fatalf("op %d: ensure(%v) created=%v but model has=%v", i, k, created, inModel)
			}
			if e.key != k || !e.live {
				t.Fatalf("op %d: ensure returned wrong row %+v", i, e)
			}
			model[k], rows[k] = e.self.(flowHandle), e
		case 1: // remove
			e := tab.remove(k)
			h, inModel := model[k]
			if (e != nil) != inModel {
				t.Fatalf("op %d: remove(%v) presence=%v but model has=%v", i, k, e != nil, inModel)
			}
			if e != nil {
				delete(model, k)
				delete(rows, k)
				retired = append(retired, h)
			}
		case 2: // get
			e := tab.get(k)
			if _, inModel := model[k]; (e != nil) != inModel {
				t.Fatalf("op %d: get(%v) presence mismatch", i, k)
			}
			if e != nil && e.key != k {
				t.Fatalf("op %d: get(%v) returned row for %v", i, k, e.key)
			}
		case 3: // probe a retired handle: must never resurrect
			if len(retired) > 0 {
				h := retired[int(sel)%len(retired)]
				if e := tab.resolve(h); e != nil {
					t.Fatalf("op %d: retired handle %x resurrected as %v", i, uint64(h), e.key)
				}
			}
		case 4: // probe a live handle: must resolve to its own key
			if h, ok := model[k]; ok {
				e := tab.resolve(h)
				if e == nil || e.key != k {
					t.Fatalf("op %d: live handle %x for %v resolved to %+v", i, uint64(h), k, e)
				}
			}
		}

		// Slot accounting: every slot ever minted is exactly one of
		// live or free.
		if tab.len() != len(model) {
			t.Fatalf("op %d: len %d != model %d", i, tab.len(), len(model))
		}
		if int(tab.next) != tab.len()+len(tab.free) {
			t.Fatalf("op %d: slot leak: next=%d live=%d free=%d",
				i, tab.next, tab.len(), len(tab.free))
		}
	}

	// Final cross-check: model and table agree row for row, and no
	// freelist slot is double-booked.
	for k, h := range model {
		e := tab.get(k)
		if e == nil || tab.resolve(h) != e || rows[k] != e {
			t.Fatalf("final: model key %v missing, handle mismatched or row moved", k)
		}
	}
	seen := make(map[uint32]bool, len(tab.free))
	for _, s := range tab.free {
		if seen[s] {
			t.Fatalf("final: slot %d on freelist twice", s)
		}
		if s >= tab.next {
			t.Fatalf("final: freelist holds unminted slot %d", s)
		}
		seen[s] = true
		if tab.at(s).live {
			t.Fatalf("final: freelist slot %d still live", s)
		}
	}
}
