//go:build poolpoison

package sim

import "testing"

// A slot released while still queued — the bug class recycling makes
// possible — must fail loudly under the poison build rather than run
// whatever the slot carries next.
func TestPoisonedSlotPanicsWhenFired(t *testing.T) {
	e := New()
	h := e.Schedule(10, func() { t.Error("released event ran its callback") })
	e.release(h.ev) // deliberate double-booking: still staged in the wheel
	defer func() {
		if r := recover(); r != "sim: freed event fired" {
			t.Fatalf("recover() = %v, want the freed-event panic", r)
		}
	}()
	e.Run()
}
