// Fixture for the schedclosure analyzer: loaded under the package path
// hwatch/internal/netem/a, inside the hot-path scope.
package a

type Event struct{}

type Engine struct{}

func (e *Engine) Schedule(delay int64, fn func()) *Event            { return &Event{} }
func (e *Engine) ScheduleArg(d int64, fn func(any), arg any) *Event { return &Event{} }
func (e *Engine) At(t int64, fn func()) *Event                      { return &Event{} }

type Reservation struct{}

func (e *Engine) ScheduleChildArg(r *Reservation, idx uint32, d int64, fn func(any), arg any) *Event {
	return &Event{}
}
func (e *Engine) InsertReserved(r *Reservation, fn func(any), arg any) *Event { return &Event{} }

type Packet struct{ ID int }

type Host struct {
	eng *Engine

	// Cached bound callback: the sanctioned allocation-free shape.
	deliverFn func(any)
}

func (h *Host) deliver(a any) { _ = a.(*Packet) }

func (h *Host) capturing(p *Packet) {
	h.eng.Schedule(10, func() { h.deliver(p) }) // want `captures h, p`
	h.eng.At(10, func() { h.deliver(p) })       // want `captures h, p`
}

func (h *Host) reserved(r *Reservation, p *Packet) {
	h.eng.ScheduleChildArg(r, 0, 10, func(any) { h.deliver(p) }, nil) // want `captures h, p`
	h.eng.InsertReserved(r, func(any) { h.deliver(p) }, nil)          // want `captures h, p`
	h.eng.ScheduleChildArg(r, 0, 10, h.deliverFn, p)                  // cached bound method: clean
}

func (h *Host) viaLocalVariable(p *Packet) {
	deliver := func() { h.deliver(p) }
	h.eng.Schedule(10, deliver) // want `captures h, p`
}

func (h *Host) sanctioned(p *Packet) {
	h.eng.ScheduleArg(10, h.deliverFn, p) // cached bound method: clean
	h.eng.Schedule(10, captureFree)       // func value, no literal: clean
	h.eng.Schedule(10, func() {})         // capture-free literal: clean
}

func (h *Host) suppressed(p *Packet) {
	//hwatchvet:allow schedclosure cold path, runs once per scenario
	h.eng.Schedule(10, func() { h.deliver(p) })
}

func captureFree() {}
