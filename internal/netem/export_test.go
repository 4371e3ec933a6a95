package netem

// SetTwoEvent puts p on the two-event path — a completion event per packet
// that schedules the delivery itself — the oracle of the one-event hop.
func SetTwoEvent(p *Port, on bool) { p.twoEvent = on }
