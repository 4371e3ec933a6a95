//go:build !poolpoison

package netem

// In the normal build, packets are zeroed at release so a free list can
// hand them straight out.

func scrubOnRelease(p *Packet) { *p = Packet{} }

func resetOnAlloc(p *Packet) {}
