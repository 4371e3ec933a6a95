//go:build poolpoison

package sim

import "math"

// Poison build (-tags poolpoison): a released slot is scribbled with
// sentinels and only reset when it is handed out again. Anything that
// keeps a slot queued or reads it after release now sorts it before every
// real event and panics when it fires, instead of silently running a stale
// callback, so a use-after-release flips a digest or fails loudly.

type freedEventArg struct{}

func freedEventFired(any) { panic("sim: freed event fired") }

func scrubOnRelease(ev *event) {
	ev.Time = math.MinInt64
	ev.sched = math.MinInt64
	ev.fn = freedEventFired
	ev.arg = freedEventArg{}
}

func resetOnAlloc(ev *event) {
	if _, ok := ev.arg.(freedEventArg); !ok {
		panic("sim: free-list slot written after release")
	}
	ev.fn = nil
	ev.arg = nil
}
