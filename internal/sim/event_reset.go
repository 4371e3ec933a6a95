//go:build !poolpoison

package sim

// In the normal build a vacated slot needs no scrubbing: fire and Cancel
// have already cleared fn and arg, and newEvent's caller overwrites every
// other field.

func scrubOnRelease(ev *event) {}

func resetOnAlloc(ev *event) {}
