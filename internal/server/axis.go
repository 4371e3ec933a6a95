package server

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
)

// axis is the time axis of one RunWire series. A grid — n ≥ 2 points t0,
// t0+dt, … with dt > 0, which is how the bottleneck observer samples every
// series — travels as {"t0":…,"dt":…,"n":…}; any other axis travels as the
// plain array of its points, exactly as in the first body format, and that
// form still decodes wherever a grid may stand. WireRun picks the form, so
// a body whose axes are all irregular is byte-identical to the first
// format, and a client that expects arrays fails on the first grid by
// name. That shape change is the format's version check.
type axis struct {
	t0, dt int64 // dt > 0: the grid of n points t0, t0+dt, …
	n      int
	points ints // dt == 0: the points themselves
}

// axisOf is the wire form of the points ts: nil when there are none, a
// grid when ts is a strictly increasing progression of at least two
// points, else ts itself.
func axisOf(ts []int64) *axis {
	if len(ts) == 0 {
		return nil
	}
	if len(ts) < 2 || ts[1]-ts[0] <= 0 {
		return &axis{points: ts}
	}
	// A step that wrapped around int64 is either not positive or, between
	// decreasing points, not a step: both fail here.
	dt := ts[1] - ts[0]
	for i := 1; i < len(ts); i++ {
		if ts[i] <= ts[i-1] || ts[i]-ts[i-1] != dt {
			return &axis{points: ts}
		}
	}
	return &axis{t0: ts[0], dt: dt, n: len(ts)}
}

// count is the number of points.
func (a axis) count() int {
	if a.dt > 0 {
		return a.n
	}
	return len(a.points)
}

func (a axis) MarshalJSON() ([]byte, error) {
	if a.dt == 0 {
		return json.Marshal(a.points)
	}
	b := strconv.AppendInt([]byte(`{"t0":`), a.t0, 10)
	b = strconv.AppendInt(append(b, `,"dt":`...), a.dt, 10)
	b = strconv.AppendInt(append(b, `,"n":`...), int64(a.n), 10)
	return append(b, '}'), nil
}

// UnmarshalJSON decodes either form.
func (a *axis) UnmarshalJSON(data []byte) error {
	c := cursor{data: data}
	v, err := c.axis()
	if err == nil {
		err = c.end()
	}
	if err != nil {
		return err
	}
	*a = *v
	return nil
}

// axis reads a time axis in either form. A grid is {"t0":…,"dt":…,"n":…}:
// those three members, each once, in any order, each a JSON integer, and
// nothing else. It only records its three numbers here: how many points
// it names is checked against its paired value array before any is
// materialised (see timeAxes). What is not a grid — n < 2, dt ≤ 0 — is
// refused, and so is a grid whose last point t0+(n−1)·dt overflows int64,
// so no body can name a point it could never hold.
func (c *cursor) axis() (*axis, error) {
	if c.ws() != '{' {
		pts, err := numbers(c, intOf)
		return &axis{points: pts}, err
	}
	start := c.off
	bad := func(why string, args ...any) (*axis, error) {
		return nil, fmt.Errorf("json: offset %d: not a time axis: "+why, append([]any{start}, args...)...)
	}
	var v [3]int64 // t0, dt, n
	got := 0
	err := c.object(gridMembers, func(name string) (err error) {
		i := slices.Index(gridMembers, name)
		if i < 0 {
			return fmt.Errorf("unknown member %q", name)
		}
		v[i], err = c.integer(64)
		got++
		return err
	})
	const want = "want the members t0, dt and n, each once, each an integer"
	switch {
	case err != nil:
		return bad(want+": %w", err)
	case got < len(v):
		return bad(want)
	}
	t0, dt, n := v[0], v[1], v[2]
	if n < 2 || dt <= 0 || n > math.MaxInt {
		return bad("a grid has n ≥ 2 points and dt > 0")
	}
	// t0+(n−1)·dt ≤ MaxInt64, in unsigned arithmetic: the product must fit
	// 64 bits, and adding it to t0 shifted by 2^63 must not carry.
	hi, span := bits.Mul64(uint64(n-1), uint64(dt))
	if _, carry := bits.Add64(uint64(t0)^(1<<63), span, 0); hi != 0 || carry != 0 {
		return bad("its last point overflows int64")
	}
	return &axis{t0: t0, dt: dt, n: int(n)}, nil
}

var gridMembers = []string{"t0", "dt", "n"}

// last is a grid's last point.
func (a axis) last() int64 { return a.t0 + int64(a.n-1)*a.dt }

// phase is where a grid sits on its lattice: t0 mod dt, in [0, dt).
func (a axis) phase() int64 {
	p := a.t0 % a.dt
	if p < 0 {
		p += a.dt
	}
	return p
}

// timeAxes returns the points of every time axis of ws — queue packets,
// queue bytes and utilization, per run — after checking that each axis has
// exactly as many points as its paired value array, whose length the
// response cap already bounds; so a hostile grid fails here before
// anything of its size is allocated. An array axis is its own decoded
// array. Grid axes are materialised once for the whole set: grids of one
// dt and phase whose spans overlap or abut share one array — never longer
// than their point counts summed — and each takes a window of it with
// cap == len, so an append to one series copies instead of writing into
// the next.
func timeAxes(ws []*RunWire) ([][3][]int64, error) {
	type ref struct {
		run, series int
		a           axis
	}
	out := make([][3][]int64, len(ws))
	var grids []ref
	for i, w := range ws {
		for k, s := range [3]struct {
			t *axis
			v floats
		}{{w.QueuePktsT, w.QueuePktsV}, {w.QueueBytesT, w.QueueBytesV}, {w.UtilizationT, w.UtilizationV}} {
			var t axis
			if s.t != nil {
				t = *s.t
			}
			switch {
			case t.count() != len(s.v):
				return nil, fmt.Errorf("run %q: mismatched series lengths", w.Label)
			case t.dt > 0:
				grids = append(grids, ref{i, k, t})
			default:
				out[i][k] = t.points
			}
		}
	}
	// Grids that can share an array end up adjacent: same dt, same phase,
	// in order of their first point.
	slices.SortFunc(grids, func(x, y ref) int {
		return cmp.Or(cmp.Compare(x.a.dt, y.a.dt), cmp.Compare(x.a.phase(), y.a.phase()), cmp.Compare(x.a.t0, y.a.t0))
	})
	for len(grids) > 0 {
		g := grids[0].a
		end, j := g.last(), 1
		for ; j < len(grids); j++ {
			h := grids[j].a
			// h.t0 ≥ g.t0; the gap is taken unsigned, where it cannot wrap.
			if h.dt != g.dt || h.phase() != g.phase() || h.t0 > end && uint64(h.t0)-uint64(end) > uint64(g.dt) {
				break
			}
			end = max(end, h.last())
		}
		pts := make([]int64, (uint64(end)-uint64(g.t0))/uint64(g.dt)+1)
		for i, t := 0, g.t0; i < len(pts); i, t = i+1, t+g.dt {
			pts[i] = t
		}
		for _, r := range grids[:j] {
			off := int((uint64(r.a.t0) - uint64(g.t0)) / uint64(g.dt))
			out[r.run][r.series] = pts[off : off+r.a.n : off+r.a.n]
		}
		grids = grids[j:]
	}
	return out, nil
}
