package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/big"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// FuzzNumberArrayDecode holds the RunWire array decoders to encoding/json
// as the oracle. Whatever it rejects for a plain []float64 / []int64 —
// strings, nested arrays, 1.5 into an int, overflow — they reject. Whatever
// it accepts they decode to the same bits, nil for null and empty for [],
// in a slice with no spare capacity; the one exception is a null element,
// which it reads as zero and they refuse. Called directly, outside
// json.Unmarshal's validation, they answer the same.
func FuzzNumberArrayDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkNumberArray(t, data, math.Float64bits, func(direct bool) (fs floats, err error) {
			if direct {
				return fs, fs.UnmarshalJSON(data)
			}
			return fs, json.Unmarshal(data, &fs)
		})
		checkNumberArray(t, data, func(v int64) uint64 { return uint64(v) }, func(direct bool) (ns ints, err error) {
			if direct {
				return ns, ns.UnmarshalJSON(data)
			}
			return ns, json.Unmarshal(data, &ns)
		})
	})
}

// checkNumberArray compares what encoding/json makes of data as a plain []T
// with what decode makes of it through json.Unmarshal and, direct, through
// the named type's own UnmarshalJSON.
func checkNumberArray[T float64 | int64, S ~[]T](t *testing.T, data []byte, bits func(T) uint64, decode func(direct bool) (S, error)) {
	t.Helper()
	var want []T
	wantErr := json.Unmarshal(data, &want)
	if wantErr == nil {
		var holes []*T
		if err := json.Unmarshal(data, &holes); err != nil {
			t.Fatalf("%q decodes into %T but not into %T: %v", data, want, holes, err)
		}
		for _, p := range holes {
			if p == nil {
				wantErr = errors.New("null array element")
			}
		}
	}
	for _, direct := range []bool{false, true} {
		got, err := decode(direct)
		switch {
		case wantErr != nil && err == nil:
			t.Errorf("direct=%v: %q decoded to %v, want an error like %v", direct, data, got, wantErr)
		case wantErr == nil && err != nil:
			t.Errorf("direct=%v: %q failed with %v, encoding/json reads %v", direct, data, err, want)
		}
		if wantErr != nil || err != nil {
			continue
		}
		if len(got) != len(want) || (got == nil) != (want == nil) || cap(got) != len(got) {
			t.Fatalf("direct=%v: %q decoded to %#v with cap %d, encoding/json reads %#v", direct, data, got, cap(got), want)
		}
		for i := range want {
			if bits(want[i]) != bits(got[i]) {
				t.Errorf("direct=%v: %q element %d is %v, encoding/json reads %v", direct, data, i, got[i], want[i])
			}
		}
	}
}

// FuzzAxisRoundTrip holds the time-axis form to its contract. Any []int64
// — the one spelled by data eight bytes a point, and the progression of n
// points from t0 in steps of dt — encodes, decodes and materialises back
// to itself bit for bit, with cap == len; an empty one comes back nil, as
// the first format, which omitted it, decoded it. It travels as a grid
// exactly when it is a progression whose step is positive and an int64 —
// two points can be further apart than that — and otherwise as
// the very bytes encoding/json writes for the plain array, as in the first
// body format. And data itself, as a body, never panics the decoder.
func FuzzAxisRoundTrip(f *testing.F) {
	f.Add([]byte(`{"t0":0,"dt":100000,"n":1301}`), int64(0), int64(100_000), uint8(13))
	f.Add([]byte(`{"t0":-9223372036854775808,"dt":1,"n":2}`), int64(math.MinInt64), int64(math.MaxInt64), uint8(2))
	f.Add([]byte(`[0,100000,200000]`), int64(math.MaxInt64-5), int64(3), uint8(3))
	f.Add([]byte{}, int64(7), int64(0), uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, t0, dt int64, n uint8) {
		var a *axis
		_ = new(axis).UnmarshalJSON(data)
		_ = json.Unmarshal(data, &a)

		var spelled []int64
		for i := 0; i+8 <= len(data); i += 8 {
			spelled = append(spelled, int64(binary.LittleEndian.Uint64(data[i:])))
		}
		progression := make([]int64, n)
		for i := range progression {
			progression[i] = t0 + int64(i)*dt // wraps where it overflows: then it is no progression
		}
		for _, ts := range [][]int64{spelled, progression} {
			checkAxisRoundTrip(t, ts)
		}
	})
}

func checkAxisRoundTrip(t *testing.T, ts []int64) {
	t.Helper()
	// The oracle counts in big integers, where nothing wraps.
	grid := len(ts) >= 2
	var step big.Int
	for i := 1; grid && i < len(ts); i++ {
		var d big.Int
		d.Sub(big.NewInt(ts[i]), big.NewInt(ts[i-1]))
		if i == 1 {
			step.Set(&d)
		}
		grid = d.Sign() > 0 && d.IsInt64() && d.Cmp(&step) == 0
	}
	body, err := json.Marshal(axisOf(ts))
	if err != nil {
		t.Fatal(err)
	}
	if isGrid := len(body) > 0 && body[0] == '{'; isGrid != grid {
		t.Fatalf("%v encoded as %s; a progression with a positive int64 step is %v", ts, body, grid)
	}
	if plain, _ := json.Marshal(ts); !grid && len(ts) > 0 && !bytes.Equal(body, plain) {
		t.Fatalf("%v encoded as %s, the plain array is %s", ts, body, plain)
	}
	w := &RunWire{QueuePktsV: make(floats, len(ts))}
	if err := json.Unmarshal(body, &w.QueuePktsT); err != nil {
		t.Fatalf("%v: %s does not decode: %v", ts, body, err)
	}
	axes, err := timeAxes([]*RunWire{w})
	if err != nil {
		t.Fatalf("%v: %s does not materialise: %v", ts, body, err)
	}
	got := axes[0][0]
	if !slices.Equal(got, ts) || (got == nil) != (len(ts) == 0) || cap(got) != len(got) {
		t.Fatalf("%v came back as %v (cap %d) through %s", ts, got, cap(got), body)
	}
}

// TestGridAxisRejectsHostileGrids: a grid that is not one, or names more
// points than its value array holds, is an error before anything of its
// size is allocated.
func TestGridAxisRejectsHostileGrids(t *testing.T) {
	for _, c := range []struct{ axis, want string }{
		{`{"t0":0,"dt":1,"n":1}`, "n ≥ 2"},
		{`{"t0":0,"dt":0,"n":3}`, "dt > 0"},
		{`{"t0":0,"dt":-5,"n":3}`, "dt > 0"},
		{`{"t0":9223372036854775000,"dt":1000,"n":3}`, "overflows int64"},
		{`{"t0":0,"dt":4611686018427387904,"n":3}`, "overflows int64"},
		{`{"t0":-9223372036854775808,"dt":9223372036854775807,"n":4}`, "overflows int64"},
		{`{"t0":0,"dt":1,"n":3.0}`, "invalid syntax"},
		{`{"t0":0,"dt":1}`, "each once"},
		{`{"t0":0,"dt":1,"n":3,"n":3}`, "each once"},
		{`{"t0":0,"dt":1,"n":3,"x":1}`, "each once"},
		{`{"t0":"0","dt":1,"n":3}`, "not a number"},
		{`{"t0":0,"dt":1,"n":2}`, "mismatched series lengths"},
	} {
		body := `{"kind":"spec","runs":[{"label":"x","queue_pkts_t":` + c.axis + `,"queue_pkts_v":[1,2,3]}]}`
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var res Result
		err := json.Unmarshal([]byte(body), &res)
		if err == nil {
			_, err = res.ScenarioRuns()
		}
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want an error saying %q", c.axis, err, c.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("%s: allocated %d bytes on the way to failing", c.axis, grew)
		}
	}
}

// TestFirstFormatBodyStillDecodes: a result encoded before time axes could
// travel as grids — every axis a plain array — decodes and verifies every
// run digest. Re-encoded, its axes are grids, the body shrinks, and a
// reader of the first format, plain []int64 fields, fails on it by naming
// the field instead of misreading it.
func TestFirstFormatBodyStillDecodes(t *testing.T) {
	v1, err := os.ReadFile("testdata/v1_spec_result.json")
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	if err := json.Unmarshal(v1, &res); err != nil {
		t.Fatal(err)
	}
	runs, err := res.ScenarioRuns()
	if err != nil || len(runs) == 0 {
		t.Fatalf("%d runs, %v", len(runs), err)
	}
	for _, w := range res.Runs {
		if w.QueuePktsT.dt != 0 {
			t.Fatalf("run %s: the fixture's axes are not all arrays", w.Label)
		}
	}

	v2res := res
	v2res.Runs = nil
	for _, r := range runs {
		v2res.Runs = append(v2res.Runs, WireRun(r))
	}
	v2, err := json.Marshal(&v2res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(v2, []byte(`"queue_pkts_t":{"t0":0,"dt":100000,"n":`)) || len(v2) >= len(v1)/2 {
		t.Fatalf("re-encoded, the %d-byte body is %d bytes: %.200s", len(v1), len(v2), v2)
	}
	var again Result
	if err := json.Unmarshal(v2, &again); err != nil {
		t.Fatal(err)
	}
	if _, err := again.ScenarioRuns(); err != nil {
		t.Fatal(err)
	}

	var firstFormat struct {
		Runs []struct {
			QueuePktsT   []int64 `json:"queue_pkts_t"`
			QueueBytesT  []int64 `json:"queue_bytes_t"`
			UtilizationT []int64 `json:"utilization_t"`
		} `json:"runs"`
	}
	err = json.Unmarshal(v2, &firstFormat)
	if err == nil || !strings.Contains(err.Error(), "queue_pkts_t") {
		t.Errorf("a first-format reader decoded the new body with %v, want an error naming queue_pkts_t", err)
	}
}

// TestTimeAxesShareOneArrayPerChain: grids of one step and phase whose
// spans overlap or abut share one materialised array; each window has the
// right points and no room past its end, so an append to one series
// leaves every other as it was.
func TestTimeAxesShareOneArrayPerChain(t *testing.T) {
	grid := func(t0, dt int64, n int) axis { return axis{t0: t0, dt: dt, n: n} }
	axes := [][3]axis{
		{grid(0, 10, 5), grid(0, 10, 20), grid(10, 10, 4)},                           // one chain, 0…190
		{grid(200, 10, 3), grid(5, 10, 3), grid(0, 20, 3)},                           // abuts it; phase 5; step 20
		{grid(1000, 10, 2), {points: []int64{3, 1, 2}}, {}},                          // past a gap; an array; none
		{grid(math.MaxInt64-20, 10, 3), grid(math.MinInt64, 10, 2), grid(-5, 10, 2)}, // the int64 ends; abuts 5…25
	}
	var ws []*RunWire
	for _, a := range axes {
		ws = append(ws, &RunWire{
			QueuePktsT: &a[0], QueuePktsV: make(floats, a[0].count()),
			QueueBytesT: &a[1], QueueBytesV: make(floats, a[1].count()),
			UtilizationT: &a[2], UtilizationV: make(floats, a[2].count()),
		})
	}
	got, err := timeAxes(ws)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range axes {
		for k, ax := range a {
			want := ax.points
			for j := 0; j < ax.n; j++ {
				want = append(want, ax.t0+int64(j)*ax.dt)
			}
			if ts := got[i][k]; !slices.Equal(ts, want) || cap(ts) != len(ts) {
				t.Fatalf("run %d axis %d: %v (cap %d), want %v", i, k, ts, cap(ts), want)
			}
		}
	}
	// Each pair of windows of one chain, and how many points apart they start.
	for _, c := range []struct{ a, b [2]int }{
		{[2]int{0, 1}, [2]int{0, 0}}, {[2]int{0, 1}, [2]int{0, 2}}, {[2]int{0, 1}, [2]int{1, 0}}, {[2]int{3, 2}, [2]int{1, 1}},
	} {
		a, b := got[c.a[0]][c.a[1]], got[c.b[0]][c.b[1]]
		off := (axes[c.b[0]][c.b[1]].t0 - axes[c.a[0]][c.a[1]].t0) / 10
		if unsafe.Pointer(&b[0]) != unsafe.Add(unsafe.Pointer(&a[0]), off*8) {
			t.Errorf("axes %v and %v are not windows of one array", c.a, c.b)
		}
	}
	for i := range got {
		for k := range got[i] {
			others := slices.Clone(got)
			for j := range others {
				for m := range others[j] {
					others[j][m] = slices.Clone(others[j][m])
				}
			}
			_ = append(got[i][k], -1)
			if !reflect.DeepEqual(got, others) {
				t.Fatalf("an append to run %d axis %d changed another series", i, k)
			}
		}
	}
}

// FuzzDecodeResult holds Result's one-pass decoder to encoding/json as the
// oracle, reading the same body into resultMirror's plain slices. Whatever
// body the decoder accepts, the oracle accepts and reads to the same bits.
// Every body json.Marshal writes for a Result — here one built out of the
// input's bytes — the decoder accepts, with cap == len on every array. No
// input panics it, or ScenarioRuns after it.
func FuzzDecodeResult(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeResult(t, body, false)
		enc, err := json.Marshal(resultFrom(body))
		if err != nil {
			t.Fatal(err)
		}
		checkDecodeResult(t, enc, true)
	})
}

func checkDecodeResult(t *testing.T, body []byte, mustAccept bool) {
	t.Helper()
	var got Result
	if err := got.UnmarshalJSON(body); err != nil {
		if mustAccept {
			t.Fatalf("json.Marshal wrote %.200q, the decoder refuses it: %v", body, err)
		}
		return
	}
	_, _ = got.ScenarioRuns() // may refuse the runs (most digests are made up); must not panic
	if err := capIsLen(reflect.ValueOf(got)); err != nil {
		t.Fatalf("%.200q: %v", body, err)
	}
	var want resultMirror
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatalf("the decoder accepts %.200q, encoding/json refuses it: %v", body, err)
	}
	// json.Marshal tells every two float64s apart (-0 from 0 too), nil
	// from empty, and a missing axis from an empty one.
	g, err := json.Marshal(mirrorOf(&got))
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(&want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Fatalf("%.200q decodes to\n%.300s\nencoding/json reads\n%.300s", body, g, w)
	}
}

// resultMirror is Result as encoding/json reads it with no help: plain
// slices, and a time axis as either of its forms.
type resultMirror struct {
	Kind    string       `json:"kind"`
	Name    string       `json:"name"`
	Digest  string       `json:"digest"`
	Version string       `json:"version"`
	Runs    []*runMirror `json:"runs"`
	Rows    []string     `json:"rows"`
}

type runMirror struct {
	Label          string      `json:"label"`
	Digest         string      `json:"digest"`
	ShortFCTms     []float64   `json:"short_fct_ms"`
	PerSourceAvgMs []float64   `json:"per_source_avg_ms"`
	PerSourceVarMs []float64   `json:"per_source_var_ms"`
	ShortRetrans   []float64   `json:"short_retrans"`
	LongGoodputBps []float64   `json:"long_goodput_bps"`
	LongFairness   float64     `json:"long_fairness"`
	QueuePktsT     *axisMirror `json:"queue_pkts_t"`
	QueuePktsV     []float64   `json:"queue_pkts_v"`
	QueueBytesT    *axisMirror `json:"queue_bytes_t"`
	QueueBytesV    []float64   `json:"queue_bytes_v"`
	UtilizationT   *axisMirror `json:"utilization_t"`
	UtilizationV   []float64   `json:"utilization_v"`
	Drops          int64       `json:"drops"`
	Marks          int64       `json:"marks"`
	Timeouts       int64       `json:"timeouts"`
	ShortDone      int         `json:"short_done"`
	ShortAll       int         `json:"short_all"`
	WallNs         int64       `json:"wall_ns"`
	Events         uint64      `json:"events"`
	Violations     []string    `json:"invariant_violations"`
}

type axisMirror struct {
	Grid   *struct{ T0, Dt, N int64 }
	Points []int64
}

func (a *axisMirror) UnmarshalJSON(data []byte) error {
	if data[0] != '{' {
		return json.Unmarshal(data, &a.Points)
	}
	return json.Unmarshal(data, &a.Grid)
}

// mirrorOf copies a decoded Result into resultMirror, field by field in
// order; a RunWire field the mirror lacks is a panic, not a blind spot.
func mirrorOf(res *Result) *resultMirror {
	m := &resultMirror{Kind: res.Kind, Name: res.Name, Digest: res.Digest, Version: res.Version, Rows: res.Rows}
	if res.Runs != nil {
		m.Runs = []*runMirror{}
	}
	for _, w := range res.Runs {
		rm := new(runMirror)
		src, dst := reflect.ValueOf(w).Elem(), reflect.ValueOf(rm).Elem()
		if src.NumField() != dst.NumField() {
			panic("runMirror does not mirror RunWire")
		}
		for i := range src.NumField() {
			switch s := src.Field(i).Interface().(type) {
			case *axis:
				if s != nil {
					a := &axisMirror{Points: s.points}
					if s.dt > 0 {
						a = &axisMirror{Grid: &struct{ T0, Dt, N int64 }{s.t0, s.dt, int64(s.n)}}
					}
					dst.Field(i).Set(reflect.ValueOf(a))
				}
			default:
				dst.Field(i).Set(src.Field(i).Convert(dst.Field(i).Type()))
			}
		}
		m.Runs = append(m.Runs, rm)
	}
	return m
}

// capIsLen reports a slice anywhere in v with room past its end.
func capIsLen(v reflect.Value) error {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			return capIsLen(v.Elem())
		}
	case reflect.Struct:
		for i := range v.NumField() {
			if err := capIsLen(v.Field(i)); err != nil {
				return fmt.Errorf("%s: %w", v.Type().Field(i).Name, err)
			}
		}
	case reflect.Slice:
		if v.Cap() != v.Len() {
			return fmt.Errorf("len %d, cap %d", v.Len(), v.Cap())
		}
		for i := range v.Len() {
			if err := capIsLen(v.Index(i)); err != nil {
				return err
			}
		}
	}
	return nil
}

// resultFrom builds a Result out of data: the bytes themselves as strings,
// and each 8-byte word as a float value (unless NaN or ±Inf, which JSON
// cannot carry) and as a counter and a time point.
func resultFrom(data []byte) *Result {
	var fs [8]floats
	var ws []int64
	for i := 0; i+8 <= len(data); i += 8 {
		u := binary.LittleEndian.Uint64(data[i:])
		if f := math.Float64frombits(u); !math.IsNaN(f) && !math.IsInf(f, 0) {
			fs[i/8%8] = append(fs[i/8%8], f)
		}
		ws = append(ws, int64(u))
	}
	word := func(k int) int64 {
		if k >= len(ws) {
			return int64(k)
		}
		return ws[k]
	}
	grid := make([]int64, len(ws)%5+2)
	for i := range grid {
		grid[i] = word(0) + int64(i)*(word(1)&0xffff+1)
	}
	s := string(data)
	run := &RunWire{
		Label: s, Digest: s,
		ShortFCTms: fs[0], PerSourceAvgMs: fs[1], PerSourceVarMs: fs[2], ShortRetrans: fs[3], LongGoodputBps: fs[4],
		LongFairness: math.Float64frombits(uint64(word(2)) &^ (0x7ff << 52)), // finite
		QueuePktsT:   axisOf(ws), QueuePktsV: fs[5],
		QueueBytesT: axisOf(grid), QueueBytesV: fs[6],
		UtilizationV: fs[7],
		Drops:        word(3), Marks: -word(4), Timeouts: word(5),
		ShortDone: int(word(6)), ShortAll: len(data),
		WallNs: word(7), Events: uint64(word(8)),
		InvariantViolations: strings.Fields(s),
	}
	return &Result{Kind: "spec", Name: s, Digest: s, Version: s, Runs: []*RunWire{run, {}}, Rows: strings.Split(s, ",")}
}

// BenchmarkDecodeResultFig8 reads the Fig. 8@0.1 result, the body of
// service_hit's large cache hit, the way the client does: one decode, then
// every run rebuilt and its digest re-verified.
func BenchmarkDecodeResultFig8(b *testing.B) {
	raw, err := os.ReadFile("testdata/fuzz/FuzzDecodeResult/fig8_scale0.1")
	if err != nil {
		b.Fatal(err)
	}
	quoted, ok := bytes.CutPrefix(raw, []byte("go test fuzz v1\n[]byte("))
	text, err := strconv.Unquote(string(bytes.TrimSuffix(quoted, []byte(")\n"))))
	if !ok || err != nil {
		b.Fatalf("not a []byte corpus entry: %v", err)
	}
	body := []byte(text)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var res Result
		if err := res.UnmarshalJSON(body); err != nil {
			b.Fatal(err)
		}
		if _, err := res.ScenarioRuns(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecodeResultRefusesWhatItCannotMirror: a member name that reads as a
// known one only after unescaping or case folding, a member given twice,
// a null number or run, and trailing bytes are errors, where encoding/json
// would file, merge or zero them. -0 stays -0.
func TestDecodeResultRefusesWhatItCannotMirror(t *testing.T) {
	const esc = "\\" + "u" // a JSON escape: esc + "006b" is k
	for _, c := range []struct{ body, want string }{
		{`{"Kind":"spec"}`, `"\"Kind\"" reads as "kind"`},
		{`{"` + esc + `006bind":"spec"}`, `reads as "kind"`},
		{"{\"\u212aind\":\"spec\"}", `reads as "kind"`}, // the Kelvin sign folds to k
		{`{"runs":[{"label":"x","` + esc + `0064rops":1}]}`, `reads as "drops"`},
		{`{"kind":"a","kind":"b"}`, `"kind" given twice`},
		{`{"runs":[{"short_fct_ms":[1,null]}]}`, "array element 1: json: offset 28: not a number"},
		{`{"runs":[null]}`, "want an object"},
		{`{"kind":"spec"} {}`, `'{' after the value`},
		{`{"runs":[{"drops":1.5}]}`, "invalid syntax"},
		{`{"x":` + strings.Repeat(`[{"y":`, 600) + `0`, "nested more than 1000 deep"},
	} {
		var res Result
		if err := res.UnmarshalJSON([]byte(c.body)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want an error saying %s", c.body, err, c.want)
		}
	}
	var res Result
	body := `{"runs":[{"short_fct_ms":[-0,-0.0e3],"long_fairness":-0},{}],"rows":[],"xx":{"a":[true,false,null]}}`
	if err := res.UnmarshalJSON([]byte(body)); err != nil {
		t.Fatal(err)
	}
	w := res.Runs[0]
	if len(res.Runs) != 2 || res.Rows == nil || !math.Signbit(w.LongFairness) || !math.Signbit(w.ShortFCTms[0]) || !math.Signbit(w.ShortFCTms[1]) {
		t.Errorf("%s decoded to %+v, rows %#v", body, *w, res.Rows)
	}
}
