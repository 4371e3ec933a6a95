// Package server implements hwatchd: a multi-tenant HTTP/JSON service
// that runs scenario jobs through the harness pool with bounded
// concurrency and backpressure, streams per-job progress, and serves
// results from a content-addressed cache keyed by (canonical spec digest,
// code version) with single-flight deduplication.
//
// The package sits outside the determinism scope on purpose: it may read
// wall clocks and run tickers, but every simulation it launches goes
// through the scenario layer's context-aware entry points, whose results
// are byte-identical to the same specs run via the CLI (the e2e suite
// checks server-path digests against the committed goldens).
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"hwatch/internal/scenario"
)

// JobRequest describes one job submission, in one of two forms:
//
//   - Kind "spec": Spec carries a scenario.FileSpec (the JSON form of
//     hwatchsim spec:<file>). A bare FileSpec object (kind
//     "dumbbell"/"testbed") posted to the jobs endpoint is accepted as
//     shorthand for this envelope.
//   - Any other Kind and Name name a row of the target table, the same
//     kind/name hwatchsim takes as a target (hwatchsim -list prints them):
//     "fig" with a figure ("fig8"), "ablation" with a sweep ("k"),
//     "study" with an extension study ("coflow"), "rung" with a ladder
//     rung ("storm/websearch"). Scale applies to figures, ablations and
//     rungs; Schemes optionally overrides a study's compared scheme set.
//
// Scale outside (0,1] normalizes to 1 (full scale), mirroring hwatchsim.
type JobRequest struct {
	Kind    string          `json:"kind,omitempty"`
	Spec    json.RawMessage `json:"spec,omitempty"`
	Name    string          `json:"name,omitempty"`
	Scale   float64         `json:"scale,omitempty"`
	Schemes []string        `json:"schemes,omitempty"`
}

// Result is a completed job's payload. Digest is the job's content
// address (for "spec" jobs, exactly the spec's canonical digest, the same
// value hwatchsim -spec-digest prints); Version is the code version that
// produced it. The encoded Result is a pure function of (Digest, Version):
// the server encodes it once and every response for the job is those
// bytes. Whether a response came from the result cache is therefore not
// part of the body but the X-Hwatch-Cache response header (hit|miss);
// the client copies it into Cached.
type Result struct {
	Kind    string     `json:"kind"`
	Name    string     `json:"name,omitempty"`
	Digest  string     `json:"digest"`
	Version string     `json:"version"`
	Cached  bool       `json:"-"`
	Runs    []*RunWire `json:"runs,omitempty"`
	Rows    []string   `json:"rows,omitempty"`
}

// CacheHeader is the response header that says whether a result was served
// from the result cache ("hit") or by the job that computed it ("miss").
const CacheHeader = "X-Hwatch-Cache"

// RunWire is a scenario.Run in wire form: every digest-relevant series and
// total, plus the execution metadata the CLIs print. A series' time axis
// travels as a grid when it is one (see axis), and is nil when the series
// is empty. Run() reconstructs the
// scenario.Run and recomputes its digest, so a wire round trip that lost a
// single sample is detected mechanically — byte-identical parity between
// the server path and the CLI path is enforced, not assumed.
type RunWire struct {
	Label  string `json:"label"`
	Digest string `json:"digest"`

	ShortFCTms     floats  `json:"short_fct_ms,omitempty"`
	PerSourceAvgMs floats  `json:"per_source_avg_ms,omitempty"`
	PerSourceVarMs floats  `json:"per_source_var_ms,omitempty"`
	ShortRetrans   floats  `json:"short_retrans,omitempty"`
	LongGoodputBps floats  `json:"long_goodput_bps,omitempty"`
	LongFairness   float64 `json:"long_fairness,omitempty"`

	QueuePktsT   *axis  `json:"queue_pkts_t,omitempty"`
	QueuePktsV   floats `json:"queue_pkts_v,omitempty"`
	QueueBytesT  *axis  `json:"queue_bytes_t,omitempty"`
	QueueBytesV  floats `json:"queue_bytes_v,omitempty"`
	UtilizationT *axis  `json:"utilization_t,omitempty"`
	UtilizationV floats `json:"utilization_v,omitempty"`

	Drops     int64 `json:"drops"`
	Marks     int64 `json:"marks"`
	Timeouts  int64 `json:"timeouts"`
	ShortDone int   `json:"short_done"`
	ShortAll  int   `json:"short_all"`

	WallNs              int64    `json:"wall_ns,omitempty"`
	Events              uint64   `json:"events,omitempty"`
	InvariantViolations []string `json:"invariant_violations,omitempty"`
}

// WireRun converts a completed run to wire form.
func WireRun(r *scenario.Run) *RunWire {
	return &RunWire{
		Label:          r.Label,
		Digest:         r.DigestHex(),
		ShortFCTms:     r.ShortFCTms.Values(),
		PerSourceAvgMs: r.PerSourceAvgMs.Values(),
		PerSourceVarMs: r.PerSourceVarMs.Values(),
		ShortRetrans:   r.ShortRetrans.Values(),
		LongGoodputBps: r.LongGoodputBps.Values(),
		LongFairness:   r.LongFairness,
		QueuePktsT:     axisOf(r.QueuePkts.T),
		QueuePktsV:     r.QueuePkts.V,
		QueueBytesT:    axisOf(r.QueueBytes.T),
		QueueBytesV:    r.QueueBytes.V,
		UtilizationT:   axisOf(r.Utilization.T),
		UtilizationV:   r.Utilization.V,
		Drops:          r.Drops,
		Marks:          r.Marks,
		Timeouts:       r.Timeouts,
		ShortDone:      r.ShortDone,
		ShortAll:       r.ShortAll,

		WallNs:              r.WallNs,
		Events:              r.Events,
		InvariantViolations: r.InvariantViolations,
	}
}

// Run reconstructs the scenario.Run and verifies that its recomputed
// digest matches the recorded one, as ScenarioRuns does for a result of
// this one run.
func (w *RunWire) Run() (*scenario.Run, error) {
	runs, err := (&Result{Runs: []*RunWire{w}}).ScenarioRuns()
	if err != nil {
		return nil, err
	}
	return runs[0], nil
}

// ScenarioRuns reconstructs every run of the result and verifies that
// each recomputed digest matches the recorded one — the wire format
// cannot silently drop or reorder a sample without failing here. Each
// distinct time grid is materialised once for all the runs (see
// timeAxes): the four runs of a figure sampled on one grid carry one
// timestamp array between them. The runs are verified together, with one
// scenario.Digests call, and the first run whose digest does not match
// is the error.
func (res *Result) ScenarioRuns() ([]*scenario.Run, error) {
	ts, err := timeAxes(res.Runs)
	if err != nil {
		return nil, err
	}
	runs := make([]*scenario.Run, len(res.Runs))
	for i, w := range res.Runs {
		runs[i] = w.run(ts[i])
	}
	for i, sum := range scenario.Digests(runs...) {
		if w, got := res.Runs[i], fmt.Sprintf("%016x", sum); got != w.Digest {
			return nil, fmt.Errorf("run %q: reconstructed digest %s does not match recorded %s", w.Label, got, w.Digest)
		}
	}
	return runs, nil
}

// run reconstructs the run on the time axes t (queue packets, queue
// bytes, utilization), unverified.
func (w *RunWire) run(t [3][]int64) *scenario.Run {
	r := &scenario.Run{
		Label:        w.Label,
		LongFairness: w.LongFairness,
		Drops:        w.Drops,
		Marks:        w.Marks,
		Timeouts:     w.Timeouts,
		ShortDone:    w.ShortDone,
		ShortAll:     w.ShortAll,

		WallNs:              w.WallNs,
		Events:              w.Events,
		InvariantViolations: w.InvariantViolations,
	}
	for _, v := range w.ShortFCTms {
		r.ShortFCTms.Add(v)
	}
	for _, v := range w.PerSourceAvgMs {
		r.PerSourceAvgMs.Add(v)
	}
	for _, v := range w.PerSourceVarMs {
		r.PerSourceVarMs.Add(v)
	}
	for _, v := range w.ShortRetrans {
		r.ShortRetrans.Add(v)
	}
	for _, v := range w.LongGoodputBps {
		r.LongGoodputBps.Add(v)
	}
	r.QueuePkts.T, r.QueuePkts.V = t[0], w.QueuePktsV
	r.QueueBytes.T, r.QueueBytes.V = t[1], w.QueueBytesV
	r.Utilization.T, r.Utilization.V = t[2], w.UtilizationV
	return r
}

// floats and ints are the number arrays of a RunWire: its value arrays,
// and the points of a time axis that is not a grid. They encode as plain
// JSON arrays and decode with cursor.numbers, which allocates once at the
// final length and gives every value the bits encoding/json gives it. null
// and [] decode to nil and to an empty slice, as they do for a plain slice;
// a null element, which encoding/json reads as zero, is refused: WireRun
// never writes one.
type (
	floats []float64
	ints   []int64
)

func (f *floats) UnmarshalJSON(data []byte) (err error) {
	c := cursor{data: data}
	if *f, err = numbers(&c, floatOf); err == nil {
		err = c.end()
	}
	return err
}

func (n *ints) UnmarshalJSON(data []byte) (err error) {
	c := cursor{data: data}
	if *n, err = numbers(&c, intOf); err == nil {
		err = c.end()
	}
	return err
}

// UnmarshalJSON decodes a result in one pass over data, with no
// encoding/json validation pass ahead of it. null leaves res as it was.
func (res *Result) UnmarshalJSON(data []byte) error {
	c := cursor{data: data}
	if c.null() {
		return c.end()
	}
	var r Result
	err := c.object(resultMembers, func(name string) (err error) {
		switch name {
		case "kind":
			r.Kind, err = c.text()
		case "name":
			r.Name, err = c.text()
		case "digest":
			r.Digest, err = c.text()
		case "version":
			r.Version, err = c.text()
		case "runs":
			r.Runs = []*RunWire{}
			err = c.array(func() error {
				w, err := c.run()
				r.Runs = append(r.Runs, w)
				return err
			})
			r.Runs = slices.Clip(r.Runs)
		case "rows":
			r.Rows, err = c.texts()
		default:
			err = c.skip()
		}
		return err
	})
	if err == nil {
		err = c.end()
	}
	if err != nil {
		return err
	}
	*res = r
	return nil
}

// run decodes one RunWire object.
func (c *cursor) run() (*RunWire, error) {
	w := new(RunWire)
	return w, c.object(runMembers, func(name string) (err error) {
		switch name {
		case "label":
			w.Label, err = c.text()
		case "digest":
			w.Digest, err = c.text()
		case "short_fct_ms":
			w.ShortFCTms, err = numbers(c, floatOf)
		case "per_source_avg_ms":
			w.PerSourceAvgMs, err = numbers(c, floatOf)
		case "per_source_var_ms":
			w.PerSourceVarMs, err = numbers(c, floatOf)
		case "short_retrans":
			w.ShortRetrans, err = numbers(c, floatOf)
		case "long_goodput_bps":
			w.LongGoodputBps, err = numbers(c, floatOf)
		case "long_fairness":
			w.LongFairness, err = c.float()
		case "queue_pkts_t":
			w.QueuePktsT, err = c.axis()
		case "queue_pkts_v":
			w.QueuePktsV, err = numbers(c, floatOf)
		case "queue_bytes_t":
			w.QueueBytesT, err = c.axis()
		case "queue_bytes_v":
			w.QueueBytesV, err = numbers(c, floatOf)
		case "utilization_t":
			w.UtilizationT, err = c.axis()
		case "utilization_v":
			w.UtilizationV, err = numbers(c, floatOf)
		case "drops":
			w.Drops, err = c.integer(64)
		case "marks":
			w.Marks, err = c.integer(64)
		case "timeouts":
			w.Timeouts, err = c.integer(64)
		case "short_done":
			var n int64
			n, err = c.integer(strconv.IntSize)
			w.ShortDone = int(n)
		case "short_all":
			var n int64
			n, err = c.integer(strconv.IntSize)
			w.ShortAll = int(n)
		case "wall_ns":
			w.WallNs, err = c.integer(64)
		case "events":
			w.Events, err = c.unsigned()
		case "invariant_violations":
			w.InvariantViolations, err = c.texts()
		default:
			err = c.skip()
		}
		return err
	})
}

// resultMembers and runMembers are the member names of Result and
// RunWire, read from the same tags encoding/json reads.
var (
	resultMembers = memberNames(reflect.TypeFor[Result]())
	runMembers    = memberNames(reflect.TypeFor[RunWire]())
)

func memberNames(t reflect.Type) []string {
	var names []string
	for i := range t.NumField() {
		if name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ","); name != "-" {
			names = append(names, name)
		}
	}
	return names
}

// cursor reads a JSON body left to right, once. It checks the JSON grammar
// as it goes, so what it reads needs no encoding/json validation pass
// first, and every value it accepts is the value encoding/json reads from
// the same bytes (FuzzDecodeResult holds it to that). Where encoding/json
// is lenient in ways the wire never uses it refuses instead: a member
// name that matches only after unescaping or case folding, a member given
// twice, a null element.
type cursor struct {
	data  []byte
	off   int
	depth int // of skip's nesting
}

// maxDepth bounds how deeply skip nests: far below encoding/json's own
// limit, far above anything the wire writes.
const maxDepth = 1000

func (c *cursor) errorf(format string, args ...any) error {
	return fmt.Errorf("json: offset %d: %s", c.off, fmt.Sprintf(format, args...))
}

// ws skips whitespace and returns the next byte, or 0 at the end.
func (c *cursor) ws() byte {
	for ; c.off < len(c.data); c.off++ {
		switch b := c.data[c.off]; b {
		case ' ', '\t', '\n', '\r':
		default:
			return b
		}
	}
	return 0
}

// end checks that only whitespace follows.
func (c *cursor) end() error {
	if c.ws(); c.off < len(c.data) {
		return c.errorf("%q after the value", c.data[c.off])
	}
	return nil
}

// literal consumes lit if it comes next.
func (c *cursor) literal(lit string) bool {
	c.ws()
	if len(c.data)-c.off < len(lit) || string(c.data[c.off:c.off+len(lit)]) != lit {
		return false
	}
	c.off += len(lit)
	return true
}

func (c *cursor) null() bool { return c.literal("null") }

// object reads an object. Each member named in names may appear once,
// spelled exactly; member is called on its value and consumes it, unless
// the value is null, which leaves the field as it was. Any other member
// goes to member under its own name, to skip or refuse — but one whose
// name encoding/json would match to names after unescaping or case
// folding is refused, or the two decoders would put it in different
// places. With no member (skip's case), every value is checked and
// skipped.
func (c *cursor) object(names []string, member func(name string) error) error {
	if c.ws() != '{' {
		return c.errorf("want an object")
	}
	c.off++
	if c.ws() == '}' {
		c.off++
		return nil
	}
	var seen uint64
	for {
		if c.ws() != '"' {
			return c.errorf("want a member name")
		}
		start := c.off
		key, plain, err := c.quoted()
		if err != nil {
			return err
		}
		i := -1
		for j, name := range names {
			if plain && string(key) == name {
				i = j
				break
			}
		}
		if i >= 0 {
			if seen&(1<<i) != 0 {
				return c.errorf("member %q given twice", key)
			}
			seen |= 1 << i
		} else if len(names) > 0 {
			if !plain {
				var s string
				if err := json.Unmarshal(c.data[start:c.off], &s); err != nil {
					return err
				}
				key = []byte(s)
			}
			for _, name := range names {
				if bytes.EqualFold(key, []byte(name)) {
					return c.errorf("member %q reads as %q only after unescaping or case folding", c.data[start:c.off], name)
				}
			}
		}
		if c.ws() != ':' {
			return c.errorf("want ':' after a member name")
		}
		c.off++
		switch {
		case i >= 0 && c.null():
		case i >= 0:
			if err = member(names[i]); err != nil {
				err = fmt.Errorf("%s: %w", names[i], err)
			}
		case member != nil:
			err = member(string(key))
		default:
			err = c.skip()
		}
		if err != nil {
			return err
		}
		switch c.ws() {
		case ',':
			c.off++
		case '}':
			c.off++
			return nil
		default:
			return c.errorf("want ',' or '}' after an object member")
		}
	}
}

// array reads an array, calling elem on each element to consume it.
func (c *cursor) array(elem func() error) error {
	if c.ws() != '[' {
		return c.errorf("want an array")
	}
	c.off++
	if c.ws() == ']' {
		c.off++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		switch c.ws() {
		case ',':
			c.off++
		case ']':
			c.off++
			return nil
		default:
			return c.errorf("want ',' or ']' after an array element")
		}
	}
}

// quoted scans the string at the cursor and returns the bytes between its
// quotes. plain is false when they hold an escape or are not UTF-8: then
// the string is what encoding/json makes of them, not the bytes.
func (c *cursor) quoted() (body []byte, plain bool, err error) {
	c.off++ // the opening quote
	start, ascii := c.off, true
	plain = true
	for c.off < len(c.data) {
		switch b := c.data[c.off]; {
		case b == '"':
			body = c.data[start:c.off]
			c.off++
			return body, plain && (ascii || utf8.Valid(body)), nil
		case b == '\\':
			plain = false
			if c.off+1 == len(c.data) {
				return nil, false, c.errorf("unterminated string")
			}
			switch c.data[c.off+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				c.off += 2
			case 'u':
				if c.off+6 > len(c.data) {
					return nil, false, c.errorf("unterminated string")
				}
				if _, err := strconv.ParseUint(string(c.data[c.off+2:c.off+6]), 16, 16); err != nil {
					return nil, false, c.errorf(`bad \u escape`)
				}
				c.off += 6
			default:
				return nil, false, c.errorf("bad escape %q", c.data[c.off+1])
			}
		case b < 0x20:
			return nil, false, c.errorf("control character %q in a string", b)
		default:
			ascii = ascii && b < utf8.RuneSelf
			c.off++
		}
	}
	return nil, false, c.errorf("unterminated string")
}

// text reads a string value. A plain one is copied as it stands; one
// with escapes goes to encoding/json, for that token alone.
func (c *cursor) text() (string, error) {
	if c.ws() != '"' {
		return "", c.errorf("want a string")
	}
	start := c.off
	body, plain, err := c.quoted()
	if err != nil || plain {
		return string(body), err
	}
	var s string
	return s, json.Unmarshal(c.data[start:c.off], &s)
}

// texts reads an array of strings.
func (c *cursor) texts() ([]string, error) {
	out := []string{}
	err := c.array(func() error {
		s, err := c.text()
		out = append(out, s)
		return err
	})
	return slices.Clip(out), err
}

// skip checks and passes over one value of any kind.
func (c *cursor) skip() (err error) {
	if c.depth++; c.depth > maxDepth {
		return c.errorf("nested more than %d deep", maxDepth)
	}
	switch c.ws() {
	case '{':
		err = c.object(nil, nil)
	case '[':
		err = c.array(c.skip)
	case '"':
		_, _, err = c.quoted()
	case 't', 'f', 'n':
		if !c.literal("true") && !c.literal("false") && !c.null() {
			err = c.errorf("want a value")
		}
	default:
		_, _, _, err = c.number()
	}
	c.depth--
	return err
}

// maxExp caps the exponent number reads; strconv parses anything past it.
const maxExp = 1000

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// number scans one number by the JSON grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its bytes.
// Along the way it gathers the digits into an integer mantissa m and a
// power of ten e; when m < 2^53 and |e| ≤ 22 both are exact float64s and
// one multiplication or division rounds their value correctly (Clinger's
// fast path, PLDI 1990), so f is the value strconv.ParseFloat returns and
// exact is true. Otherwise the caller parses tok.
func (c *cursor) number() (tok []byte, f float64, exact bool, err error) {
	c.ws()
	d, i := c.data, c.off
	var m uint64
	nd, e := 0, 0 // significant digits in m (20: some were dropped); the power of ten scaling m
	x := 0        // the written exponent's magnitude, capped at maxExp
	neg := i < len(d) && d[i] == '-'
	if neg {
		i++
	}
	switch {
	case i == len(d) || d[i] < '0' || d[i] > '9':
		return nil, 0, false, c.errorf("not a number")
	case d[i] == '0':
		i++
	default:
		for ; i < len(d) && d[i]-'0' <= 9; i++ {
			if nd < 19 {
				m, nd = m*10+uint64(d[i]-'0'), nd+1
			} else {
				nd = 20
			}
		}
	}
	if i < len(d) && d[i] == '.' {
		i++
		if i == len(d) || d[i]-'0' > 9 {
			return nil, 0, false, c.errorf("want a digit after the decimal point")
		}
		for ; i < len(d) && d[i]-'0' <= 9; i++ {
			if nd < 19 {
				m, e = m*10+uint64(d[i]-'0'), e-1
				if m != 0 {
					nd++ // a leading zero is not significant
				}
			} else {
				nd = 20
			}
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		sign := 1
		if i < len(d) && d[i] == '-' {
			sign = -1
		}
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i == len(d) || d[i]-'0' > 9 {
			return nil, 0, false, c.errorf("want a digit in the exponent")
		}
		for ; i < len(d) && d[i]-'0' <= 9; i++ {
			x = min(x*10+int(d[i]-'0'), maxExp)
		}
		e += sign * x
	}
	tok, c.off = d[c.off:i], i
	// A capped exponent says nothing of e: leading fraction zeros lower e
	// without bound, so 0.000…05e1005 could land e back inside ±22.
	if nd > 19 || m>>53 != 0 || e < -22 || e > 22 || x == maxExp {
		return tok, 0, false, nil
	}
	if f = float64(m); neg {
		f = -f
	}
	if e < 0 {
		return tok, f / pow10[-e], true, nil
	}
	return tok, f * pow10[e], true, nil
}

func floatOf(tok []byte, f float64, exact bool) (float64, error) {
	if exact {
		return f, nil
	}
	return strconv.ParseFloat(string(tok), 64)
}

func intOf(tok []byte, _ float64, _ bool) (int64, error) {
	return strconv.ParseInt(string(tok), 10, 64)
}

// float reads a number as a float64.
func (c *cursor) float() (float64, error) {
	tok, f, exact, err := c.number()
	if err != nil {
		return 0, err
	}
	return floatOf(tok, f, exact)
}

// integer reads a number as a signed integer of the given bits.
func (c *cursor) integer(bits int) (int64, error) {
	tok, _, _, err := c.number()
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(string(tok), 10, bits)
}

// unsigned reads a number as a uint64.
func (c *cursor) unsigned() (uint64, error) {
	tok, _, _, err := c.number()
	if err != nil {
		return 0, err
	}
	return strconv.ParseUint(string(tok), 10, 64)
}

// numbers reads an array of numbers, or null, and converts each element
// with conv. It allocates once: the commas up to the first ']' count the
// elements — at most one per byte, so a malformed array can cost twice
// what a valid one as long could — then one scan checks and converts them.
func numbers[T float64 | int64](c *cursor, conv func(tok []byte, f float64, exact bool) (T, error)) ([]T, error) {
	if c.null() {
		return nil, nil
	}
	if c.ws() != '[' {
		return nil, c.errorf("want an array of numbers")
	}
	c.off++
	if c.ws() == ']' {
		c.off++
		return []T{}, nil
	}
	n := bytes.IndexByte(c.data[c.off:], ']')
	if n < 0 {
		return nil, c.errorf("unterminated array")
	}
	out := make([]T, bytes.Count(c.data[c.off:c.off+n], []byte{','})+1)
	for i := range out {
		tok, f, exact, err := c.number()
		if err == nil {
			out[i], err = conv(tok, f, exact)
		}
		if err != nil {
			return nil, fmt.Errorf("array element %d: %w", i, err)
		}
		want := byte(',')
		if i == len(out)-1 {
			want = ']'
		}
		if c.ws() != want {
			return nil, c.errorf("array element %d: want %q after it", i, want)
		}
		c.off++
	}
	return out, nil
}
