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
	"strconv"

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
// digest matches the recorded one — the wire format cannot silently drop
// or reorder a sample without failing here. The run's grid axes share one
// materialised array (see timeAxes).
func (w *RunWire) Run() (*scenario.Run, error) {
	ts, err := timeAxes([]*RunWire{w})
	if err != nil {
		return nil, err
	}
	return w.run(ts[0])
}

// ScenarioRuns reconstructs every run of the result as RunWire.Run does,
// digest check included, but materialises each distinct time grid once
// for all of them: the four runs of a figure sampled on one grid carry
// one timestamp array between them.
func (res *Result) ScenarioRuns() ([]*scenario.Run, error) {
	ts, err := timeAxes(res.Runs)
	if err != nil {
		return nil, err
	}
	runs := make([]*scenario.Run, len(res.Runs))
	for i, w := range res.Runs {
		if runs[i], err = w.run(ts[i]); err != nil {
			return nil, err
		}
	}
	return runs, nil
}

// run reconstructs the run on the time axes t (queue packets, queue
// bytes, utilization) and checks its digest.
func (w *RunWire) run(t [3][]int64) (*scenario.Run, error) {
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

	if got := r.DigestHex(); got != w.Digest {
		return nil, fmt.Errorf("run %q: reconstructed digest %s does not match recorded %s", w.Label, got, w.Digest)
	}
	return r, nil
}

// floats and ints are the number arrays of a RunWire: its value arrays,
// and the points of a time axis that is not a grid. They encode as plain
// JSON arrays; decoding is their own, because encoding/json grows a
// slice by doubling, through reflection, one element at a time, and for a
// figure's series that allocates several times what the decoded arrays
// hold. These count the elements, allocate once at the final length and
// parse each element with the call encoding/json itself makes
// (strconv.ParseFloat at 64 bits, strconv.ParseInt in base 10), so every
// value is bit-identical — which RunWire.Run's digest recomputation checks
// on every transfer. null and [] decode to nil and to an empty slice, as
// they do for a plain slice; a null element, which encoding/json reads as
// zero, is rejected: WireRun never writes one.
type (
	floats []float64
	ints   []int64
)

func (f *floats) UnmarshalJSON(data []byte) (err error) {
	*f, err = decodeNumbers(data, func(tok []byte) (float64, error) {
		return strconv.ParseFloat(string(tok), 64)
	})
	return err
}

func (n *ints) UnmarshalJSON(data []byte) (err error) {
	*n, err = decodeNumbers(data, func(tok []byte) (int64, error) {
		return strconv.ParseInt(string(tok), 10, 64)
	})
	return err
}

// decodeNumbers decodes a JSON array of numbers, or null. It does not
// rely on data having been validated: an element that is not a number by
// the JSON grammar — a string, a nested array split at its commas, "+1",
// "0x10" — is an error, whatever strconv would make of it.
func decodeNumbers[T float64 | int64](data []byte, parse func(tok []byte) (T, error)) ([]T, error) {
	data = trimJSONSpace(data)
	if string(data) == "null" {
		return nil, nil
	}
	if len(data) < 2 || data[0] != '[' || data[len(data)-1] != ']' {
		return nil, fmt.Errorf("json: cannot decode %.32q as an array of numbers", data)
	}
	rest := trimJSONSpace(data[1 : len(data)-1])
	if len(rest) == 0 {
		return []T{}, nil
	}
	out := make([]T, bytes.Count(rest, []byte{','})+1)
	for i := range out {
		var tok []byte
		tok, rest, _ = bytes.Cut(rest, []byte{','})
		tok = trimJSONSpace(tok)
		if !validNumber(tok) {
			return nil, fmt.Errorf("json: array element %d: %.32q is not a number", i, tok)
		}
		v, err := parse(tok)
		if err != nil {
			return nil, fmt.Errorf("json: array element %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}

// trimJSONSpace trims the four bytes JSON counts as whitespace.
func trimJSONSpace(b []byte) []byte {
	space := func(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }
	for len(b) > 0 && space(b[0]) {
		b = b[1:]
	}
	for len(b) > 0 && space(b[len(b)-1]) {
		b = b[:len(b)-1]
	}
	return b
}

// validNumber reports whether s is a number by the JSON grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func validNumber(s []byte) bool {
	digits := func(s []byte) []byte {
		for len(s) > 0 && '0' <= s[0] && s[0] <= '9' {
			s = s[1:]
		}
		return s
	}
	if len(s) > 0 && s[0] == '-' {
		s = s[1:]
	}
	switch {
	case len(s) == 0:
		return false
	case s[0] == '0':
		s = s[1:]
	case '1' <= s[0] && s[0] <= '9':
		s = digits(s)
	default:
		return false
	}
	if len(s) > 0 && s[0] == '.' {
		frac := digits(s[1:])
		if len(frac) == len(s)-1 {
			return false
		}
		s = frac
	}
	if len(s) > 0 && (s[0] == 'e' || s[0] == 'E') {
		s = s[1:]
		if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
			s = s[1:]
		}
		exp := digits(s)
		if len(exp) == len(s) {
			return false
		}
		s = exp
	}
	return len(s) == 0
}
