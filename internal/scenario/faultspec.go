package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"

	"hwatch/internal/faults"
	"hwatch/internal/netem"
	"hwatch/internal/sim"
)

// FaultSpec is the JSON form of one fault-timeline event, in operator
// units (milliseconds). It appears in a spec file's "faults" array or in
// a standalone schedule file for hwatchsim -faults:
//
//	[
//	  {"kind": "link-down", "at_ms": 150},
//	  {"kind": "link-up",   "at_ms": 155},
//	  {"kind": "burst-loss", "at_ms": 250, "until_ms": 270,
//	   "p_good_bad": 0.05, "p_bad_good": 0.5, "loss_bad": 1}
//	]
//
// Target selects a fabric element ("" = the scenario default: the
// bottleneck link, the core switch, every shim). Beyond the fields every
// kind takes (kind, at_ms, until_ms, target and the recurrence fields),
// a kind reads only the fields its faults row lists — hwatchsim
// -list-faults prints them — and a spec setting any other is rejected:
// the Gilbert–Elliott knobs belong to "burst-loss", the impairment knobs
// to the netem matrix kinds, each to the kinds that read it.
//
// Recurrence: "count" (with "every_ms"/"for_ms"/"jitter_ms") repeats the
// event — occurrence i opens at at_ms + i*every_ms plus a uniform
// [0, jitter_ms] draw and stays active for for_ms; point kinds restore
// themselves when the window closes. "pick" draws that many random
// fabric targets per occurrence instead of naming one:
//
//	{"kind": "link-down", "at_ms": 80, "count": 4, "every_ms": 60,
//	 "for_ms": 4, "jitter_ms": 10, "pick": 2}
//
// Every new field is omitempty so pre-existing spec files keep their
// identity digest (and therefore their derived seeds).
type FaultSpec struct {
	Kind    string  `json:"kind"`
	AtMs    float64 `json:"at_ms"`
	UntilMs float64 `json:"until_ms,omitempty"`
	Target  string  `json:"target,omitempty"`

	PGoodBad float64 `json:"p_good_bad,omitempty"`
	PBadGood float64 `json:"p_bad_good,omitempty"`
	LossGood float64 `json:"loss_good,omitempty"`
	LossBad  float64 `json:"loss_bad,omitempty"`

	// Impairment-matrix knobs (sub-millisecond timings are in µs).
	Prob     float64 `json:"prob,omitempty"`      // per-packet probability
	DropFrac float64 `json:"drop_frac,omitempty"` // corrupt: dropped-at-port fraction
	Copies   int     `json:"copies,omitempty"`    // duplicate: copies per hit
	HoldUs   float64 `json:"hold_us,omitempty"`   // reorder: max hold
	Dist     string  `json:"dist,omitempty"`      // jitter: uniform|normal|pareto
	DelayUs  float64 `json:"delay_us,omitempty"`  // jitter: center / pareto scale
	JitterUs float64 `json:"jitter_us,omitempty"` // jitter: spread / sigma
	Shape    float64 `json:"shape,omitempty"`     // jitter: pareto shape
	RateMbps float64 `json:"rate_mbps,omitempty"` // rate-limit: bucket rate
	BurstKB  float64 `json:"burst_kb,omitempty"`  // rate-limit: bucket size
	Egress   bool    `json:"egress,omitempty"`    // attach on the wire side

	// Recurrence and random target selection.
	EveryMs  float64 `json:"every_ms,omitempty"`
	ForMs    float64 `json:"for_ms,omitempty"`
	JitterMs float64 `json:"jitter_ms,omitempty"`
	Count    int     `json:"count,omitempty"`
	Pick     int     `json:"pick,omitempty"`
}

// recurring reports whether the spec asks for a recurrence wrapper.
func (f FaultSpec) recurring() bool {
	return f.Count > 0 || f.EveryMs > 0 || f.ForMs > 0 || f.JitterMs > 0
}

// maxFaultMs bounds schedule times to something a simulation could ever
// reach (~11.5 days); it mainly rejects NaN/Inf and absurd inputs early.
const maxFaultMs = 1e9

// checkFaultSpecs validates the operator-unit fields; kind and window
// semantics are checked by faults.Schedule.Validate on the rendered form.
func checkFaultSpecs(specs []FaultSpec) error {
	for i, f := range specs {
		if !(f.AtMs >= 0 && f.AtMs <= maxFaultMs) {
			return fmt.Errorf("faults[%d] %s: at_ms %v outside [0, %g]", i, f.Kind, f.AtMs, float64(maxFaultMs))
		}
		for _, ms := range []struct {
			name string
			v    float64
		}{
			{"until_ms", f.UntilMs}, {"every_ms", f.EveryMs}, {"for_ms", f.ForMs},
			{"jitter_ms", f.JitterMs}, {"hold_us", f.HoldUs}, {"delay_us", f.DelayUs},
			{"jitter_us", f.JitterUs}, {"rate_mbps", f.RateMbps}, {"burst_kb", f.BurstKB},
		} {
			if ms.v != 0 && !(ms.v > 0 && ms.v <= maxFaultMs) {
				return fmt.Errorf("faults[%d] %s: %s %v outside (0, %g]", i, f.Kind, ms.name, ms.v, float64(maxFaultMs))
			}
		}
	}
	return nil
}

// foreignFaultField rejects a set field the fault's kind does not read:
// accepted, it would leave the run alone yet move its content address,
// and re-seed a spec without a seed. An unknown kind is left to
// faults.Schedule.Validate.
func foreignFaultField(specs []FaultSpec) error {
	for i := range specs {
		f := &specs[i]
		info, ok := faults.Info(faults.Kind(f.Kind))
		if !ok {
			continue
		}
		for _, k := range [...]struct {
			name string
			set  bool
		}{
			{"p_good_bad", f.PGoodBad != 0}, {"p_bad_good", f.PBadGood != 0},
			{"loss_good", f.LossGood != 0}, {"loss_bad", f.LossBad != 0},
			{"prob", f.Prob != 0}, {"drop_frac", f.DropFrac != 0}, {"copies", f.Copies != 0},
			{"hold_us", f.HoldUs != 0}, {"dist", f.Dist != ""}, {"delay_us", f.DelayUs != 0},
			{"jitter_us", f.JitterUs != 0}, {"shape", f.Shape != 0}, {"rate_mbps", f.RateMbps != 0},
			{"burst_kb", f.BurstKB != 0}, {"egress", f.Egress},
		} {
			if k.set && !slices.Contains(info.Fields, k.name) {
				reads := "only the common fields"
				if len(info.Fields) > 0 {
					reads = strings.Join(info.Fields, ", ")
				}
				return fmt.Errorf("faults[%d] %s: %s is not a %s field (%s reads %s)", i, f.Kind, k.name, f.Kind, f.Kind, reads)
			}
		}
	}
	return nil
}

// RenderFaults converts JSON fault specs to an engine-ready schedule
// (ms → ns) and validates it.
func RenderFaults(specs []FaultSpec) (faults.Schedule, error) {
	if err := checkFaultSpecs(specs); err != nil {
		return nil, err
	}
	if err := foreignFaultField(specs); err != nil {
		return nil, err
	}
	sched := make(faults.Schedule, 0, len(specs))
	for _, f := range specs {
		ev := faults.Event{
			Kind:   faults.Kind(f.Kind),
			At:     int64(f.AtMs * float64(sim.Millisecond)),
			Until:  int64(f.UntilMs * float64(sim.Millisecond)),
			Target: f.Target,
			Pick:   f.Pick,
			GE: netem.GEParams{
				GoodToBad: f.PGoodBad,
				BadToGood: f.PBadGood,
				LossGood:  f.LossGood,
				LossBad:   f.LossBad,
			},
			Impair: faults.ImpairParams{
				Prob:     f.Prob,
				DropFrac: f.DropFrac,
				Copies:   f.Copies,
				Hold:     int64(f.HoldUs * float64(sim.Microsecond)),
				Dist:     f.Dist,
				Delay:    int64(f.DelayUs * float64(sim.Microsecond)),
				Jitter:   int64(f.JitterUs * float64(sim.Microsecond)),
				Shape:    f.Shape,
				RateBps:  int64(f.RateMbps * 1e6),
				Burst:    int(f.BurstKB * 1024),
				Egress:   f.Egress,
			},
		}
		if f.recurring() {
			count := f.Count
			if count == 0 {
				count = 1
			}
			ev.Recur = &faults.Recurrence{
				Interval: int64(f.EveryMs * float64(sim.Millisecond)),
				Duration: int64(f.ForMs * float64(sim.Millisecond)),
				Jitter:   int64(f.JitterMs * float64(sim.Millisecond)),
				Count:    count,
			}
		}
		sched = append(sched, ev)
	}
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	return sched, nil
}

// LoadFaults reads a standalone JSON fault-schedule file: an array of
// FaultSpec, what a FileSpec's Faults holds. ParseSpec validates it.
func LoadFaults(path string) ([]FaultSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading fault schedule: %w", err)
	}
	var specs []FaultSpec
	if err := json.Unmarshal(raw, &specs); err != nil {
		return nil, fmt.Errorf("parsing fault schedule: %w", err)
	}
	return specs, nil
}
