package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

const (
	// setups is how often the whole set-up (inputs, server, golden twin,
	// warm-up pass) is repeated in an untraced run; setup_s is the median.
	// The benchmark contract asks for several set-ups per run and their
	// median: one set-up is a second or two of single-shot work. Over 50
	// runs the median of three spread 8–23 % between quartiles, the first
	// set-up alone 13–26 % (README.md, "End-to-end metrics").
	setups = 3
	// minPasses is the floor on timed passes when -seconds is too short for
	// them: the minimum over fewer passes did not repeat on a shared host.
	minPasses = 7
)

// scaledMetrics are the end-to-end metrics a run multiplies by its host
// speed (calib.go).
var scaledMetrics = []string{"setup_s", "wall_s", "cpu_s"}

// goldenFiles are the repo's committed truth, read at run time so that a
// legitimate golden regeneration needs no benchmark change.
var goldenFiles = []string{
	"internal/experiments/testdata/golden_digests.json",
	"internal/scenario/testdata/ladder_digests.json",
}

func loadGolden(root string) (map[string]string, error) {
	want := map[string]string{}
	for _, f := range goldenFiles {
		raw, err := os.ReadFile(filepath.Join(root, f))
		if err != nil {
			return nil, err
		}
		var m map[string]string
		if err := json.Unmarshal(raw, &m); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", f, err)
		}
		for k, v := range m {
			want[k] = v
		}
	}
	return want, nil
}

// passStat is one measured pass.
type passStat struct {
	wall, cpu float64 // seconds
	alloc     uint64  // bytes allocated in the pass
	gcCycles  uint64
	gcCPU     float64 // seconds, runtime estimate
	gcPause   float64 // seconds of stop-the-world, summed over Ps
	peakRSS   float64 // MB resident at the pass's high-water mark
	ops       []op
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/gc/pause:cpu-seconds"},
}

type counters struct {
	t        time.Time
	cpu      float64
	alloc    uint64
	gcCycles uint64
	gcCPU    float64
	gcPause  float64
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) fails only on a bad pointer or selector.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func processCPU() float64 {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-memory high-water mark (ru_maxrss,
// KiB on Linux) in MB of 1e6 bytes.
func peakRSSMB() float64 { return float64(rusage().Maxrss) * 1024 / 1e6 }

// resetPeakRSS restarts that high-water mark at what is resident now, so
// that the next reading is the peak of one pass. The peak of the whole
// process is the largest of fifteen passes' peaks, each a matter of how far
// two allocating simulations overshoot one collection: 19 % between
// quartiles on service_cold, against 1.6 % for the median over passes
// (README.md, "End-to-end metrics"). Where the kernel refuses the reset,
// every reading is the peak of the process so far.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

func readCounters() counters {
	s := make([]metrics.Sample, len(runtimeSamples))
	copy(s, runtimeSamples)
	metrics.Read(s)
	return counters{
		alloc:    s[0].Value.Uint64(),
		gcCycles: s[1].Value.Uint64(),
		gcCPU:    s[2].Value.Float64(),
		gcPause:  s[3].Value.Float64(),
		cpu:      processCPU(),
		t:        time.Now(),
	}
}

// timedPass collects garbage outside the timed region, then measures one
// pass: monotonic wall, process CPU, bytes allocated.
func timedPass(ctx context.Context, inst instance, tr *tracer, id int) passStat {
	runtime.GC()
	resetPeakRSS()
	span := tr.beginPass(id)
	before := readCounters()
	ops := inst.pass(ctx, tr)
	after := readCounters()
	tr.end(span)
	return passStat{
		wall:     after.t.Sub(before.t).Seconds(),
		cpu:      after.cpu - before.cpu,
		alloc:    after.alloc - before.alloc,
		gcCycles: after.gcCycles - before.gcCycles,
		gcCPU:    after.gcCPU - before.gcCPU,
		gcPause:  after.gcPause - before.gcPause,
		peakRSS:  peakRSSMB(),
		ops:      ops,
	}
}

// verify counts the operations of a pass that failed: on error, on a run
// digest or event count that differs from the reference pass's, or on a
// run that completed no short flow. The first few reasons go to stderr.
func verify(ref, got []op, said *int) int {
	complain := func(format string, a ...any) {
		if *said < 5 {
			fmt.Fprintf(os.Stderr, "bench: "+format+"\n", a...)
		}
		*said++
	}
	failed := 0
	if ref != nil && len(ref) != len(got) {
		complain("pass ran %d operations, the warm-up pass %d", len(got), len(ref))
		return len(got)
	}
	for i, o := range got {
		bad := ""
		switch {
		case o.err != nil:
			bad = o.err.Error()
		case len(o.runs) == 0:
			bad = "no runs returned"
		case ref != nil && (ref[i].key != o.key || len(ref[i].runs) != len(o.runs)):
			bad = fmt.Sprintf("does not line up with warm-up operation %q", ref[i].key)
		}
		for j := 0; bad == "" && j < len(o.runs); j++ {
			r := o.runs[j]
			switch {
			case r.ShortDone == 0:
				bad = fmt.Sprintf("run %q completed no short flow", r.Label)
			case ref != nil && (ref[i].runs[j].Digest != r.Digest || ref[i].runs[j].Events != r.Events):
				bad = fmt.Sprintf("run %q: digest %s events %d, warm-up pass had %s and %d",
					r.Label, r.Digest, r.Events, ref[i].runs[j].Digest, ref[i].runs[j].Events)
			}
		}
		if bad != "" {
			complain("operation %q failed: %s", o.key, bad)
			failed++
		}
	}
	return failed
}

// measured is everything one run of a workload produced.
type measured struct {
	values    map[string]float64
	attempted int
	failed    int
	goldenOK  bool
}

// setUp builds an instance, checks its golden-scale twin against the
// committed digests and runs the untimed warm-up pass.
func setUp(ctx context.Context, build buildFunc, o options, want map[string]string) (inst instance, warm passStat, goldenOK bool, err error) {
	inst, err = build(ctx, o.seed, o.tiny)
	if err != nil {
		return nil, passStat{}, false, fmt.Errorf("%s: building inputs: %w", o.workload, err)
	}
	got, err := inst.golden(ctx)
	if err != nil {
		inst.close()
		return nil, passStat{}, false, fmt.Errorf("%s: golden-scale twin: %w", o.workload, err)
	}
	goldenOK = len(got) > 0
	for k, d := range got {
		if want[k] != d {
			fmt.Fprintf(os.Stderr, "bench: golden mismatch: %s is %s, committed %q\n", k, d, want[k])
			goldenOK = false
		}
	}
	warm = timedPass(ctx, inst, nil, 0)
	return inst, warm, goldenOK, nil
}

func measure(ctx context.Context, build buildFunc, o options) (*measured, error) {
	want, err := loadGolden(o.root)
	if err != nil {
		return nil, err
	}
	out := &measured{goldenOK: true}
	said := 0
	account := func(ref []op, p *passStat) {
		out.attempted += len(p.ops)
		out.failed += verify(ref, p.ops, &said)
	}

	// An untraced run reads the host's speed off the reference kernel at
	// its start, after every set-up and after every pass (calib.go).
	var readings []float64
	readHost := func() {
		if !o.trace {
			readings = append(readings, calibRead())
		}
	}
	if !o.trace {
		calibWarm()
	}
	readHost()

	n := setups
	if o.trace || o.passes > 0 {
		n = 1
	}
	var inst instance
	var ref []op
	var setupS []float64
	for i := 0; i < n; i++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		var warm passStat
		var ok bool
		inst, warm, ok, err = setUp(ctx, build, o, want)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		readHost()
		out.goldenOK = out.goldenOK && ok
		// Every set-up builds the same inputs, so the warm-up passes must
		// agree with each other too.
		account(ref, &warm)
		if ref == nil {
			ref = warm.ops
		}
	}
	defer inst.close()

	// A traced run spends the first half of its passes unprofiled, as the
	// base of harness.trace_overhead_frac, then turns the profiler and the
	// spans on for the rest. o.passes, when set, counts each half.
	budget := time.Duration(o.seconds * float64(time.Second))
	timed := func(tr *tracer, budget time.Duration, least int) []passStat {
		var ps []passStat
		start := time.Now()
		for done := 0; ; done++ {
			if o.passes > 0 && done >= o.passes {
				break
			}
			if o.passes == 0 && done >= least && time.Since(start) >= budget {
				break
			}
			p := timedPass(ctx, inst, tr, done+1)
			readHost()
			account(ref, &p)
			// Checked, the operations of all but the latest pass are let go:
			// kept, they would grow the live heap from pass to pass, and a
			// pass under a larger heap is collected less often.
			if done > 0 {
				ps[done-1].ops = nil
			}
			ps = append(ps, p)
		}
		return ps
	}
	if !o.trace {
		passes := timed(nil, budget, minPasses)
		logRun(o, setupS, passes)
		setup, wall := median(setupS), minOf(passes, wallOf)
		cpu := minOf(passes, func(p passStat) float64 { return p.cpu })
		speed := hostSpeed(readings)
		fmt.Fprintf(os.Stderr, "bench: %s seed %d: host speed %.4f (median of %d readings); as timed: setup_s %.4f wall_s %.4f cpu_s %.4f\n",
			o.workload, o.seed, speed, len(readings), setup, wall, cpu)
		out.values = map[string]float64{
			"setup_s":  setup,
			"wall_s":   wall,
			"cpu_s":    cpu,
			"alloc_mb": medianOf(passes, func(p passStat) float64 { return float64(p.alloc) / 1e6 }),
			// The reference kernel's pool is resident throughout and is
			// not the program's.
			"peak_rss_mb": medianOf(passes, func(p passStat) float64 { return p.peakRSS }) - calibPoolBytes/1e6,
		}
		for _, name := range scaledMetrics {
			out.values[name] *= speed
		}
		return out, nil
	}
	plain := timed(nil, budget/2, minPasses/2)
	tr, err := startTrace()
	if err != nil {
		return nil, err
	}
	traced := timed(tr, budget/2, minPasses-minPasses/2)
	logRun(o, setupS, append(append([]passStat(nil), plain...), traced...))
	out.values, err = tr.finish(ctx, o, inst, plain, traced)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// logRun puts every set-up and every pass as timed on standard error, so
// that a reader can tell a slow host from a slow program.
func logRun(o options, setupS []float64, passes []passStat) {
	walls := make([]float64, len(passes))
	for i, p := range passes {
		walls[i] = p.wall
	}
	fmt.Fprintf(os.Stderr, "bench: %s seed %d: set-ups s: %.3f; %d timed passes, wall s: %.3f\n",
		o.workload, o.seed, setupS, len(passes), walls)
}

func wallOf(p passStat) float64 { return p.wall }

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianOf(ps []passStat, f func(passStat) float64) float64 {
	v := make([]float64, len(ps))
	for i, p := range ps {
		v[i] = f(p)
	}
	return median(v)
}

func minOf(ps []passStat, f func(passStat) float64) float64 {
	m := 0.0
	for i, p := range ps {
		if v := f(p); i == 0 || v < m {
			m = v
		}
	}
	return m
}
