package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hwatch/internal/server"
)

// span is one timed interval at a call the harness makes into a layer.
// Spans of one pass share Pass; Parent is the span that caused this one
// (0 for a pass span).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Pass    int    `json:"pass"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.EndNs - s.StartNs }

// tracer holds the spans and the CPU profile of a traced run, in memory
// until the run ends. A nil *tracer is the untraced run: every method is a
// no-op that allocates nothing.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	spans    []span
	pass     int // number of the pass in progress
	passSpan int
	profile  bytes.Buffer
	// respBytes counts response-body bytes read by the service clients.
	respBytes int64
}

// startTrace turns the CPU profiler on; spans start with the next pass.
func startTrace() (*tracer, error) {
	tr := &tracer{t0: time.Now()}
	if err := pprof.StartCPUProfile(&tr.profile); err != nil {
		return nil, fmt.Errorf("starting the CPU profile: %w", err)
	}
	return tr, nil
}

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// beginPass opens the span every other span of the pass descends from.
func (t *tracer) beginPass(pass int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pass = pass
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Pass: pass, Name: "pass", StartNs: t.now()})
	t.passSpan = len(t.spans)
	return t.passSpan
}

// begin opens a span under parent (0 = directly under the pass span).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent == 0 {
		parent = t.passSpan
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Pass: t.pass, Name: name, StartNs: t.now()})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNs = t.now()
}

// child records a span whose duration the callee measured itself (a run's
// event loop, Run.WallNs). Only its length is known, so it is laid flush
// with the end of its already-closed parent.
func (t *tracer) child(name string, parent int, durNs int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	end := t.spans[parent-1].EndNs
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Pass: t.pass, Name: name, StartNs: end - durNs, EndNs: end})
}

func (t *tracer) addRespBytes(n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.respBytes += n
	t.mu.Unlock()
}

// layers are the names the CPU profile folds into; shares sum to 1.
var layers = []string{
	"sim", "netem", "tcp", "aqm", "core", "workload", "scenario", "stats",
	"harness", "server", "client", "json", "net",
	"runtime_gc", "runtime_alloc", "runtime_other", "other",
}

// repoLayers maps the repo's packages to their layer. The benchmark's own
// code counts as harness: it is the measuring harness.
var repoLayers = map[string]string{
	"hwatch/internal/sim":           "sim",
	"hwatch/internal/netem":         "netem",
	"hwatch/internal/tcp":           "tcp",
	"hwatch/internal/aqm":           "aqm",
	"hwatch/internal/core":          "core",
	"hwatch/internal/workload":      "workload",
	"hwatch/internal/scenario":      "scenario",
	"hwatch/internal/stats":         "stats",
	"hwatch/internal/harness":       "harness",
	"hwatch/internal/server":        "server",
	"hwatch/internal/server/client": "client",
	"main":                          "harness",
}

// gcFrames are the collector's entry points. A stack is classified by the
// runtime entry point it passes through, which says more than the leaf: a
// memmove under mallocgc is allocation, one under gcBgMarkWorker collection.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination",
	"runtime.gcWriteBarrier", "runtime.wbBufFlush", "runtime.wbZero", "runtime.wbMove",
	"runtime.bulkBarrierPreWrite", "runtime.GC",
}

func isRuntimePkg(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/") ||
		pkg == "internal/abi" || pkg == "internal/cpu" || pkg == "internal/bytealg"
}

// funcPkg cuts a symbol such as "hwatch/internal/sim.(*Engine).Run" or
// "hwatch/internal/harness.Map[go.shape.int,...]" down to its package.
func funcPkg(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// stackLayer attributes one sampled stack (leaf first) to a layer:
// collection and allocation by the runtime entry point on the stack,
// everything else by the innermost frame outside the runtime, so that a
// memmove or map access counts for the package that asked for it. Stacks
// that never leave the runtime are the scheduler, locks and idle spinning.
func stackLayer(stack []string) string {
	for _, fn := range stack {
		for _, g := range gcFrames {
			if strings.HasPrefix(fn, g) {
				return "runtime_gc"
			}
		}
	}
	for _, fn := range stack {
		if fn == "runtime.mallocgc" {
			return "runtime_alloc"
		}
	}
	for _, fn := range stack {
		pkg := funcPkg(fn)
		if isRuntimePkg(pkg) {
			continue
		}
		if l, ok := repoLayers[pkg]; ok {
			return l
		}
		switch {
		case strings.HasPrefix(pkg, "encoding/"), pkg == "reflect", pkg == "strconv", strings.HasPrefix(pkg, "unicode/"):
			return "json"
		case pkg == "net", strings.HasPrefix(pkg, "net/"), pkg == "syscall", pkg == "internal/poll", pkg == "bufio", pkg == "io":
			return "net"
		}
		return "other"
	}
	return "runtime_other"
}

// foldProfile reads the sampled stacks out of a CPU profile with
// `go tool pprof -traces` and returns each layer's share of the samples.
func foldProfile(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-sample_index=samples", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	counts := map[string]float64{}
	total := 0.0
	var stack []string
	n := 0.0
	flush := func() {
		if len(stack) > 0 {
			counts[stackLayer(stack)] += n
			total += n
		}
		stack, n = stack[:0], 0
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inStacks := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inStacks = true
			continue
		}
		if !inStacks {
			continue
		}
		f := strings.Fields(strings.TrimSuffix(line, " (inline)"))
		switch {
		case len(f) == 0:
		case len(stack) == 0 && len(f) >= 2:
			// First line of a stack: "<samples>   <leaf function>".
			v, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return nil, fmt.Errorf("pprof -traces: unexpected line %q", line)
			}
			n = v
			stack = append(stack, strings.Join(f[1:], " "))
		default:
			stack = append(stack, strings.Join(f, " "))
		}
	}
	flush()
	if total == 0 {
		return nil, fmt.Errorf("the CPU profile holds no samples")
	}
	shares := make(map[string]float64, len(layers))
	for _, l := range layers {
		shares[l] = counts[l] / total
	}
	return shares, nil
}

// traceFile is what a traced run leaves in bench/out/<workload>.trace.json.
type traceFile struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Spans     []span             `json:"spans"`
	CPUShares map[string]float64 `json:"cpu_shares"`
	Drivers   map[string]float64 `json:"drivers"`
	Metrics   map[string]float64 `json:"metrics"`
}

// statser is implemented by the service instances: the server's own
// counters over the last pass.
type statser interface{ passStats() server.Stats }

// finish stops the profiler, folds it, runs the layer drivers and turns
// spans and counters into the per-layer metrics. plain are the unprofiled
// passes of the run, traced the profiled ones; neither is empty.
func (t *tracer) finish(ctx context.Context, o options, inst instance, plain, traced []passStat) (map[string]float64, error) {
	pprof.StopCPUProfile()
	outDir := filepath.Join(o.root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	profPath := filepath.Join(outDir, o.workload+".cpu.pprof")
	if err := os.WriteFile(profPath, t.profile.Bytes(), 0o644); err != nil {
		return nil, err
	}
	shares, err := foldProfile(profPath)
	if err != nil {
		return nil, err
	}
	v := map[string]float64{}
	for l, s := range shares {
		v[l+".cpu_share"] = s
	}

	// Counts: identical on every pass (verify holds them to the warm-up
	// pass), so the last traced pass speaks for all.
	last := traced[len(traced)-1]
	var events, loopNs float64
	var c runSummary
	for _, op := range last.ops {
		if !op.simulated {
			continue
		}
		for _, r := range op.runs {
			events += float64(r.Events)
			loopNs += float64(r.WallNs)
			c.ShortDone += r.ShortDone
			c.ShortAll += r.ShortAll
			c.Drops += r.Drops
			c.Marks += r.Marks
			c.Timeouts += r.Timeouts
			c.Retrans += r.Retrans
			c.Shim.FlowsTracked += r.Shim.FlowsTracked
			c.Shim.FlowsExpired += r.Shim.FlowsExpired
			c.Shim.RwndRewrites += r.Shim.RwndRewrites
			c.Shim.ProbesSent += r.Shim.ProbesSent
			c.Shim.SynAcksPaced += r.Shim.SynAcksPaced
		}
	}
	wallS := minOf(traced, wallOf)
	v["sim.events"] = events
	v["sim.events_per_s"] = events / wallS
	v["sim.loop_ns_per_event"] = ratio(loopNs, events)
	v["sim.alloc_bytes_per_event"] = ratio(medianOf(traced, func(p passStat) float64 { return float64(p.alloc) }), events)
	v["scenario.flows_done"] = float64(c.ShortDone)
	v["scenario.flows_all"] = float64(c.ShortAll)
	v["netem.bottleneck_drops"] = float64(c.Drops)
	v["netem.bottleneck_marks"] = float64(c.Marks)
	v["tcp.timeouts"] = float64(c.Timeouts)
	v["tcp.retrans_segs"] = c.Retrans
	v["core.flows_tracked"] = float64(c.Shim.FlowsTracked)
	v["core.flows_expired"] = float64(c.Shim.FlowsExpired)
	v["core.rwnd_rewrites"] = float64(c.Shim.RwndRewrites)
	v["core.probes_sent"] = float64(c.Shim.ProbesSent)
	v["core.synacks_paced"] = float64(c.Shim.SynAcksPaced)

	// Spans. A run span's self time (its length minus the event loop its
	// child covers) is scenario build plus observers.
	selfByPass := map[int]float64{}
	var req, raw, decode []float64
	exchangeOf := map[int]int64{}
	for _, s := range t.spans {
		switch s.Name {
		case "sim.loop":
			selfByPass[s.Pass] -= float64(s.dur())
		case "scenario.run":
			selfByPass[s.Pass] += float64(s.dur())
		case "http.exchange":
			raw = append(raw, float64(s.dur())/1e6)
			exchangeOf[s.Parent] += s.dur()
		}
	}
	for _, s := range t.spans {
		if s.Name == "server.request" {
			req = append(req, float64(s.dur())/1e6)
			decode = append(decode, float64(s.dur()-exchangeOf[s.ID])/1e6)
		}
	}
	var self []float64
	for _, ns := range selfByPass {
		self = append(self, ns/1e6)
	}
	v["scenario.build_ms"] = median(self)
	v["server.req_p50_ms"] = quantile(req, 0.50)
	v["server.req_p99_ms"] = quantile(req, 0.99)
	v["server.req_samples"] = float64(len(req))
	v["server.raw_p50_ms"] = quantile(raw, 0.50)
	v["server.resp_mb"] = float64(t.respBytes) / 1e6 / float64(len(traced))
	v["client.decode_verify_p50_ms"] = quantile(decode, 0.50)

	var st server.Stats
	if s, ok := inst.(statser); ok {
		st = s.passStats()
	}
	v["server.executed"] = float64(st.Executed)
	v["server.cache_hits"] = float64(st.CacheHits)
	v["server.deduped"] = float64(st.Deduped)
	v["server.rejected"] = float64(st.Rejected)

	var gcCPU, cpu float64
	for _, p := range traced {
		gcCPU += p.gcCPU
		cpu += p.cpu
	}
	v["runtime_gc.cycles"] = medianOf(traced, func(p passStat) float64 { return float64(p.gcCycles) })
	v["runtime_gc.cpu_frac"] = ratio(gcCPU, cpu)
	v["runtime_gc.pause_ms"] = medianOf(traced, func(p passStat) float64 { return p.gcPause / maxProcs * 1e3 })

	med := medianOf(traced, wallOf)
	v["harness.pass_wall_med_s"] = med
	v["harness.pass_spread"] = (med - wallS) / wallS
	v["harness.trace_overhead_frac"] = wallS/minOf(plain, wallOf) - 1

	drivers, err := runDrivers(ctx, o.tiny)
	if err != nil {
		return nil, err
	}
	for k, d := range drivers {
		v[k] = d
	}
	for k, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("metric %s is not finite", k)
		}
	}

	blob, err := json.MarshalIndent(traceFile{
		Workload: o.workload, Seed: o.seed, Spans: t.spans,
		CPUShares: shares, Drivers: drivers, Metrics: v,
	}, "", " ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(outDir, o.workload+".trace.json"), blob, 0o644); err != nil {
		return nil, err
	}
	return v, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile is the nearest-rank quantile; 0 for no samples (the metric does
// not apply to the workload).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
