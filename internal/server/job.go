package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"hwatch/internal/experiments"
	"hwatch/internal/scenario"
)

// jobState is a job's lifecycle position. Transitions are monotone:
// queued → running → one of the terminal states.
type jobState string

const (
	stateQueued    jobState = "queued"
	stateRunning   jobState = "running"
	stateDone      jobState = "done"
	stateFailed    jobState = "failed"
	stateCancelled jobState = "cancelled"
)

func (s jobState) terminal() bool {
	return s == stateDone || s == stateFailed || s == stateCancelled
}

// job is one admitted submission, identified by its content address.
// Identical submissions share the job — the content-addressed id is the
// single-flight deduplication: a digest already active attaches instead of
// spawning a second simulation.
type job struct {
	id  string // canonical digest; also the cache address
	req *parsedJob

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed on reaching a terminal state

	// pins counts parties that need the job to keep running: one per
	// attached waiting request, plus one permanent pin for fire-and-forget
	// submissions (their result must exist for a later GET). When the last
	// pin drops before completion the job is cancelled — an abandoned HTTP
	// job must stop burning CPU.
	pins      atomic.Int64
	permanent atomic.Bool

	// Progress gauges, fed by the scenario Progress hook (concurrently
	// from every shard's worker under sharded execution).
	simNow atomic.Int64
	events atomic.Uint64

	mu     sync.Mutex
	state  jobState
	errMsg string
	entry  *cacheEntry // the encoded result; set only with stateDone
}

func (j *job) snapshot() (jobState, string, *cacheEntry) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.errMsg, j.entry
}

func (j *job) setState(s jobState) {
	j.mu.Lock()
	j.state = s
	j.mu.Unlock()
}

// finish moves the job to a terminal state exactly once.
func (j *job) finish(s jobState, errMsg string, e *cacheEntry) {
	j.mu.Lock()
	if j.state.terminal() {
		j.mu.Unlock()
		return
	}
	j.state = s
	j.errMsg = errMsg
	j.entry = e
	j.mu.Unlock()
	close(j.done)
}

// pin registers a party that needs the job running; the returned release
// drops it (idempotent). permanent pins are never released.
func (j *job) pin(permanent bool) (release func()) {
	j.pins.Add(1)
	if permanent {
		j.permanent.Store(true)
		return func() {}
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			if j.pins.Add(-1) == 0 && !j.permanent.Load() {
				j.cancel()
			}
		})
	}
}

// parsedJob is a validated JobRequest: its canonical identity plus the
// closure that executes it. run's Progress hook must be safe for
// concurrent use.
type parsedJob struct {
	kind string
	name string // the target's name ("" for spec)
	run  func(ctx context.Context, progress func(simNow int64, processed uint64)) (runs []*scenario.Run, rows []string, err error)
}

// parseJob validates a request and computes its canonical digest. For
// "spec" jobs the digest is the spec's own canonical digest (identical to
// hwatchsim -spec-digest); every other kind names a row of the target
// table and digests its canonical parameter tuple, holding only the
// settings the target reads. The digest doubles as the job id and the
// cache address.
func parseJob(req *JobRequest) (*parsedJob, string, error) {
	kind := req.Kind
	if kind == "" && len(req.Spec) > 0 {
		kind = "spec"
	}
	if kind == "spec" {
		if len(req.Spec) == 0 {
			return nil, "", fmt.Errorf("spec job carries no spec")
		}
		fs, err := scenario.ParseSpec(req.Spec)
		if err != nil {
			return nil, "", err
		}
		digest, err := fs.CanonicalDigest()
		if err != nil {
			return nil, "", err
		}
		p := &parsedJob{kind: "spec"}
		p.run = func(ctx context.Context, progress func(int64, uint64)) ([]*scenario.Run, []string, error) {
			sc := fs.Scenario()
			sc.Progress = progress
			r, err := sc.RunContext(ctx)
			if err != nil {
				return nil, nil, err
			}
			return []*scenario.Run{r}, nil, nil
		}
		return p, digest, nil
	}
	t, err := experiments.LookupTarget(kind, strings.ToLower(req.Name))
	if err != nil {
		return nil, "", err
	}
	scale := 1.0 // a scale outside (0,1] is full scale, as in hwatchsim
	if t.Scaled && req.Scale > 0 && req.Scale <= 1 {
		scale = req.Scale
	}
	var set []scenario.Scheme
	var schemes []string
	if t.Schemed {
		if set, err = scenario.LookupSchemes(req.Schemes); err != nil {
			return nil, "", err
		}
		schemes = req.Schemes
	}
	p := &parsedJob{kind: t.Kind, name: t.Name}
	p.run = func(ctx context.Context, progress func(int64, uint64)) ([]*scenario.Run, []string, error) {
		return t.Run(ctx, scale, set, progress)
	}
	return p, tupleDigest(t.Kind, t.Name, scale, schemes), nil
}

// tupleDigest content-addresses a non-spec job by its canonical parameter
// tuple (sorted-key JSON, normalized scale, the scheme list in request
// order — output rows depend on it).
func tupleDigest(kind, name string, scale float64, schemes []string) string {
	b, _ := json.Marshal(map[string]any{
		"job":     kind,
		"name":    name,
		"scale":   scale,
		"schemes": schemes,
	})
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
