package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hwatch/internal/harness"
	"hwatch/internal/scenario"
)

// Config sizes a Server. Zero values pick sane defaults.
type Config struct {
	// Parallel bounds concurrently running simulations (<= 0 means
	// harness.DefaultParallel, i.e. GOMAXPROCS).
	Parallel int
	// QueueDepth bounds jobs admitted beyond the running set. A submission
	// arriving with Parallel+QueueDepth jobs unfinished is rejected with
	// 429 and a Retry-After estimate (<= 0 means 2*Parallel).
	QueueDepth int
	// CacheBytes bounds the bytes of encoded results the cache holds
	// (<= 0 means 64 MiB). The newest result always stays, whatever its size.
	CacheBytes int64
	// Version overrides the code-version half of the cache key. Empty
	// means the VCS revision baked into the binary, or "dev".
	Version string
	// EventInterval is the progress-stream cadence (<= 0 means 250ms).
	EventInterval time.Duration
}

// Server queues scenario jobs through a harness pool and serves results
// from a content-addressed cache. Create with New, mount Handler, Close
// when done.
type Server struct {
	cfg     Config
	version string

	ctx    context.Context
	cancel context.CancelFunc
	pool   *harness.Pool
	cache  *resultCache

	mu         sync.Mutex
	jobs       map[string]*job // queued or running, keyed by digest
	unfinished int

	executed atomic.Int64
	hits     atomic.Int64
	deduped  atomic.Int64
	rejected atomic.Int64
}

// JobStatus is the wire form of a job's current position; it is also the
// NDJSON event the progress stream emits. SimNowNs and Events are gauges
// fed out-of-band by the engine poll hook — under sharded execution they
// report the furthest shard, not a global total.
type JobStatus struct {
	ID       string `json:"id"`
	Kind     string `json:"kind"`
	Name     string `json:"name,omitempty"`
	State    string `json:"state"`
	Error    string `json:"error,omitempty"`
	SimNowNs int64  `json:"sim_now_ns"`
	Events   uint64 `json:"events"`
}

// Stats is the wire form of GET /api/v1/stats.
type Stats struct {
	Version      string `json:"version"`
	Active       int    `json:"active"`
	Executed     int64  `json:"executed"`
	CacheHits    int64  `json:"cache_hits"`
	Deduped      int64  `json:"deduped"`
	Rejected     int64  `json:"rejected"`
	CacheEntries int    `json:"cache_entries"`
	CacheBytes   int64  `json:"cache_bytes"`
	Parallel     int    `json:"parallel"`
	QueueDepth   int    `json:"queue_depth"`
}

// New builds a Server whose jobs run under parent: cancelling parent (or
// calling Close) cancels every outstanding job. Close releases it.
func New(parent context.Context, cfg Config) *Server {
	if cfg.Parallel <= 0 {
		cfg.Parallel = harness.DefaultParallel()
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 2 * cfg.Parallel
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 64 << 20
	}
	if cfg.EventInterval <= 0 {
		cfg.EventInterval = 250 * time.Millisecond
	}
	version := cfg.Version
	if version == "" {
		version = buildVersion()
	}
	ctx, cancel := context.WithCancel(parent)
	return &Server{
		cfg:     cfg,
		version: version,
		ctx:     ctx,
		cancel:  cancel,
		pool:    harness.NewPool(ctx, cfg.Parallel),
		cache:   newResultCache(cfg.CacheBytes),
		jobs:    make(map[string]*job),
	}
}

// Version reports the code-version half of the cache key.
func (s *Server) Version() string { return s.version }

// Close cancels every outstanding job and waits for the pool to drain.
func (s *Server) Close() {
	s.cancel()
	s.pool.Wait()
}

// buildVersion derives the code version from the binary's embedded VCS
// metadata; test binaries and plain `go run` fall back to "dev".
func buildVersion() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			if kv.Key == "vcs.revision" && kv.Value != "" {
				return kv.Value
			}
		}
	}
	return "dev"
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /api/v1/results/{digest}", s.handleResult)
	mux.HandleFunc("POST /api/v1/digest", s.handleDigest)
	mux.HandleFunc("GET /api/v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /api/v1/version", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"version": s.version})
	})
	mux.HandleFunc("GET /api/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	return mux
}

// Stats snapshots the server's counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	active := len(s.jobs)
	s.mu.Unlock()
	entries, bytes := s.cache.size()
	return Stats{
		Version:      s.version,
		Active:       active,
		Executed:     s.executed.Load(),
		CacheHits:    s.hits.Load(),
		Deduped:      s.deduped.Load(),
		Rejected:     s.rejected.Load(),
		CacheEntries: entries,
		CacheBytes:   bytes,
		Parallel:     s.cfg.Parallel,
		QueueDepth:   s.cfg.QueueDepth,
	}
}

func (s *Server) cacheKey(digest string) string { return digest + "@" + s.version }

// maxRequestBytes bounds a submission body; a spec is a few hundred bytes.
const maxRequestBytes = 1 << 20

// decodeRequest reads a submission body. A bare scenario.FileSpec (its
// "kind" is a topology, not a job kind) is accepted as shorthand for
// {"kind":"spec","spec":<body>}.
func decodeRequest(r io.Reader) (*JobRequest, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("reading request body: %w", err)
	}
	var req JobRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		return nil, fmt.Errorf("parsing request body: %w", err)
	}
	if req.Kind == "dumbbell" || req.Kind == "testbed" {
		return &JobRequest{Kind: "spec", Spec: raw}, nil
	}
	return &req, nil
}

// readJob decodes and validates the submission in r's body. On failure it
// has answered the request — 413 for a body over maxRequestBytes, which
// would otherwise surface as a truncated-JSON parse error, 400 for
// anything else — and ok is false.
func readJob(w http.ResponseWriter, r *http.Request) (p *parsedJob, digest string, ok bool) {
	req, err := decodeRequest(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err == nil {
		p, digest, err = parseJob(req)
	}
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return p, digest, true
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds the %d MiB limit", tooLarge.Limit>>20))
	default:
		writeError(w, http.StatusBadRequest, err)
	}
	return nil, "", false
}

func (s *Server) handleDigest(w http.ResponseWriter, r *http.Request) {
	p, digest, ok := readJob(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{
		"digest":  digest,
		"kind":    p.kind,
		"name":    p.name,
		"version": s.version,
	})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	p, digest, ok := readJob(w, r)
	if !ok {
		return
	}
	wait := false
	if v := r.URL.Query().Get("wait"); v != "" {
		wait, _ = strconv.ParseBool(v)
	}

	j, created, cached, err := s.admit(p, digest)
	if cached != nil {
		s.hits.Add(1)
		writeBody(w, r, cached, "hit")
		return
	}
	if err != nil {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
		writeError(w, http.StatusTooManyRequests, err)
		return
	}
	release := j.pin(!wait)
	defer release()
	if created {
		s.start(j)
	} else {
		s.deduped.Add(1)
	}

	if !wait {
		writeJSON(w, http.StatusAccepted, s.statusOf(j))
		return
	}
	select {
	case <-j.done:
		writeOutcome(w, r, j)
	case <-r.Context().Done():
		// The waiter is gone; release (deferred) drops its pin, and the
		// job dies with it unless another party still needs the result.
	}
}

// admit resolves a submission to a cached result, the active job for its
// digest, or a freshly registered job. The single-flight guarantee lives
// here: under s.mu a digest maps to at most one live job, and a finished
// job enters the cache before it leaves the map, so concurrent identical
// submissions can never execute twice.
func (s *Server) admit(p *parsedJob, digest string) (j *job, created bool, cached *cacheEntry, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.jobs[digest]; ok {
		return existing, false, nil, nil
	}
	if e, ok := s.cache.get(s.cacheKey(digest)); ok {
		return nil, false, e, nil
	}
	if s.unfinished >= s.cfg.Parallel+s.cfg.QueueDepth {
		s.rejected.Add(1)
		return nil, false, nil, fmt.Errorf("queue full: %d jobs unfinished (capacity %d)",
			s.unfinished, s.cfg.Parallel+s.cfg.QueueDepth)
	}
	ctx, cancel := context.WithCancel(s.ctx)
	j = &job{
		id:     digest,
		req:    p,
		ctx:    ctx,
		cancel: cancel,
		done:   make(chan struct{}),
		state:  stateQueued,
	}
	s.jobs[digest] = j
	s.unfinished++
	return j, true, nil, nil
}

// retryAfter estimates seconds until a queue slot frees: one pool drain
// of the backlog, clamped to [1, 60].
func (s *Server) retryAfter() int {
	s.mu.Lock()
	backlog := s.unfinished
	s.mu.Unlock()
	est := (backlog + s.cfg.Parallel - 1) / s.cfg.Parallel
	if est < 1 {
		est = 1
	}
	if est > 60 {
		est = 60
	}
	return est
}

// start hands the job to the pool. The task runs under the job's own
// context (a child of the server's), so DELETE and abandoned waiters can
// cancel one job without touching its queue neighbours.
func (s *Server) start(j *job) {
	s.pool.Go("job/"+j.id[:12], func(context.Context) error {
		defer s.finalize(j)
		if err := j.ctx.Err(); err != nil {
			j.finish(stateCancelled, err.Error(), nil)
			return nil
		}
		j.setState(stateRunning)
		s.executed.Add(1)
		runs, rows, err := runParsed(j)
		switch {
		case err == nil:
			res := &Result{
				Kind:    j.req.kind,
				Name:    j.req.name,
				Digest:  j.id,
				Version: s.version,
				Rows:    rows,
			}
			for _, r := range runs {
				res.Runs = append(res.Runs, WireRun(r))
			}
			// The one encode of this result: the waiters, the cache and
			// every later hit share these bytes.
			if e, err := newCacheEntry(s.cacheKey(j.id), res); err != nil {
				j.finish(stateFailed, "encoding result: "+err.Error(), nil)
			} else {
				s.cache.put(e)
				j.finish(stateDone, "", e)
			}
		case j.ctx.Err() != nil:
			j.finish(stateCancelled, err.Error(), nil)
		default:
			j.finish(stateFailed, err.Error(), nil)
		}
		return nil
	})
}

// runParsed executes the job body. The recover fence guards the job's own
// goroutine — the spec and rung kinds build and run their scenario right
// here — so a panicking scheme definition becomes a failed job instead of
// an unfinished one; fig, ablation and study cells run on harness.Pool
// goroutines of their own, where Pool.Go does the same. Either way a
// tenant's bad job must not become a dead server.
func runParsed(j *job) (runs []*scenario.Run, rows []string, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("job panicked: %v", r)
		}
	}()
	progress := func(simNow int64, processed uint64) {
		storeMaxInt64(&j.simNow, simNow)
		storeMaxUint64(&j.events, processed)
	}
	return j.req.run(j.ctx, progress)
}

// finalize retires the job: drops it from the active map (later identical
// submissions hit the cache, or re-run if it failed) and frees its slot.
func (s *Server) finalize(j *job) {
	j.cancel()
	s.mu.Lock()
	delete(s.jobs, j.id)
	s.unfinished--
	s.mu.Unlock()
}

func (s *Server) statusOf(j *job) JobStatus {
	state, errMsg, _ := j.snapshot()
	return JobStatus{
		ID:       j.id,
		Kind:     j.req.kind,
		Name:     j.req.name,
		State:    string(state),
		Error:    errMsg,
		SimNowNs: j.simNow.Load(),
		Events:   j.events.Load(),
	}
}

// writeOutcome renders a finished job: the result on success, the error
// mapped to 409 (cancelled) or 500 (failed) otherwise.
func writeOutcome(w http.ResponseWriter, r *http.Request, j *job) {
	state, errMsg, e := j.snapshot()
	switch state {
	case stateDone:
		writeBody(w, r, e, "miss")
	case stateCancelled:
		writeJSON(w, http.StatusConflict, map[string]string{"error": "job cancelled: " + errMsg})
	default:
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": errMsg})
	}
}

// lookupJob resolves a job id to its live job, or — once retired — to a
// synthesized done status from the result cache.
func (s *Server) lookupJob(id string) (*job, *cacheEntry, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if ok {
		return j, nil, true
	}
	if e, ok := s.cache.get(s.cacheKey(id)); ok {
		return nil, e, true
	}
	return nil, nil, false
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, e, ok := s.lookupJob(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	if j != nil {
		writeJSON(w, http.StatusOK, s.statusOf(j))
		return
	}
	writeJSON(w, http.StatusOK, JobStatus{ID: id, Kind: e.kind, Name: e.name, State: string(stateDone)})
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no active job %q", id))
		return
	}
	j.cancel()
	writeJSON(w, http.StatusOK, s.statusOf(j))
}

// handleJobEvents streams the job's status as NDJSON until it reaches a
// terminal state (the final line carries it) or the client disconnects.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, e, ok := s.lookupJob(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	emit := func(st JobStatus) {
		enc.Encode(st)
		if flusher != nil {
			flusher.Flush()
		}
	}
	if j == nil {
		emit(JobStatus{ID: id, Kind: e.kind, Name: e.name, State: string(stateDone)})
		return
	}
	ticker := time.NewTicker(s.cfg.EventInterval)
	defer ticker.Stop()
	for {
		emit(s.statusOf(j))
		select {
		case <-j.done:
			emit(s.statusOf(j))
			return
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	e, ok := s.cache.get(s.cacheKey(digest))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no cached result for digest %q at version %s", digest, s.version))
		return
	}
	s.hits.Add(1)
	writeBody(w, r, e, "hit")
}

// writeBody is how every result leaves the server — to the job's first
// waiter, to a deduplicated one, on a submit that hit the cache and on a
// fetch by digest: the stored bytes in one Write, with their length and
// the quoted digest as ETag. Whether the cache served it is the one thing
// that differs between those responses, so it travels as a header. A
// request whose If-None-Match names the ETag already has these bytes and
// gets 304 without them.
func writeBody(w http.ResponseWriter, r *http.Request, e *cacheEntry, cache string) {
	h := w.Header()
	h.Set("ETag", e.etag)
	h.Set(CacheHeader, cache)
	if etagListed(r.Header.Get("If-None-Match"), e.etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(e.body)))
	w.Write(e.body)
}

// etagListed reports whether an If-None-Match value — a comma-separated
// list of entity tags, or * — names etag. The comparison is the weak one
// RFC 9110 prescribes for this header: a W/ prefix is ignored.
func etagListed(ifNoneMatch, etag string) bool {
	for more := ifNoneMatch != ""; more; {
		var tag string
		tag, ifNoneMatch, more = strings.Cut(ifNoneMatch, ",")
		tag = strings.TrimPrefix(strings.TrimSpace(tag), "W/")
		if tag == etag || tag == "*" {
			return true
		}
	}
	return false
}

func storeMaxInt64(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

func storeMaxUint64(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
