package server_test

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hwatch/internal/server"
	"hwatch/internal/server/client"
)

func stressSpec(seed int) string {
	return fmt.Sprintf(`{
		"kind": "dumbbell", "scheme": "hwatch",
		"long_sources": 3, "short_sources": 3,
		"seed": %d, "duration_ms": 150, "drain_after_ms": 100, "epochs": 1
	}`, 1000+seed)
}

// TestStressSingleFlightDedup hammers the server from many goroutines
// with a small set of distinct specs. Single-flight plus the cache must
// collapse the load: the number of jobs actually executed equals the
// number of distinct specs, and every response for a spec carries the
// same digest.
func TestStressSingleFlightDedup(t *testing.T) {
	const (
		distinct   = 4
		submitters = 32
	)
	srv, _, cl := newTestServer(t, server.Config{Parallel: 2, QueueDepth: distinct + 2})
	ctx := context.Background()

	var wg sync.WaitGroup
	digests := make([]string, submitters)
	errs := make([]error, submitters)
	for i := 0; i < submitters; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := cl.SubmitSpec(ctx, []byte(stressSpec(i%distinct)))
			if err != nil {
				errs[i] = err
				return
			}
			digests[i] = res.Digest
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submitter %d: %v", i, err)
		}
	}
	bySpec := map[int]string{}
	for i, d := range digests {
		spec := i % distinct
		if prev, ok := bySpec[spec]; ok && prev != d {
			t.Errorf("spec %d: digest %s and %s from identical submissions", spec, prev, d)
		}
		bySpec[spec] = d
	}
	if len(bySpec) != distinct {
		t.Errorf("%d distinct digests, want %d", len(bySpec), distinct)
	}
	st := srv.Stats()
	if st.Executed != distinct {
		t.Errorf("executed %d jobs for %d submissions of %d distinct specs, want %d",
			st.Executed, submitters, distinct, distinct)
	}
	if st.Deduped+st.CacheHits != submitters-distinct {
		t.Errorf("deduped %d + cache hits %d, want %d collapsed submissions",
			st.Deduped, st.CacheHits, submitters-distinct)
	}
}

// TestStressBackpressure fills a parallel=1, queue=1 server and checks
// the third distinct job is rejected with 429 and a positive Retry-After,
// while already-admitted jobs are unaffected.
func TestStressBackpressure(t *testing.T) {
	srv, hs, _ := newTestServer(t, server.Config{Parallel: 1, QueueDepth: 1})

	submit := func(body string) *http.Response {
		t.Helper()
		resp, err := hs.Client().Post(hs.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// Two long jobs fill the slot and the queue.
	long1, long2 := endlessSpec, strings.Replace(endlessSpec, `"seed": 43`, `"seed": 44`, 1)
	if resp := submit(long1); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first job: status %d, want 202", resp.StatusCode)
	}
	if resp := submit(long2); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second job: status %d, want 202", resp.StatusCode)
	}

	resp := submit(stressSpec(99))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third job: status %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Errorf("Retry-After %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	if srv.Stats().Rejected == 0 {
		t.Error("rejection counter not incremented")
	}

	// Resubmitting an admitted digest is dedup, never a 429: identical
	// tenants share the in-flight job instead of burning queue slots.
	if resp := submit(long1); resp.StatusCode != http.StatusAccepted {
		t.Errorf("duplicate of admitted job: status %d, want 202 (single-flight)", resp.StatusCode)
	}
}

// TestStressWaiterAbandonmentCancelsJob proves request-context
// propagation: when the only waiter for a job disconnects, the job's
// context is cancelled, the in-flight simulation stops, and the server
// drains without leaking goroutines.
func TestStressWaiterAbandonmentCancelsJob(t *testing.T) {
	srv, hs, _ := newTestServer(t, server.Config{Parallel: 1, QueueDepth: 2})

	before := runtime.NumGoroutine()

	reqCtx, abandon := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(reqCtx, http.MethodPost,
		hs.URL+"/api/v1/jobs?wait=1", strings.NewReader(endlessSpec))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := hs.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()

	// Wait until the job is actually running, then walk away.
	waitFor(t, "job running", func() bool {
		st := srv.Stats()
		return st.Active == 1 && st.Executed == 1
	})
	abandon()
	if err := <-done; err == nil {
		t.Error("abandoned request returned without error")
	}

	// The simulation must stop: the active set drains even though the
	// spec had ten simulated minutes left.
	waitFor(t, "job cancelled and retired", func() bool {
		return srv.Stats().Active == 0
	})

	// Goroutine accounting settles back to the baseline (modulo the
	// handful net/http parks between keep-alive requests).
	waitFor(t, "goroutines drained", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+5
	})
}

// TestStressSubmitCancelStatsUnderEviction hammers the three mutating
// paths at once — waited submissions, mid-flight cancellations via
// abandoned requests, and stats reads — against a result cache small
// enough that almost every completion evicts an entry. The invariants:
// no submission errors besides the deliberate cancellations, the active
// set drains, and the cache ends within its byte budget. Under
// `make server-e2e` (-race) this is the concurrency gate for the
// job-map/cache/stats lock interplay.
func TestStressSubmitCancelStatsUnderEviction(t *testing.T) {
	const (
		submitters = 4
		iters      = 3
		// One shortSpec result encodes to some 24 KB: room for two of
		// the eight or more this test completes.
		cacheBytes = 60 << 10
	)
	// Shorter than stressSpec: this test measures lock interplay, not the
	// simulation, and the race detector makes every simulated millisecond
	// expensive.
	shortSpec := func(seed int) string {
		return fmt.Sprintf(`{
			"kind": "dumbbell", "scheme": "hwatch",
			"long_sources": 2, "short_sources": 2,
			"seed": %d, "duration_ms": 40, "drain_after_ms": 20, "epochs": 1
		}`, 2000+seed)
	}
	srv, hs, cl := newTestServer(t, server.Config{Parallel: 2, QueueDepth: submitters * iters, CacheBytes: cacheBytes})
	ctx := context.Background()

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = srv.Stats()
					// Throttle: a hot spin would starve the simulation
					// workers of scheduler time, not find more races.
					time.Sleep(200 * time.Microsecond)
				}
			}
		}()
	}

	var wg sync.WaitGroup
	errs := make([]error, submitters)
	for i := 0; i < submitters; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				// Distinct seeds: every iteration is a fresh digest, so
				// completions churn the small cache continuously.
				spec := shortSpec(i*iters + j)
				if (i+j)%3 == 0 {
					// Deliberate mid-flight abandonment: wait briefly, then
					// walk away. The server must cancel the orphaned job.
					reqCtx, cancel := context.WithTimeout(ctx, 2*time.Millisecond)
					req, err := http.NewRequestWithContext(reqCtx, http.MethodPost,
						hs.URL+"/api/v1/jobs?wait=1", strings.NewReader(spec))
					if err != nil {
						errs[i] = err
						cancel()
						return
					}
					if resp, err := hs.Client().Do(req); err == nil {
						resp.Body.Close()
					}
					cancel()
					continue
				}
				if _, err := cl.SubmitSpec(ctx, []byte(spec)); err != nil {
					errs[i] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("submitter %d: %v", i, err)
		}
	}
	waitFor(t, "active set drained", func() bool { return srv.Stats().Active == 0 })
	st := srv.Stats()
	if st.CacheBytes > cacheBytes || st.CacheEntries == 0 {
		t.Errorf("cache holds %d bytes in %d entries, its budget is %d bytes", st.CacheBytes, st.CacheEntries, cacheBytes)
	}
	if int64(st.CacheEntries) >= st.Executed {
		t.Errorf("cache holds %d entries after %d jobs: nothing was evicted", st.CacheEntries, st.Executed)
	}
	if st.Executed == 0 {
		t.Error("stress run executed no jobs")
	}
}

// waitFor polls cond for up to 30s; the generous ceiling only matters on
// failure — success paths clear in milliseconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestStressCancelledJobIsNotCached resubmits a spec whose first job was
// cancelled mid-run and checks it executes again from scratch — a
// cancelled run must never poison the content-addressed cache.
func TestStressCancelledJobIsNotCached(t *testing.T) {
	srv, hs, cl := newTestServer(t, server.Config{Parallel: 1, QueueDepth: 2})
	ctx := context.Background()

	// Use a spec short enough to finish quickly once re-run honestly.
	spec := stressSpec(7)
	id, err := cl.Digest(ctx, &server.JobRequest{Kind: "spec", Spec: []byte(spec)})
	if err != nil {
		t.Fatal(err)
	}

	reqCtx, abandon := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(reqCtx, http.MethodPost,
		hs.URL+"/api/v1/jobs?wait=1", strings.NewReader(spec))
	go hs.Client().Do(req)
	waitFor(t, "first attempt admitted", func() bool { return srv.Stats().Executed >= 1 })
	abandon()
	waitFor(t, "first attempt retired", func() bool { return srv.Stats().Active == 0 })

	res, err := cl.SubmitSpec(ctx, []byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	if res.Digest != id {
		t.Errorf("digest %s, want %s", res.Digest, id)
	}
	// Whether the first attempt completed before the cancel landed or was
	// killed mid-run, the second submission must return a full result.
	if len(res.Runs) != 1 {
		t.Fatalf("resubmission returned %d runs, want 1", len(res.Runs))
	}
	if _, err := client.Runs(res); err != nil {
		t.Fatal(err)
	}
}
