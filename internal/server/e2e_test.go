package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"hwatch/internal/netem"
	"hwatch/internal/scenario"
	"hwatch/internal/server"
	"hwatch/internal/server/client"
)

// goldenPath is the digest file the experiments suite locks figure
// outcomes to. The e2e suite reuses it so the server path is proven
// byte-identical to the CLI path against the same committed truth.
const goldenPath = "../experiments/testdata/golden_digests.json"

func loadGoldens(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden digests: %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parsing %s: %v", goldenPath, err)
	}
	return want
}

func newTestServer(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server, *client.Client) {
	t.Helper()
	if cfg.Version == "" {
		cfg.Version = "e2e-test"
	}
	if cfg.EventInterval == 0 {
		cfg.EventInterval = 5 * time.Millisecond
	}
	srv := server.New(context.Background(), cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return srv, hs, client.New(hs.URL, hs.Client())
}

// quickSpec is a dumbbell small enough for tests yet real enough to
// exercise the full scenario pipeline.
const quickSpec = `{
	"kind": "dumbbell", "scheme": "hwatch",
	"long_sources": 5, "short_sources": 5,
	"seed": 42, "duration_ms": 300, "drain_after_ms": 200, "epochs": 2
}`

// tinySpec is the shape of the benchmark's small cached results: for tests
// about how a result is served, not about what is in it.
const tinySpec = `{"kind":"dumbbell","scheme":"hwatch","long_sources":2,"short_sources":2,"seed":42,"duration_ms":120,"drain_after_ms":30,"epochs":1}`

// endlessSpec runs ten simulated minutes — far longer than any test
// waits — so cancellation paths have a live job to kill.
const endlessSpec = `{
	"kind": "dumbbell", "scheme": "hwatch",
	"long_sources": 5, "short_sources": 5,
	"seed": 43, "duration_ms": 600000, "epochs": 2
}`

// TestE2EFig2GoldenParityAndCacheHit is the tentpole proof: a fig2 job
// submitted over HTTP produces exactly the committed golden digests (the
// CLI path's truth), and resubmitting it is a cache hit that runs zero
// simulations.
func TestE2EFig2GoldenParityAndCacheHit(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full fig2 at scale 0.1")
	}
	srv, _, cl := newTestServer(t, server.Config{Parallel: 2})
	ctx := context.Background()

	res, err := cl.Submit(ctx, &server.JobRequest{Kind: "fig", Name: "fig2", Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Error("first submission claims to be cached")
	}
	if res.Version != "e2e-test" {
		t.Errorf("result version %q, want e2e-test", res.Version)
	}

	want := loadGoldens(t)
	wantByLabel := map[string]string{
		"DCTCP":      want["fig2/dctcp"],
		"MIX":        want["fig2/mix"],
		"MIX+HWatch": want["fig2/mix+hwatch"],
	}
	if len(res.Runs) != len(wantByLabel) {
		t.Fatalf("fig2 returned %d runs, want %d", len(res.Runs), len(wantByLabel))
	}
	for _, r := range res.Runs {
		golden, ok := wantByLabel[r.Label]
		if !ok {
			t.Errorf("unexpected run label %q", r.Label)
			continue
		}
		if r.Digest != golden {
			t.Errorf("%s: server-path digest %s, golden %s", r.Label, r.Digest, golden)
		}
	}
	// Reconstructing the runs re-verifies every digest from the raw
	// series, so the wire format provably carried the full result.
	if _, err := client.Runs(res); err != nil {
		t.Fatalf("reconstructing runs: %v", err)
	}

	executed := srv.Stats().Executed
	again, err := cl.Submit(ctx, &server.JobRequest{Kind: "fig", Name: "fig2", Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("second identical submission was not served from cache")
	}
	if again.Digest != res.Digest {
		t.Errorf("cache returned digest %s, first run had %s", again.Digest, res.Digest)
	}
	if got := srv.Stats().Executed; got != executed {
		t.Errorf("cache hit executed %d new jobs, want 0", got-executed)
	}
	if hits := srv.Stats().CacheHits; hits == 0 {
		t.Error("cache hit counter not incremented")
	}
}

// TestE2ESpecJobMatchesCLIPath submits a raw spec and checks both halves
// of the content address: the job id is the spec's canonical digest (the
// value hwatchsim -spec-digest prints) and the run digest equals a local
// CLI-style execution of the same bytes.
func TestE2ESpecJobMatchesCLIPath(t *testing.T) {
	_, hs, cl := newTestServer(t, server.Config{Parallel: 2})
	ctx := context.Background()

	fs, err := scenario.ParseSpec([]byte(quickSpec))
	if err != nil {
		t.Fatal(err)
	}
	wantID, err := fs.CanonicalDigest()
	if err != nil {
		t.Fatal(err)
	}
	gotID, err := cl.Digest(ctx, &server.JobRequest{Kind: "spec", Spec: []byte(quickSpec)})
	if err != nil {
		t.Fatal(err)
	}
	if gotID != wantID {
		t.Errorf("server digest %s, local canonical digest %s", gotID, wantID)
	}

	res, err := cl.SubmitSpec(ctx, []byte(quickSpec))
	if err != nil {
		t.Fatal(err)
	}
	if res.Digest != wantID {
		t.Errorf("job id %s, want canonical digest %s", res.Digest, wantID)
	}
	if len(res.Runs) != 1 {
		t.Fatalf("spec job returned %d runs, want 1", len(res.Runs))
	}

	local, err := fs.Scenario().RunContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs[0].Digest != local.DigestHex() {
		t.Errorf("server-path run digest %s, CLI-path %s", res.Runs[0].Digest, local.DigestHex())
	}

	// The bare-FileSpec shorthand (the spec body posted with no envelope)
	// must land on the same content address.
	shorthandID := postDigest(t, hs, quickSpec)
	if shorthandID != wantID {
		t.Errorf("bare-spec shorthand digest %s, want %s", shorthandID, wantID)
	}

	// And the result stays addressable by digest.
	cached, ok, err := cl.Result(ctx, wantID)
	if err != nil || !ok {
		t.Fatalf("result lookup by digest: ok=%v err=%v", ok, err)
	}
	if !cached.Cached {
		t.Error("result endpoint did not mark the response cached")
	}
}

// postDigest posts a raw body to the digest endpoint and returns the
// content address the server assigns it.
func postDigest(t *testing.T, hs *httptest.Server, body string) string {
	t.Helper()
	resp, err := hs.Client().Post(hs.URL+"/api/v1/digest", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("digest endpoint status %d", resp.StatusCode)
	}
	var out struct {
		Digest string `json:"digest"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Digest
}

// TestE2EEventStream watches a job's NDJSON progress feed: every line
// must parse, states must be coherent, and the final line must be
// terminal.
func TestE2EEventStream(t *testing.T) {
	_, hs, cl := newTestServer(t, server.Config{Parallel: 1})
	ctx := context.Background()

	id, err := cl.Digest(ctx, &server.JobRequest{Kind: "spec", Spec: []byte(quickSpec)})
	if err != nil {
		t.Fatal(err)
	}
	// Fire-and-forget submit, then stream.
	resp, err := hs.Client().Post(hs.URL+"/api/v1/jobs", "application/json", strings.NewReader(quickSpec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}

	stream, err := hs.Client().Get(hs.URL + "/api/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("event stream content type %q", ct)
	}
	var last server.JobStatus
	lines := 0
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if last.ID != id {
			t.Errorf("event for job %q, want %q", last.ID, id)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("event stream produced no lines")
	}
	if last.State != "done" {
		t.Errorf("final event state %q, want done (error %q)", last.State, last.Error)
	}
	if last.Events == 0 {
		t.Error("final event reports zero processed events; progress gauge never fired")
	}
}

// TestE2ECancelViaDelete kills a long job with DELETE and confirms the
// stream reports the cancellation.
func TestE2ECancelViaDelete(t *testing.T) {
	_, hs, cl := newTestServer(t, server.Config{Parallel: 1})
	ctx := context.Background()

	id, err := cl.Digest(ctx, &server.JobRequest{Kind: "spec", Spec: []byte(endlessSpec)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := hs.Client().Post(hs.URL+"/api/v1/jobs", "application/json", strings.NewReader(endlessSpec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}

	// Open the event stream while the job is still alive, then cancel;
	// the stream must close itself with a terminal "cancelled" line.
	stream, err := hs.Client().Get(hs.URL + "/api/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		t.Fatalf("event stream status %d, want 200", stream.StatusCode)
	}

	del, err := http.NewRequest(http.MethodDelete, hs.URL+"/api/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := hs.Client().Do(del)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d, want 200", dresp.StatusCode)
	}

	var last server.JobStatus
	sc := bufio.NewScanner(stream.Body)
	saw := false
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatal(err)
		}
		saw = true
	}
	if !saw {
		t.Fatal("no events after cancel")
	}
	if last.State != "cancelled" {
		t.Errorf("final state %q, want cancelled", last.State)
	}

	// A cancelled job leaves no cache entry: the digest must 404.
	if _, ok, err := cl.Result(ctx, id); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Error("cancelled job left a cached result")
	}
}

// TestE2EErrorPaths covers the non-happy status codes.
func TestE2EErrorPaths(t *testing.T) {
	_, hs, _ := newTestServer(t, server.Config{Parallel: 1})
	post := func(body string) *http.Response {
		t.Helper()
		resp, err := hs.Client().Post(hs.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := post("{not json"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
	if resp := post(`{"kind":"fig","name":"fig99"}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown figure: status %d, want 400", resp.StatusCode)
	}
	if resp := post(`{"kind":"dumbbell","scheme":"warp-drive"}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown scheme: status %d, want 400", resp.StatusCode)
	}
	if resp := post(`{"kind":"study","name":"empirical","schemes":["warp-drive"]}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad study scheme: status %d, want 400", resp.StatusCode)
	}
	// One rack leaves the web workload no server rack; it used to be
	// admitted and end as a panicked job.
	if resp := post(`{"kind":"testbed","racks":1}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("one-rack testbed: status %d, want 400", resp.StatusCode)
	}
	// A dumbbell knob on a testbed spec would re-seed the default run.
	if resp := post(`{"kind":"testbed","buffer_pkts":50}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("testbed with buffer_pkts: status %d, want 400", resp.StatusCode)
	}
	// A point fault kind has no window: until_ms would be ignored by the
	// run and still re-seed the spec.
	if resp := post(`{"kind":"dumbbell","faults":[{"kind":"link-down","at_ms":100,"until_ms":120}]}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("until_ms on link-down: status %d, want 400", resp.StatusCode)
	}
	// A body over the limit is refused as such; it used to be cut at the
	// limit and reported as malformed JSON.
	oversized := `{"kind":"dumbbell","scheme":"` + strings.Repeat("x", 1<<20+50_000) + `"}`
	for _, path := range []string{"/api/v1/jobs", "/api/v1/digest"} {
		r := exchange(hs, http.MethodPost, path, oversized, "")
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(r.body), "exceeds the 1 MiB limit") {
			t.Errorf("1.1 MB body to %s: status %d %s, want 413 naming the 1 MiB limit", path, r.resp.StatusCode, r.body)
		}
	}
	for _, path := range []string{
		"/api/v1/jobs/deadbeef", "/api/v1/results/deadbeef", "/api/v1/jobs/deadbeef/events",
	} {
		resp, err := hs.Client().Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
	for _, path := range []string{"/api/v1/healthz", "/api/v1/version", "/api/v1/stats"} {
		resp, err := hs.Client().Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestE2EPanickingSchemeFailsOneJob submits jobs whose scheme's queue
// factory panics. A study job panics inside a harness.Pool cell — a
// goroutine the job's own recover fence cannot see — and a spec job
// panics on the job goroutine itself. Either must end as one failed job
// carrying the panic text: the daemon stays up, serves the next job,
// leaks no goroutine and caches nothing for the failures.
func TestE2EPanickingSchemeFailsOneJob(t *testing.T) {
	if _, ok := scenario.Lookup("boom"); !ok {
		scenario.Register(scenario.Definition{
			Name: "boom",
			Bottleneck: func(scenario.Env) func() netem.Queue {
				panic("boom: queue factory exploded")
			},
		})
	}
	srv, _, cl := newTestServer(t, server.Config{Parallel: 1})
	ctx := context.Background()
	before := runtime.NumGoroutine()

	for _, req := range []*server.JobRequest{
		{Kind: "study", Name: "incast", Schemes: []string{"boom"}},
		{Kind: "spec", Spec: []byte(`{"kind":"dumbbell","scheme":"boom","seed":1}`)},
	} {
		_, err := cl.Submit(ctx, req)
		if err == nil {
			t.Fatalf("%s job with a panicking scheme succeeded", req.Kind)
		}
		// 500 is writeOutcome's rendering of the failed state (a cancelled
		// job would be 409).
		for _, want := range []string{"500", "panicked", "boom: queue factory exploded"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s job: error %q does not carry %q", req.Kind, err, want)
			}
		}
		id, err := cl.Digest(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if _, found, err := cl.Result(ctx, id); err != nil || found {
			t.Errorf("%s job: failed result is retrievable (found=%v, err=%v)", req.Kind, found, err)
		}
	}
	if st := srv.Stats(); st.CacheEntries != 0 || st.Active != 0 {
		t.Errorf("after two failed jobs: %d cache entries, %d active; want 0, 0", st.CacheEntries, st.Active)
	}

	res, err := cl.SubmitSpec(ctx, []byte(quickSpec))
	if err != nil {
		t.Fatalf("job after the panics failed: %v", err)
	}
	if len(res.Runs) != 1 || res.Cached {
		t.Errorf("job after the panics: %d runs, cached=%v", len(res.Runs), res.Cached)
	}
	waitFor(t, "goroutines drained", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+5
	})
}

// TestE2ERungJob runs a ladder rung through the service, pinning the
// rung job kind end to end.
func TestE2ERungJob(t *testing.T) {
	_, _, cl := newTestServer(t, server.Config{Parallel: 1})
	res, err := cl.Submit(context.Background(), &server.JobRequest{Kind: "rung", Name: "ladder/1x", Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 1 || res.Runs[0].Digest == "" {
		t.Fatalf("rung job returned %d runs", len(res.Runs))
	}
	if _, err := client.Runs(res); err != nil {
		t.Fatal(err)
	}
}

// discardWriter is a ResponseWriter that keeps the status and the headers
// and counts the body instead of holding it.
type discardWriter struct {
	header http.Header
	code   int
	n      int
}

func (d *discardWriter) Header() http.Header  { return d.header }
func (d *discardWriter) WriteHeader(code int) { d.code = code }
func (d *discardWriter) Write(p []byte) (int, error) {
	d.n += len(p)
	return len(p), nil
}

// TestHitAllocationDoesNotScaleWithBody is the guard on the tentpole: a
// cache hit hands the stored bytes to the ResponseWriter, so what the
// handler allocates per hit — routing and headers, plus parsing the request
// on a submit — is a few KB whether the entry is the 19 KB of a small spec
// or the 115 KB of Fig. 8 (its three time axes travel as grids); and on the
// other end the client decodes every array at its final length.
func TestHitAllocationDoesNotScaleWithBody(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full fig8 at scale 0.1")
	}
	srv, _, cl := newTestServer(t, server.Config{Parallel: 2})
	for _, c := range []struct {
		name        string
		req         *server.JobRequest
		minBody     int
		submitLimit uint64
	}{
		{"fig8@0.1", &server.JobRequest{Kind: "fig", Name: "fig8", Scale: 0.1}, 110 << 10, 4 << 10},
		// A spec submission is addressed by its canonical digest, so even
		// a hit pays scenario.ParseSpec and CanonicalDigest on the request:
		// some 7 KB, none of it a function of the result.
		{"small spec", &server.JobRequest{Kind: "spec", Spec: []byte(tinySpec)}, 16 << 10, 12 << 10},
	} {
		res, err := cl.Submit(context.Background(), c.req)
		if err != nil {
			t.Fatal(err)
		}
		submission, err := json.Marshal(c.req)
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range res.Runs {
			v := reflect.ValueOf(run).Elem()
			for i := 0; i < v.NumField(); i++ {
				if f := v.Field(i); f.Kind() == reflect.Slice && f.Cap() != f.Len() {
					t.Errorf("%s, run %s: %s decoded with len %d, cap %d", c.name, run.Label, v.Type().Field(i).Name, f.Len(), f.Cap())
				}
			}
		}
		for _, route := range []struct {
			method, path, body string
			limit              uint64
		}{
			{http.MethodGet, "/api/v1/results/" + res.Digest, "", 4 << 10},
			{http.MethodPost, "/api/v1/jobs?wait=1", string(submission), c.submitLimit},
		} {
			const hits = 50
			reqs := make([]*http.Request, hits)
			for i := range reqs {
				reqs[i] = httptest.NewRequest(route.method, route.path, strings.NewReader(route.body))
			}
			h := srv.Handler()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for _, r := range reqs {
				w := &discardWriter{header: http.Header{}}
				h.ServeHTTP(w, r)
				if w.header.Get(server.CacheHeader) != "hit" || w.n < c.minBody {
					t.Fatalf("%s: %s answered %d with %s %q and %d bytes, want a hit of at least %d",
						c.name, route.method, w.code, server.CacheHeader, w.header.Get(server.CacheHeader), w.n, c.minBody)
				}
			}
			runtime.ReadMemStats(&after)
			perHit := (after.TotalAlloc - before.TotalAlloc) / hits
			t.Logf("%s: %s allocates %d bytes per hit", c.name, route.method, perHit)
			if perHit > route.limit {
				t.Errorf("%s: %s allocates %d bytes per hit, want at most %d", c.name, route.method, perHit, route.limit)
			}
		}
	}
}

// TestE2EGridAxesAreSharedReadOnly: the four Fig. 8 runs are sampled on
// one grid, so client.Runs materialises one timestamp array and every time
// axis of every run is a window of it — with no room past its end, so an
// append to one run's axes copies instead of writing into the next window.
func TestE2EGridAxesAreSharedReadOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full fig8 at scale 0.1")
	}
	_, _, cl := newTestServer(t, server.Config{Parallel: 2})
	res, err := cl.Submit(context.Background(), &server.JobRequest{Kind: "fig", Name: "fig8", Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	runs, err := client.Runs(res)
	if err != nil {
		t.Fatal(err)
	}
	axes := func(r *scenario.Run) []*[]int64 { return []*[]int64{&r.QueuePkts.T, &r.QueueBytes.T, &r.Utilization.T} }
	base := runs[0].QueuePkts.T
	for _, r := range runs {
		for k, ts := range axes(r) {
			ts := *ts
			if len(ts) < 2 || cap(ts) != len(ts) {
				t.Fatalf("run %s axis %d: %d points, cap %d", r.Label, k, len(ts), cap(ts))
			}
			if len(ts) > len(base) || ts[0] < base[0] {
				base = ts
			}
		}
	}
	dt := base[1] - base[0]
	for _, r := range runs {
		for k, ts := range axes(r) {
			if off := ((*ts)[0] - base[0]) / dt; &(*ts)[0] != &base[off] {
				t.Errorf("run %s axis %d is not a window of the one materialised grid", r.Label, k)
			}
		}
	}

	fresh, err := client.Runs(res)
	if err != nil {
		t.Fatal(err)
	}
	victim := runs[0]
	victim.QueuePkts.T = append(victim.QueuePkts.T, 1<<62)
	victim.Utilization.T = append(victim.Utilization.T, 1<<62)
	for i, r := range runs {
		for k, ts := range axes(r) {
			want := *axes(fresh[i])[k]
			if r == victim && k != 1 {
				want = append(want[:len(want):len(want)], 1<<62)
			}
			if !slices.Equal(*ts, want) {
				t.Errorf("after appending to run %s: run %s axis %d changed", victim.Label, r.Label, k)
			}
		}
		if r != victim && r.DigestHex() != res.Runs[i].Digest {
			t.Errorf("after appending to run %s: run %s digests %s, want %s", victim.Label, r.Label, r.DigestHex(), res.Runs[i].Digest)
		}
	}
}

// TestE2EClientReusesItsResponseBuffer: a client reads every response into
// a pooled buffer, so the second of two submissions overwrites the bytes
// the first was decoded from — and the first result, which must not alias
// them, still verifies.
func TestE2EClientReusesItsResponseBuffer(t *testing.T) {
	_, _, cl := newTestServer(t, server.Config{Parallel: 2})
	ctx := context.Background()
	first, err := cl.SubmitSpec(ctx, []byte(tinySpec))
	if err != nil {
		t.Fatal(err)
	}
	digest := first.Runs[0].Digest
	second, err := cl.SubmitSpec(ctx, []byte(strings.Replace(tinySpec, `"seed":42`, `"seed":43`, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if second.Digest == first.Digest || second.Runs[0].Digest == digest {
		t.Fatal("the two submissions are the same job")
	}
	for _, res := range []*server.Result{first, second} {
		if _, err := client.Runs(res); err != nil {
			t.Errorf("result %s: %v", res.Digest, err)
		}
	}
	if first.Runs[0].Digest != digest {
		t.Errorf("the first result's run digest changed from %s to %s", digest, first.Runs[0].Digest)
	}
}

// reply is one raw exchange with the service: what a tenant without the Go
// client sees.
type reply struct {
	resp *http.Response
	body []byte
	err  error
}

// exchange sends one request (If-None-Match set when inm is not empty) and
// reads the whole response. It reports failures in the reply, so it can run
// off the test goroutine.
func exchange(hs *httptest.Server, method, path, body, inm string) reply {
	req, err := http.NewRequest(method, hs.URL+path, strings.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := hs.Client().Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return reply{resp: resp, body: raw, err: err}
}

// TestE2EEveryResponseIsTheStoredBody pins the stored-body contract: the
// job's first waiter, a waiter deduplicated onto it, a later submission and
// a fetch by digest all receive the same bytes — encoded once — with their
// length declared and the quoted digest as ETag. Only the X-Hwatch-Cache
// header tells them apart.
func TestE2EEveryResponseIsTheStoredBody(t *testing.T) {
	srv, hs, cl := newTestServer(t, server.Config{Parallel: 1, QueueDepth: 4})
	ctx := context.Background()
	digest, err := cl.Digest(ctx, &server.JobRequest{Kind: "spec", Spec: []byte(tinySpec)})
	if err != nil {
		t.Fatal(err)
	}
	blocker, err := cl.Digest(ctx, &server.JobRequest{Kind: "spec", Spec: []byte(endlessSpec)})
	if err != nil {
		t.Fatal(err)
	}

	// The endless job holds the only worker, so the job under test stays
	// queued until both waiters are attached to it: the second is a
	// deduplicated waiter for certain, not a cache hit that came late.
	if r := exchange(hs, http.MethodPost, "/api/v1/jobs", endlessSpec, ""); r.err != nil || r.resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submitting the blocker: %+v", r)
	}
	waiters := make(chan reply, 2)
	wait := func() { waiters <- exchange(hs, http.MethodPost, "/api/v1/jobs?wait=1", tinySpec, "") }
	go wait()
	waitFor(t, "first waiter admitted", func() bool { return srv.Stats().Active == 2 })
	go wait()
	waitFor(t, "second waiter deduplicated", func() bool { return srv.Stats().Deduped == 1 })
	if r := exchange(hs, http.MethodDelete, "/api/v1/jobs/"+blocker, "", ""); r.err != nil || r.resp.StatusCode != http.StatusOK {
		t.Fatalf("cancelling the blocker: %+v", r)
	}

	replies := []struct {
		what, cache string
		reply
	}{
		{"a waiter", "miss", <-waiters},
		{"the other waiter", "miss", <-waiters},
		{"a resubmission", "hit", exchange(hs, http.MethodPost, "/api/v1/jobs?wait=1", tinySpec, "")},
		{"a fetch by digest", "hit", exchange(hs, http.MethodGet, "/api/v1/results/"+digest, "", "")},
	}
	for _, r := range replies {
		if r.err != nil {
			t.Fatalf("%s: %v", r.what, r.err)
		}
		if r.resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", r.what, r.resp.StatusCode, r.body)
		}
		if got := r.resp.Header.Get(server.CacheHeader); got != r.cache {
			t.Errorf("%s: %s is %q, want %q", r.what, server.CacheHeader, got, r.cache)
		}
		if got := r.resp.Header.Get("ETag"); got != `"`+digest+`"` {
			t.Errorf("%s: ETag is %s, want the quoted digest %q", r.what, got, digest)
		}
		if got := r.resp.Header.Get("Content-Length"); got != strconv.Itoa(len(r.body)) {
			t.Errorf("%s: Content-Length is %q, the body has %d bytes", r.what, got, len(r.body))
		}
		if !bytes.Equal(r.body, replies[0].body) {
			t.Errorf("%s: body differs from the first waiter's (%d bytes against %d)", r.what, len(r.body), len(replies[0].body))
		}
	}
	var res server.Result
	if err := json.Unmarshal(replies[0].body, &res); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Runs(&res); err != nil || res.Digest != digest || len(res.Runs) != 1 {
		t.Errorf("the shared body is not the job's result: digest %s, %d runs, %v", res.Digest, len(res.Runs), err)
	}
	if st := srv.Stats(); st.Executed != 2 || st.CacheHits != 2 {
		t.Errorf("executed %d jobs and counted %d hits, want 2 (the blocker and the job) and 2", st.Executed, st.CacheHits)
	}
}

// TestE2EConditionalFetch covers If-None-Match on the two routes that can
// hit the cache: a tag list naming the entry's ETag is answered 304 with no
// body and still counts as a hit; any other list gets the full result.
func TestE2EConditionalFetch(t *testing.T) {
	srv, hs, cl := newTestServer(t, server.Config{Parallel: 1})
	res, err := cl.SubmitSpec(context.Background(), []byte(tinySpec))
	if err != nil {
		t.Fatal(err)
	}
	etag := `"` + res.Digest + `"`
	for _, route := range []struct{ method, path, body string }{
		{http.MethodGet, "/api/v1/results/" + res.Digest, ""},
		{http.MethodPost, "/api/v1/jobs?wait=1", tinySpec},
	} {
		for _, c := range []struct {
			what, inm string
			status    int
		}{
			{"the entry's tag", etag, http.StatusNotModified},
			{"another tag", `"deadbeef"`, http.StatusOK},
			{"the digest unquoted", res.Digest, http.StatusOK},
			{"a list with the tag", `"deadbeef", ` + etag, http.StatusNotModified},
			{"a list with the tag marked weak", `"a","b" ,W/` + etag, http.StatusNotModified},
			{"a list without it", `"a", "b"`, http.StatusOK},
			{"the wildcard", `*`, http.StatusNotModified},
		} {
			hits := srv.Stats().CacheHits
			r := exchange(hs, route.method, route.path, route.body, c.inm)
			if r.err != nil {
				t.Fatal(r.err)
			}
			if r.resp.StatusCode != c.status {
				t.Errorf("%s with %s: status %d, want %d", route.method, c.what, r.resp.StatusCode, c.status)
			}
			if (len(r.body) == 0) != (c.status == http.StatusNotModified) {
				t.Errorf("%s with %s: status %d came with %d body bytes", route.method, c.what, r.resp.StatusCode, len(r.body))
			}
			if r.resp.Header.Get("ETag") != etag || r.resp.Header.Get(server.CacheHeader) != "hit" {
				t.Errorf("%s with %s: ETag %s, %s %q", route.method, c.what,
					r.resp.Header.Get("ETag"), server.CacheHeader, r.resp.Header.Get(server.CacheHeader))
			}
			if got := srv.Stats().CacheHits - hits; got != 1 {
				t.Errorf("%s with %s: counted %d cache hits, want 1", route.method, c.what, got)
			}
		}
	}
}
