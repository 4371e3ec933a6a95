package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"

	"hwatch/internal/scenario"
	"hwatch/internal/server"
	"hwatch/internal/server/client"
)

// clients is the closed-loop load: each client sends its next request only
// after the previous reply, so at most this many connections are open.
const clients = maxProcs

// daemon is an in-process hwatchd on a loopback port plus the HTTP
// transport its clients share.
type daemon struct {
	srv    *server.Server
	http   *http.Server
	served chan struct{}
	tp     *http.Transport
	base   string
}

func startDaemon(ctx context.Context) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		srv:    server.New(ctx, server.Config{Parallel: maxProcs}),
		served: make(chan struct{}),
		tp:     &http.Transport{MaxConnsPerHost: clients},
		base:   "http://" + ln.Addr().String(),
	}
	d.http = &http.Server{Handler: d.srv.Handler()}
	go func() {
		defer close(d.served)
		d.http.Serve(ln) // returns ErrServerClosed on close
	}()
	return d, nil
}

// close stops the listener, the jobs and the idle connections, and waits
// for the serving goroutine.
func (d *daemon) close() {
	d.tp.CloseIdleConnections()
	d.http.Close()
	<-d.served
	d.srv.Close()
}

// client returns a client of the daemon. On a traced run its transport
// records the raw exchange (request sent → last body byte read) as a child
// of the request span carried in the context.
func (d *daemon) client(tr *tracer) *client.Client {
	var rt http.RoundTripper = d.tp
	if tr != nil {
		rt = &tracedTransport{base: d.tp, tr: tr}
	}
	return client.New(d.base, &http.Client{Transport: rt})
}

type spanKey struct{}

type tracedTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, _ := req.Context().Value(spanKey{}).(int)
	id := t.tr.begin("http.exchange", parent)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.tr.end(id)
		return nil, err
	}
	resp.Body = &tracedBody{ReadCloser: resp.Body, tr: t.tr, id: id}
	return resp, nil
}

// tracedBody closes the exchange span when the body has been read to its
// end (or is abandoned), and counts the bytes.
type tracedBody struct {
	io.ReadCloser
	tr   *tracer
	id   int
	done bool
}

func (b *tracedBody) finish() {
	if !b.done {
		b.done = true
		b.tr.end(b.id)
	}
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.tr.addRespBytes(int64(n))
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *tracedBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

// job is one generated submission and what its result must be.
type job struct {
	key    string
	req    *server.JobRequest
	digest string   // content address the server must answer with ("" = not a spec job)
	runs   []string // run digests a cache hit must carry (nil = not checked)
}

// specJob generates a dumbbell spec job in the shape of the e2e suite's
// quickSpec: hwatch shims, long and short sources, one short simulation.
func specJob(key string, sources int, seed, durationMs, drainMs int64, epochs int) (job, error) {
	raw := []byte(fmt.Sprintf(`{"kind":"dumbbell","scheme":"hwatch","long_sources":%d,"short_sources":%d,"seed":%d,"duration_ms":%d,"drain_after_ms":%d,"epochs":%d}`,
		sources, sources, seed, durationMs, drainMs, epochs))
	fs, err := scenario.ParseSpec(raw)
	if err != nil {
		return job{}, err
	}
	digest, err := fs.CanonicalDigest()
	if err != nil {
		return job{}, err
	}
	return job{key: key, req: &server.JobRequest{Kind: "spec", Spec: raw}, digest: digest}, nil
}

// submit is one operation: submit→result, then everything a careful client
// checks — the cached flag, the content address, every run digest
// re-verified from the wire form.
func submit(ctx context.Context, cl *client.Client, tr *tracer, j job, wantCached bool) op {
	o := op{key: j.key, simulated: !wantCached}
	id := tr.begin("server.request", 0)
	defer tr.end(id)
	if tr != nil {
		ctx = context.WithValue(ctx, spanKey{}, id)
	}
	res, err := cl.Submit(ctx, j.req)
	if err != nil {
		o.err = err
		return o
	}
	vid := tr.begin("client.runs", id)
	runs, err := client.Runs(res)
	tr.end(vid)
	switch {
	case err != nil:
		o.err = err
	case res.Cached != wantCached:
		o.err = fmt.Errorf("cached is %v, want %v", res.Cached, wantCached)
	case j.digest != "" && res.Digest != j.digest:
		o.err = fmt.Errorf("server addressed the job as %s, its canonical digest is %s", res.Digest, j.digest)
	case j.runs != nil && len(j.runs) != len(runs):
		o.err = fmt.Errorf("cache hit carries %d runs, the cached job ran %d", len(runs), len(j.runs))
	}
	for i, r := range runs {
		s := summarize(r, res.Runs[i].Digest)
		if o.err == nil && j.runs != nil && j.runs[i] != s.Digest {
			o.err = fmt.Errorf("cache hit run %q digests %s, the cached job's run %s", s.Label, s.Digest, j.runs[i])
		}
		o.runs = append(o.runs, s)
	}
	return o
}

// drive runs the closed loop: client c submits plan[c] in order. Results
// come back in plan order whatever the interleaving was.
func drive(ctx context.Context, d *daemon, tr *tracer, plan [][]job, wantCached bool) []op {
	out := make([][]op, len(plan))
	var wg sync.WaitGroup
	for c := range plan {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := d.client(tr)
			for _, j := range plan[c] {
				out[c] = append(out[c], submit(ctx, cl, tr, j, wantCached))
			}
		}(c)
	}
	wg.Wait()
	var ops []op
	for _, o := range out {
		ops = append(ops, o...)
	}
	return ops
}

// goldenOverHTTP is the service workloads' golden-scale twin: Fig. 8 at
// 0.1 as a job, so the digests cross WireRun, HTTP and client.Runs.
func goldenOverHTTP(ctx context.Context, d *daemon) (map[string]string, error) {
	res, err := d.client(nil).Submit(ctx, goldenJob)
	if err != nil {
		return nil, err
	}
	runs, err := client.Runs(res)
	if err != nil {
		return nil, err
	}
	got := make(map[string]string, len(runs))
	for _, r := range runs {
		got["fig8/"+strings.ToLower(r.Label)] = r.DigestHex()
	}
	return got, nil
}

var goldenJob = &server.JobRequest{Kind: "fig", Name: "fig8", Scale: 0.1}

// statsDelta is what the server counted between two snapshots.
func statsDelta(a, b server.Stats) server.Stats {
	b.Executed -= a.Executed
	b.CacheHits -= a.CacheHits
	b.Deduped -= a.Deduped
	b.Rejected -= a.Rejected
	return b
}

// coldInstance is service_cold: every pass starts a fresh daemon, so every
// submission finds an empty cache and runs its simulation.
type coldInstance struct {
	plan [][]job
	last server.Stats
}

func buildServiceCold(_ context.Context, seed int64, tiny bool) (instance, error) {
	perClient, sources, dur, drain, epochs := 2, 5, int64(150), int64(100), 1
	if tiny {
		perClient, sources, dur, drain, epochs = 1, 2, 120, 30, 1
	}
	in := &coldInstance{plan: make([][]job, clients)}
	for c := range in.plan {
		for i := 0; i < perClient; i++ {
			n := c*perClient + i
			key := fmt.Sprintf("service_cold/%d", n)
			j, err := specJob(key, sources, mixSeed(42+int64(n), key, seed), dur, drain, epochs)
			if err != nil {
				return nil, err
			}
			in.plan[c] = append(in.plan[c], j)
		}
	}
	return in, nil
}

func (in *coldInstance) golden(ctx context.Context) (map[string]string, error) {
	d, err := startDaemon(ctx)
	if err != nil {
		return nil, err
	}
	defer d.close()
	return goldenOverHTTP(ctx, d)
}

func (in *coldInstance) pass(ctx context.Context, tr *tracer) []op {
	d, err := startDaemon(ctx)
	if err != nil {
		return []op{{key: "start", err: err}}
	}
	defer d.close()
	ops := drive(ctx, d, tr, in.plan, false)
	in.last = d.srv.Stats()
	return ops
}

func (in *coldInstance) passStats() server.Stats { return in.last }

func (in *coldInstance) close() {}

// hitInstance is service_hit: one daemon whose cache the set-up primed;
// every submission of a pass is a cache hit and no simulation runs.
type hitInstance struct {
	d    *daemon
	plan [][]job
	last server.Stats
}

func buildServiceHit(ctx context.Context, seed int64, tiny bool) (instance, error) {
	// The large result is the golden-scale figure itself: four runs with
	// their full series. The small ones are short two-source simulations;
	// only the size of what they left in the cache matters here.
	perClient, small := 150, 8
	large := job{key: "service_hit/fig8", req: goldenJob}
	if tiny {
		perClient, small = 4, 2
	}
	d, err := startDaemon(ctx)
	if err != nil {
		return nil, err
	}
	jobs := []job{large}
	for i := 0; i < small; i++ {
		key := fmt.Sprintf("service_hit/%d", i)
		j, err := specJob(key, 2, mixSeed(42+int64(i), key, seed), 120, 30, 1)
		if err != nil {
			d.close()
			return nil, err
		}
		jobs = append(jobs, j)
	}
	// Prime the cache through the same closed loop, and keep each job's
	// run digests: a hit must hand back exactly what the job computed.
	prime := make([][]job, clients)
	for i, j := range jobs {
		prime[i%clients] = append(prime[i%clients], j)
	}
	digests := map[string][]string{}
	for _, o := range drive(ctx, d, nil, prime, false) {
		if o.err != nil {
			d.close()
			return nil, fmt.Errorf("priming %s: %w", o.key, o.err)
		}
		for _, r := range o.runs {
			digests[o.key] = append(digests[o.key], r.Digest)
		}
	}
	for i := range jobs {
		jobs[i].runs = digests[jobs[i].key]
	}
	// One request in four asks for the large result, the others walk the
	// small ones.
	in := &hitInstance{d: d, plan: make([][]job, clients)}
	for c := range in.plan {
		for i := 0; i < perClient; i++ {
			j := jobs[0]
			if i%4 != 3 {
				j = jobs[1+(c*perClient+i)%small]
			}
			in.plan[c] = append(in.plan[c], j)
		}
	}
	return in, nil
}

func (in *hitInstance) golden(ctx context.Context) (map[string]string, error) {
	return goldenOverHTTP(ctx, in.d)
}

func (in *hitInstance) pass(ctx context.Context, tr *tracer) []op {
	before := in.d.srv.Stats()
	ops := drive(ctx, in.d, tr, in.plan, true)
	in.last = statsDelta(before, in.d.srv.Stats())
	return ops
}

func (in *hitInstance) passStats() server.Stats { return in.last }

func (in *hitInstance) close() { in.d.close() }
