// Package client is the embeddable Go client for hwatchd. It submits
// jobs, honours the server's 429/Retry-After backpressure under the
// caller's context, and reconstructs scenario.Run values from the wire —
// re-verifying each run's digest so a corrupted transfer cannot
// masquerade as a result.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"hwatch/internal/scenario"
	"hwatch/internal/server"
)

// Client talks to one hwatchd instance. It is safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client
	// bodies holds response buffers (*[]byte) between requests. Every
	// decoded value copies what it keeps out of the body, so a buffer is
	// free again as soon as the body is decoded, and a warm client reads a
	// response without allocating for it.
	bodies sync.Pool
}

// New builds a client for the server at base (e.g. "http://127.0.0.1:8080").
// hc may be nil for http.DefaultClient.
func New(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: base, hc: hc}
}

// apiError is a non-2xx response decoded from the server's error JSON.
type apiError struct {
	Status int
	Msg    string
}

func (e *apiError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.Status, e.Msg)
}

func (c *Client) post(ctx context.Context, path string, body any, out any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(raw))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req, out)
}

func (c *Client) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	return c.do(req, out)
}

// maxResponseBytes bounds a response body; a full-scale figure result is
// a few MiB.
const maxResponseBytes = 64 << 20

// readBody reads a response body of at most limit bytes into buf's
// backing array and returns the filled slice. A response that declares its
// length — every result does — grows buf at most once, to that length
// (plus the room to see EOF), and not at all when buf is already that big;
// an undeclared length only grows it. A longer body is an error naming the
// limit, never a truncated body handed to the JSON decoder. buf comes back
// on error too, so its array can be reused.
func readBody(buf []byte, resp *http.Response, limit int64) ([]byte, error) {
	if resp.ContentLength > limit {
		return buf, fmt.Errorf("response of %d bytes exceeds the %d MiB limit", resp.ContentLength, limit>>20)
	}
	if need := int(max(resp.ContentLength, 0)) + bytes.MinRead; cap(buf) < need {
		buf = make([]byte, 0, need)
	}
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, bytes.MinRead)
		}
		// Never read past limit+1 bytes: one more than the limit is
		// enough to know the body is too long.
		n, err := resp.Body.Read(buf[len(buf):min(int64(cap(buf)), limit+1)])
		buf = buf[:len(buf)+n]
		if int64(len(buf)) > limit {
			return buf, fmt.Errorf("response of more than %d bytes exceeds the %d MiB limit", limit, limit>>20)
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

func (c *Client) do(req *http.Request, out any) error {
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf, _ := c.bodies.Get().(*[]byte)
	if buf == nil {
		buf = new([]byte)
	}
	defer c.bodies.Put(buf)
	*buf, err = readBody(*buf, resp, maxResponseBytes)
	if err != nil {
		return err
	}
	body := *buf
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		msg := string(bytes.TrimSpace(body))
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			msg = e.Error
		}
		apiErr := &apiError{Status: resp.StatusCode, Msg: msg}
		if resp.StatusCode == http.StatusTooManyRequests {
			delay := 1
			if v, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && v > 0 {
				delay = v
			}
			return &retryError{after: time.Duration(delay) * time.Second, cause: apiErr}
		}
		return apiErr
	}
	switch out := out.(type) {
	case nil:
		return nil
	case *server.Result:
		// A result decodes in one pass: json.Unmarshal would first scan
		// the whole body once more only to validate it.
		if err := out.UnmarshalJSON(body); err != nil {
			return err
		}
		out.Cached = resp.Header.Get(server.CacheHeader) == "hit"
		return nil
	}
	return json.Unmarshal(body, out)
}

// retryError signals a 429: retry after the server's suggested delay.
type retryError struct {
	after time.Duration
	cause *apiError
}

func (e *retryError) Error() string { return e.cause.Error() }

// Submit posts one job with wait=1 and blocks until the server returns
// its result. On 429 it sleeps the server's Retry-After and retries, for
// as long as ctx allows — the client is the polite tenant the admission
// control assumes.
func (c *Client) Submit(ctx context.Context, req *server.JobRequest) (*server.Result, error) {
	for {
		var res server.Result
		err := c.post(ctx, "/api/v1/jobs?wait=1", req, &res)
		if err == nil {
			return &res, nil
		}
		re, ok := err.(*retryError)
		if !ok {
			return nil, err
		}
		select {
		case <-time.After(re.after):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// Run submits one job and returns what running its target locally
// returns, its runs (each digest re-verified by Runs) and its rows, plus a
// note naming the server, whether the result was a cache hit and the code
// version that computed it.
func (c *Client) Run(ctx context.Context, req *server.JobRequest) ([]*scenario.Run, []string, string, error) {
	res, err := c.Submit(ctx, req)
	if err != nil {
		return nil, nil, "", err
	}
	runs, err := Runs(res)
	return runs, res.Rows, fmt.Sprintf("via %s (cached %v, version %s)", c.base, res.Cached, res.Version), err
}

// SubmitSpec is Submit for a raw scenario spec (the hwatchsim spec:<file> JSON).
func (c *Client) SubmitSpec(ctx context.Context, spec []byte) (*server.Result, error) {
	return c.Submit(ctx, &server.JobRequest{Kind: "spec", Spec: spec})
}

// Digest asks the server for a job's content address without running it.
func (c *Client) Digest(ctx context.Context, req *server.JobRequest) (string, error) {
	var out struct {
		Digest string `json:"digest"`
	}
	if err := c.post(ctx, "/api/v1/digest", req, &out); err != nil {
		return "", err
	}
	return out.Digest, nil
}

// Result fetches a cached result by digest; ok is false when the server
// has no entry for it at its code version.
func (c *Client) Result(ctx context.Context, digest string) (*server.Result, bool, error) {
	var res server.Result
	err := c.get(ctx, "/api/v1/results/"+digest, &res)
	if err == nil {
		return &res, true, nil
	}
	if ae, isAPI := err.(*apiError); isAPI && ae.Status == http.StatusNotFound {
		return nil, false, nil
	}
	return nil, false, err
}

// Stats fetches the server's counters.
func (c *Client) Stats(ctx context.Context) (*server.Stats, error) {
	var st server.Stats
	if err := c.get(ctx, "/api/v1/stats", &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Runs reconstructs the result's scenario runs, re-verifying each wire
// digest against the recomputed one. Runs sampled on one time grid share
// one timestamp array, each through a window whose capacity is its length:
// an append to one run's series copies and leaves the others be.
func Runs(res *server.Result) ([]*scenario.Run, error) {
	return res.ScenarioRuns()
}
