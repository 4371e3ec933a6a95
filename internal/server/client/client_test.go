package client

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

func response(declared int64, n int) *http.Response {
	return &http.Response{ContentLength: declared, Body: io.NopCloser(bytes.NewReader(make([]byte, n)))}
}

// TestReadBodySizesItsBufferOnce: a declared length costs a cold client at
// most one allocation — the buffer, sized once — and a warm one, whose
// pooled buffer already holds a body that big, none; an undeclared length
// grows the buffer. Both read up to the limit exactly.
func TestReadBodySizesItsBufferOnce(t *testing.T) {
	const limit = 1 << 20
	for _, n := range []int{0, 1, 344_111, limit} {
		const runs = 10
		resps := make([]*http.Response, 2*(runs+1))
		for i := range resps {
			resps[i] = response(int64(n), n)
		}
		var warm []byte
		for _, c := range []struct {
			name  string
			buf   func() []byte
			limit float64
		}{
			{"cold", func() []byte { return nil }, 1},
			{"warm", func() []byte { return warm }, 0},
		} {
			var err error
			allocs := testing.AllocsPerRun(runs, func() {
				var body []byte
				body, err = readBody(c.buf(), resps[0], limit)
				resps = resps[1:]
				if err == nil && len(body) != n {
					err = fmt.Errorf("read %d", len(body))
				}
				warm = body
			})
			if err != nil {
				t.Fatalf("%s, declared %d bytes: %v", c.name, n, err)
			}
			if allocs > c.limit {
				t.Errorf("%s, declared %d bytes: %v allocations, want at most %v", c.name, n, allocs, c.limit)
			}
		}
		body, err := readBody(nil, response(-1, n), limit)
		if err != nil || len(body) != n {
			t.Errorf("undeclared %d bytes: read %d, %v", n, len(body), err)
		}
	}
}

// TestReadBodyRefusesOversizedResponses: a body over the limit is an error
// that says so — from Content-Length before a byte is read, from reaching
// the limit when the length was not declared — where it used to be cut at
// the limit and handed to the JSON decoder.
func TestReadBodyRefusesOversizedResponses(t *testing.T) {
	const limit = 1 << 20
	unread := response(limit+1, 0)
	if _, err := readBody(nil, unread, limit); err == nil || err.Error() != "response of 1048577 bytes exceeds the 1 MiB limit" {
		t.Errorf("declared 1 MiB + 1: %v", err)
	}
	if _, err := readBody(nil, response(-1, limit+1), limit); err == nil || err.Error() != "response of more than 1048576 bytes exceeds the 1 MiB limit" {
		t.Errorf("undeclared 1 MiB + 1: %v", err)
	}

	// And through the client, at its real limit: the server only declares
	// the length, so nothing of that size is ever allocated.
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "67108865")
		w.WriteHeader(http.StatusOK)
	}))
	defer hs.Close()
	_, err := New(hs.URL, hs.Client()).Stats(context.Background())
	if err == nil || !strings.Contains(err.Error(), "response of 67108865 bytes exceeds the 64 MiB limit") {
		t.Errorf("a response declaring 64 MiB + 1: %v", err)
	}
}

// TestHostileGridFailsWithoutAllocating: a result whose time axis claims
// four billion points for a three-value series is an error, reached
// without allocating anything of the size the grid names.
func TestHostileGridFailsWithoutAllocating(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"kind":"spec","digest":"d","version":"v","runs":[{"label":"x","digest":"0",`+
			`"queue_pkts_t":{"t0":0,"dt":1,"n":4000000000},"queue_pkts_v":[1,2,3]}]}`)
	}))
	defer hs.Close()
	cl := New(hs.URL, hs.Client())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := cl.SubmitSpec(context.Background(), []byte(`{}`))
	if err == nil {
		_, err = Runs(res)
	}
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "mismatched series lengths") {
		t.Errorf("a grid of 4e9 points over 3 values: %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("failing on it allocated %d bytes", grew)
	}
}
