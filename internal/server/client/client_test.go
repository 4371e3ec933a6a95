package client

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func response(declared int64, n int) *http.Response {
	return &http.Response{ContentLength: declared, Body: io.NopCloser(bytes.NewReader(make([]byte, n)))}
}

// TestReadBodySizesItsBufferOnce: a declared length is read into a buffer
// allocated at that length (plus the slack ReadFrom needs to see EOF), an
// undeclared one into a buffer that grows; both up to the limit exactly.
func TestReadBodySizesItsBufferOnce(t *testing.T) {
	const limit = 1 << 20
	for _, n := range []int{0, 1, 344_111, limit} {
		body, err := readBody(response(int64(n), n), limit)
		if err != nil || len(body) != n {
			t.Fatalf("declared %d bytes: read %d, %v", n, len(body), err)
		}
		if cap(body) != n+bytes.MinRead {
			t.Errorf("declared %d bytes: buffer of %d, want %d — it was regrown", n, cap(body), n+bytes.MinRead)
		}
		body, err = readBody(response(-1, n), limit)
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
	if _, err := readBody(unread, limit); err == nil || err.Error() != "response of 1048577 bytes exceeds the 1 MiB limit" {
		t.Errorf("declared 1 MiB + 1: %v", err)
	}
	if _, err := readBody(response(-1, limit+1), limit); err == nil || err.Error() != "response of more than 1048576 bytes exceeds the 1 MiB limit" {
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
