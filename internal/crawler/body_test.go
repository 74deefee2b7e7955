package crawler

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gaugenn/gaugenn/internal/android/apk"
)

// endless is a body that never ends, counting the bytes read from it.
type endless struct{ n int64 }

func (e *endless) Read(p []byte) (int, error) {
	clear(p)
	e.n += int64(len(p))
	return len(p), nil
}

// TestReadBodyCapped pins readBody's memory bound: whatever the
// Content-Length says, no body larger than the limit is buffered, and
// every over-limit body fails with the typed ErrBodyTooLarge.
func TestReadBodyCapped(t *testing.T) {
	const limit = 64
	body := func(n int) []byte { return bytes.Repeat([]byte{'x'}, n) }
	for _, tc := range []struct {
		name          string
		size          int
		contentLength int64
		tooLarge      bool
	}{
		{"declared, at the limit", limit, limit, false},
		{"missing length, at the limit", limit, -1, false},
		{"missing length, over the limit", limit + 1, -1, true},
		{"body longer than declared, within the limit", 40, 10, false},
		{"body longer than declared, over the limit", limit + 1, 10, true},
		{"declared over the limit", limit + 1, limit + 1, true},
	} {
		got, err := readBody(bytes.NewReader(body(tc.size)), tc.contentLength, limit)
		if tc.tooLarge {
			if !errors.Is(err, ErrBodyTooLarge) || got != nil {
				t.Errorf("%s: got %d bytes, err %v; want ErrBodyTooLarge", tc.name, len(got), err)
			}
			continue
		}
		if err != nil || !bytes.Equal(got, body(tc.size)) {
			t.Errorf("%s: got %d bytes, err %v; want the %d-byte body", tc.name, len(got), err, tc.size)
		}
	}

	// An endless body without a length is cut one byte past the limit.
	r := &endless{}
	if _, err := readBody(r, -1, limit); !errors.Is(err, ErrBodyTooLarge) {
		t.Fatalf("endless body: err %v, want ErrBodyTooLarge", err)
	}
	if r.n > 2*limit {
		t.Fatalf("endless body: read %d bytes for a %d-byte limit", r.n, limit)
	}
}

// TestOversizedBodyNotRetried checks the wiring: a response declaring more
// than the base-APK ceiling fails the request with ErrBodyTooLarge, once,
// without buffering it or retrying.
func TestOversizedBodyNotRetried(t *testing.T) {
	var count atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		count.Add(1)
		w.Header().Set("Content-Length", strconv.Itoa(apk.MaxBaseAPKSize+1))
		_, _ = io.WriteString(w, "PK")
	}))
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL)
	c.Retries = 3
	c.RetryDelay = time.Millisecond
	if _, err := c.DownloadAPK(context.Background(), "com.example.bomb"); !errors.Is(err, ErrBodyTooLarge) {
		t.Fatalf("DownloadAPK: err %v, want ErrBodyTooLarge", err)
	}
	if count.Load() != 1 {
		t.Fatalf("requests = %d, want 1 (no retry)", count.Load())
	}
}
