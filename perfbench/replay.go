package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
)

// A recording holds one synthetic Play Store snapshot's HTTP responses,
// keyed by method and request URI (the store's port is not part of the
// key: every run listens on a fresh one). Recording once in set-up and
// replaying in the timed phases moves playstore.BuildAPK — the cost of
// generating the synthetic store — out of every measured study.
type recording struct {
	mu      sync.Mutex
	entries map[string]*recorded
}

type recorded struct {
	status int
	header http.Header
	body   []byte
}

func newRecording() *recording { return &recording{entries: map[string]*recorded{}} }

func requestKey(req *http.Request) string { return req.Method + " " + req.URL.RequestURI() }

// bytes reports the recorded body volume.
func (r *recording) bytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n int64
	for _, e := range r.entries {
		n += int64(len(e.body))
	}
	return n
}

// digest hashes every entry in key order; two recordings of the same
// seed must digest equal.
func (r *recording) digest() [32]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	keys := make([]string, 0, len(r.entries))
	for k := range r.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		e := r.entries[k]
		fmt.Fprintf(h, "%s\x00%d\x00%d\x00", k, e.status, len(e.body))
		h.Write(e.body)
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

// recorder forwards to a live transport and keeps every response.
type recorder struct {
	next http.RoundTripper
	rec  *recording
}

func (t *recorder) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	t.rec.mu.Lock()
	t.rec.entries[requestKey(req)] = &recorded{status: resp.StatusCode, header: resp.Header.Clone(), body: body}
	t.rec.mu.Unlock()
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// replayer answers from a finished recording and never touches the
// network. A request the recording does not hold is a miss: it is
// counted and answered 410, which the crawler treats as a permanent
// per-app failure, so a miss shows as a failed check instead of a crash
// or a retry storm.
type replayer struct {
	rec *recording

	requests atomic.Int64
	bodyB    atomic.Int64
	misses   atomic.Int64
}

func (t *replayer) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		req.Body.Close()
	}
	t.requests.Add(1)
	e, ok := t.rec.entries[requestKey(req)]
	if !ok {
		t.misses.Add(1)
		e = &recorded{status: http.StatusGone, header: http.Header{}, body: []byte("replay miss\n")}
	}
	t.bodyB.Add(int64(len(e.body)))
	return &http.Response{
		Status:        fmt.Sprintf("%d %s", e.status, http.StatusText(e.status)),
		StatusCode:    e.status,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        e.header.Clone(),
		Body:          io.NopCloser(bytes.NewReader(e.body)),
		ContentLength: int64(len(e.body)),
		Request:       req,
	}, nil
}
