package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/gaugenn/gaugenn/internal/analysis"
	"github.com/gaugenn/gaugenn/internal/index"
	"github.com/gaugenn/gaugenn/internal/store"
)

// TestIndexedResponsesMatchCorpusScan pins the query engine's contract:
// every indexed endpoint answers byte-identically to JSON rendered from
// the corpus-scan reference functions in internal/analysis
// (Corpus.Dataset, TemporalDiff, LoadModelSummary) over the persisted
// corpora.
func TestIndexedResponsesMatchCorpusScan(t *testing.T) {
	st, id, res := persistedStudy(t)
	srv := httptest.NewServer(New(st).Handler())
	defer srv.Close()

	studies, err := st.Studies()
	if err != nil {
		t.Fatal(err)
	}
	entry := studies[0]
	corpora := map[string]*analysis.Corpus{}
	snaps := map[string]studySnapshot{}
	for label, key := range entry.Snapshots {
		c := decodedCorpus(t, st, key)
		corpora[label] = c
		snaps[label] = studySnapshot{CorpusKey: key, Dataset: c.Dataset()}
	}
	rows := analysis.TemporalDiff(corpora["2020"], corpora["2021"])
	if rows == nil {
		rows = []analysis.ChurnRow{}
	}
	want := map[string]any{
		"/api/studies":       studies,
		"/api/studies/" + id: map[string]any{"study": entry, "snapshots": snaps},
	}
	for _, args := range [][2]string{{id + ":2020", id + ":2021"}, {id, id}} {
		path := fmt.Sprintf("/api/diff?from=%s&to=%s", args[0], args[1])
		want[path] = diffResponse{From: args[0], To: args[1], Rows: rows}
	}
	for _, c := range []*analysis.Corpus{res.Corpus20, res.Corpus21} {
		for _, u := range c.SortedUniques() {
			ms, ok, err := analysis.LoadModelSummary(st, u.Checksum)
			if err != nil || !ok {
				t.Fatalf("LoadModelSummary(%s): ok=%v err=%v", u.Checksum, ok, err)
			}
			want["/api/models/"+string(u.Checksum)] = ms
		}
	}
	for path, v := range want {
		ref := httptest.NewRecorder()
		writeJSON(ref, http.StatusOK, v)
		if got := get(t, srv, path, 200); !bytes.Equal(got, ref.Body.Bytes()) {
			t.Errorf("GET %s diverges from the corpus-scan reference:\nindexed: %s\nscan:    %s", path, got, ref.Body.Bytes())
		}
	}
}

// decodedCorpus loads one persisted corpus snapshot straight from the
// store, bypassing the server.
func decodedCorpus(t *testing.T, st *store.Store, key string) *analysis.Corpus {
	t.Helper()
	blob, ok, err := st.Get(store.KindCorpus, key)
	if err != nil || !ok {
		t.Fatalf("corpus %s: ok=%v err=%v", key, ok, err)
	}
	c, err := analysis.DecodeCorpus(blob)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestWarmPathDecodesNoCorpus asserts the acceptance criterion directly:
// with indexes persisted (the study engine writes them at persist time),
// /healthz, /api/studies, /api/studies/{id}, /api/models/{checksum} and
// /api/diff answer without decoding any corpus; only /tables still pays
// the decode.
func TestWarmPathDecodesNoCorpus(t *testing.T) {
	st, id, res := persistedStudy(t)
	s := New(st)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	sum := res.Corpus21.SortedUniques()[0].Checksum
	before := corpusDecodes.Load()
	get(t, srv, "/healthz", 200)
	get(t, srv, "/api/studies", 200)
	get(t, srv, "/api/studies/"+id, 200)
	get(t, srv, "/api/models/"+string(sum), 200)
	get(t, srv, fmt.Sprintf("/api/diff?from=%s&to=%s", id, id), 200)
	if d := corpusDecodes.Load() - before; d != 0 {
		t.Fatalf("warm path decoded %d corpora, want 0", d)
	}
	if n := s.corpora.len(); n != 0 {
		t.Fatalf("warm path memoised %d corpora, want 0", n)
	}
	// Tables are the one read that still renders from decoded corpora.
	get(t, srv, "/api/studies/"+id+"/tables", 200)
	if d := corpusDecodes.Load() - before; d == 0 {
		t.Fatal("tables render decoded no corpus — counter not wired?")
	}
}

// TestIndexSelfHeals: a corrupt (and separately, a missing) index blob is
// rebuilt from the corpus on first read, served correctly, and
// re-persisted so the next cold process loads it clean.
func TestIndexSelfHeals(t *testing.T) {
	st, id, res := persistedStudy(t)
	key := res.Persist.CorpusKeys["2021"]
	path := filepath.Join(st.Dir(), store.KindIndex, key[:2], key)

	for name, mangle := range map[string]func() error{
		"corrupt": func() error { return os.WriteFile(path, []byte("junk, not a sealed index"), 0o644) },
		"missing": func() error { return os.Remove(path) },
	} {
		if err := mangle(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, ok := index.Load(st, key); ok {
			t.Fatalf("%s index blob still loads", name)
		}
		s := New(st) // fresh caches: the read must hit the damaged blob
		srv := httptest.NewServer(s.Handler())
		body := get(t, srv, "/api/studies/"+id, 200)
		srv.Close()
		if want := res.Corpus21.Dataset(); !stringsContainDataset(body, want.TotalModels, want.UniqueModels) {
			t.Fatalf("%s: healed response lacks dataset stats: %s", name, body)
		}
		ix, ok := index.Load(st, key)
		if !ok {
			t.Fatalf("%s index not re-persisted after self-heal", name)
		}
		if ix.Dataset != res.Corpus21.Dataset() {
			t.Fatalf("%s: re-persisted index stats %+v diverge", name, ix.Dataset)
		}
	}
}

// stringsContainDataset loosely checks a study-detail body carries the
// expected counts (the byte-identical contract is pinned elsewhere).
func stringsContainDataset(body []byte, total, unique int) bool {
	s := string(body)
	return strings.Contains(s, fmt.Sprintf(`"TotalModels": %d`, total)) &&
		strings.Contains(s, fmt.Sprintf(`"UniqueModels": %d`, unique))
}

// TestETagRevalidation: every indexed GET answers with a strong ETag and
// Cache-Control, and revalidates an If-None-Match hit as a 304 with an
// empty body — including weak-validator and list forms.
func TestETagRevalidation(t *testing.T) {
	st, id, res := persistedStudy(t)
	srv := httptest.NewServer(New(st).Handler())
	defer srv.Close()

	paths := []string{
		"/api/studies",
		"/api/studies/" + id,
		"/api/studies/" + id + "/tables",
		"/api/models/" + string(res.Corpus21.SortedUniques()[0].Checksum),
		fmt.Sprintf("/api/diff?from=%s&to=%s", id, id),
	}
	for _, path := range paths {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		etag := resp.Header.Get("ETag")
		if resp.StatusCode != 200 || etag == "" {
			t.Fatalf("GET %s = %d, etag %q", path, resp.StatusCode, etag)
		}
		if cc := resp.Header.Get("Cache-Control"); cc != "public, max-age=5" {
			t.Fatalf("GET %s Cache-Control = %q", path, cc)
		}
		for _, match := range []string{etag, "W/" + etag, `"stale-one", ` + etag, "*"} {
			req, _ := http.NewRequest("GET", srv.URL+path, nil)
			req.Header.Set("If-None-Match", match)
			r2, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(r2.Body)
			r2.Body.Close()
			if r2.StatusCode != http.StatusNotModified || len(body) != 0 {
				t.Fatalf("GET %s If-None-Match %q = %d with %d body bytes, want 304 empty",
					path, match, r2.StatusCode, len(body))
			}
			if r2.Header.Get("ETag") != etag {
				t.Fatalf("304 for %s lost its ETag", path)
			}
		}
		// A non-matching validator still gets the full representation.
		req, _ := http.NewRequest("GET", srv.URL+path, nil)
		req.Header.Set("If-None-Match", `"0000000000000000"`)
		r3, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(r3.Body)
		r3.Body.Close()
		if r3.StatusCode != 200 || len(body) == 0 {
			t.Fatalf("GET %s with stale validator = %d, %d bytes", path, r3.StatusCode, len(body))
		}
	}
	// Health is probe-cacheable for a second but carries no ETag (its
	// census is time-based, not content-addressed).
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if cc := resp.Header.Get("Cache-Control"); cc != "public, max-age=1" {
		t.Fatalf("healthz Cache-Control = %q", cc)
	}
}

// TestCensusMemo: /healthz's census is computed at most once per TTL and
// recomputed after expiry.
func TestCensusMemo(t *testing.T) {
	st, _, _ := persistedStudy(t)
	s := New(st, WithCensusTTL(time.Hour))
	first, err := s.censusCounts()
	if err != nil {
		t.Fatal(err)
	}
	again, err := s.censusCounts()
	if err != nil {
		t.Fatal(err)
	}
	if reflect.ValueOf(first).Pointer() != reflect.ValueOf(again).Pointer() {
		t.Fatal("census recomputed within TTL")
	}
	s.census.Lock()
	s.census.at = time.Time{} // force expiry
	s.census.Unlock()
	refreshed, err := s.censusCounts()
	if err != nil {
		t.Fatal(err)
	}
	if reflect.ValueOf(first).Pointer() == reflect.ValueOf(refreshed).Pointer() {
		t.Fatal("census not recomputed after TTL expiry")
	}
	if !reflect.DeepEqual(first, refreshed) {
		t.Fatalf("census drifted over an unchanged store: %v != %v", first, refreshed)
	}
}

// TestManifestCacheInvalidation: the parsed manifest is reused while the
// file's (size, mtime) holds and reparsed when the log grows.
func TestManifestCacheInvalidation(t *testing.T) {
	st, id, _ := persistedStudy(t)
	s := New(st)
	first, err := s.studies()
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 1 || first[0].ID != id {
		t.Fatalf("studies: %+v", first)
	}
	again, err := s.studies()
	if err != nil {
		t.Fatal(err)
	}
	if reflect.ValueOf(first).Pointer() != reflect.ValueOf(again).Pointer() {
		t.Fatal("manifest reparsed while file unchanged")
	}
	// Appending an entry grows the file; the next read must see it.
	if err := st.AppendManifest(store.ManifestEntry{ID: "seed1-scale0.001"}); err != nil {
		t.Fatal(err)
	}
	grown, err := s.studies()
	if err != nil {
		t.Fatal(err)
	}
	if len(grown) != 2 {
		t.Fatalf("grown manifest served stale: %+v", grown)
	}
}
