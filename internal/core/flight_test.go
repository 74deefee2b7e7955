package core

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/gaugenn/gaugenn/internal/store"
	"github.com/gaugenn/gaugenn/internal/testutil"
)

// The per-APK report single-flight: the 2020 and 2021 pipelines run at
// the same time and share most APKs, and each distinct APK must still be
// extracted exactly once per run. These tests stay at scale 0.02 or below
// because the package already runs long under -race.

// TestReportSingleFlightExtractsEachAPKOnce runs cold Resume studies over
// HTTP, where the two snapshots' crawls overlap in time, at several
// worker counts: every extraction lands as exactly one report blob,
// every crawled app is either extracted or served warm, and the corpora
// do not depend on the worker count.
func TestReportSingleFlightExtractsEachAPKOnce(t *testing.T) {
	var refKeys map[string]string
	for _, workers := range []int{1, 4, 8} {
		cfg := DefaultConfig(61, 0.02)
		cfg.Workers = workers
		cfg.CacheDir = t.TempDir()
		cfg.Resume = true
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		st, err := store.Open(cfg.CacheDir)
		if err != nil {
			t.Fatal(err)
		}
		blobs, err := st.Count(store.KindReport)
		if err != nil {
			t.Fatal(err)
		}
		ps := res.Persist
		if ps.ExtractedReports != int64(blobs) {
			t.Fatalf("workers=%d: %d extractions for %d distinct APKs (report blobs)", workers, ps.ExtractedReports, blobs)
		}
		crawled := len(res.Corpus20.Apps) + len(res.Corpus21.Apps)
		if got := ps.ExtractedReports + ps.WarmReports; got != int64(crawled) {
			t.Fatalf("workers=%d: extracted %d + warm %d = %d, but %d apps were crawled",
				workers, ps.ExtractedReports, ps.WarmReports, got, crawled)
		}
		if refKeys == nil {
			refKeys = ps.CorpusKeys
		} else if !reflect.DeepEqual(ps.CorpusKeys, refKeys) {
			t.Fatalf("workers=%d: corpus keys %v, workers=1 gave %v", workers, ps.CorpusKeys, refKeys)
		}
	}
}

// waitersParked counts goroutines blocked waiting on another worker's
// report flight.
func waitersParked() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "(*studyEngine).claimReport")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// heldWrites is a store FS whose report writes block until release is
// closed, then fail with the run's context error: the report's flight
// stays held for as long as the test wants.
type heldWrites struct {
	store.OSFS
	ctx     context.Context
	release chan struct{}
}

func (fs heldWrites) WriteFileAtomic(name string, data []byte) error {
	if strings.Contains(name, "/"+store.KindReport+"/") {
		<-fs.release
		if err := fs.ctx.Err(); err != nil {
			return err
		}
	}
	return fs.OSFS.WriteFileAtomic(name, data)
}

// sameAPKEverywhere serves the first APK a snapshot's crawl downloads for
// every later download in that snapshot, so all of its apps share one
// report key.
func sameAPKEverywhere() http.RoundTripper {
	var (
		once sync.Once
		doc  string
	)
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if req.URL.Path == "/fdfe/purchase" {
			once.Do(func() { doc = req.URL.Query().Get("doc") })
			req = req.Clone(req.Context())
			q := req.URL.Query()
			q.Set("doc", doc)
			req.URL.RawQuery = q.Encode()
		}
		return http.DefaultTransport.RoundTrip(req)
	})
}

// TestReportWaitersCancelled parks workers behind a report flight whose
// holder is stuck in its store write, cancels the run, and checks that
// the waiters leave on cancellation alone — before the holder is
// released — and that the run then returns promptly with a cancellation
// error and no leaked goroutines.
func TestReportWaitersCancelled(t *testing.T) {
	testutil.NoLeakedGoroutines(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	release := make(chan struct{})
	cfg := DefaultConfig(62, 0.01)
	cfg.Workers = 4
	cfg.CacheDir = t.TempDir()
	cfg.Resume = true
	cfg.StoreFS = heldWrites{ctx: ctx, release: release}
	cfg.Transport = func(string) http.RoundTripper { return sameAPKEverywhere() }

	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, cfg)
		done <- err
	}()
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(20 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				close(release)
				t.Fatalf("timed out waiting until %s", what)
			}
		}
	}
	waitFor("workers park behind the held report", func() bool { return waitersParked() >= 2 })
	cancel()
	waitFor("parked workers leave on cancellation", func() bool { return waitersParked() == 0 })
	close(release)
	select {
	case err := <-done:
		assertCancelled(t, err)
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
}

// TestReportFailingInBothSnapshotsQuarantinedInBoth serves one corrupt
// APK for a subset of packages in both snapshots. All of them share a
// report key, so every worker but one waits on its flight; each failed
// extraction hands the key to the next worker, and every affected app is
// quarantined at the extract stage in its own snapshot.
func TestReportFailingInBothSnapshotsQuarantinedInBoth(t *testing.T) {
	testutil.NoLeakedGoroutines(t)
	garbage := []byte("not an APK, in either snapshot")
	unlucky := func(pkg string) bool { return strings.HasSuffix(pkg, "1") }
	cfg := DefaultConfig(63, 0.01)
	cfg.Workers = 4
	cfg.CacheDir = t.TempDir()
	cfg.Resume = true
	cfg.FailureBudget = 0.5
	cfg.Transport = func(string) http.RoundTripper {
		return roundTripFunc(func(req *http.Request) (*http.Response, error) {
			resp, err := http.DefaultTransport.RoundTrip(req)
			if err != nil || req.URL.Path != "/fdfe/purchase" || !unlucky(req.URL.Query().Get("doc")) {
				return resp, err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			resp.Body = io.NopCloser(bytes.NewReader(garbage))
			resp.ContentLength = int64(len(garbage))
			resp.Header.Del("Content-Length")
			return resp, nil
		})
	}
	res, err := runBounded(t, 60*time.Second, context.Background(), cfg)
	if err != nil {
		t.Fatalf("in-budget extraction failures must degrade, not abort: %v", err)
	}
	quarantined := map[string]map[string]bool{"2020": {}, "2021": {}}
	for _, q := range res.Quarantine {
		if !unlucky(q.Package) || q.Stage != "extract" {
			t.Fatalf("unexpected quarantine %s/%s at stage %s", q.Snapshot, q.Package, q.Stage)
		}
		quarantined[q.Snapshot][q.Package] = true
	}
	both := 0
	for label, apps := range quarantined {
		// The crawler files every downloaded app's metadata before
		// extraction, so the docstore lists every crawled package.
		for _, hit := range res.Meta.Query("apps-" + label) {
			if unlucky(hit.ID) && !apps[hit.ID] {
				t.Fatalf("%s/%s was served a corrupt APK but not quarantined", label, hit.ID)
			}
			if label == "2020" && apps[hit.ID] && quarantined["2021"][hit.ID] {
				both++
			}
		}
	}
	if both == 0 {
		t.Fatal("no package was corrupted in both snapshots; the test exercised nothing")
	}
	// Failed extractions count as neither extracted nor warm: the two
	// counts cover exactly the apps that survived.
	survivors := len(res.Corpus20.Apps) + len(res.Corpus21.Apps)
	if got := res.Persist.ExtractedReports + res.Persist.WarmReports; got != int64(survivors) {
		t.Fatalf("extracted %d + warm %d, but %d apps survived",
			res.Persist.ExtractedReports, res.Persist.WarmReports, survivors)
	}
}
