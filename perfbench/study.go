package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"github.com/gaugenn/gaugenn/internal/analysis"
	"github.com/gaugenn/gaugenn/internal/core"
	"github.com/gaugenn/gaugenn/internal/event"
	"github.com/gaugenn/gaugenn/internal/obs"
)

// The study workload: a full two-snapshot study at studyScale, crawled
// over HTTP from a recording of the synthetic Play Store, run as
// alternating cold (fresh store) and warm (same store) phases.
//
// The store is the same on every --seed. Its seed decides the model
// population, and with it the work: at this scale the recorded store
// ranges from 150 to 590 MB across seeds, and a study's time and memory
// follow, which would swamp any change to the code. studyStoreSeed's
// store is a typical one (168 MB, 3,300 apps).
const (
	studyStoreSeed      = 20210404
	studyScale          = 0.1
	studyWorkers        = 2
	studyMaxPerCategory = 500
	studySetups         = 3
)

// studyFixture is what set-up leaves for the timed phases: the recorded
// store responses and the outputs of the live crawl they came from.
type studyFixture struct {
	seed   int64
	scale  float64
	recs   map[string]*recording // snapshot label -> responses
	keys   map[string]string     // corpus CAS keys of the live crawl
	tables [32]byte              // digest of the live crawl's StudyTables
	apps   int
}

func studyConfig(seed int64, scale float64, dir string, transport func(string) http.RoundTripper) core.Config {
	cfg := core.DefaultConfig(seed, scale)
	cfg.UseHTTP = true
	cfg.Workers = studyWorkers
	cfg.MaxPerCategory = studyMaxPerCategory
	cfg.CacheDir = dir
	cfg.Resume = true
	cfg.Transport = transport
	return cfg
}

// recordStudy runs one live, unreplayed HTTP study into an empty store,
// keeping every store response. This is the only place the synthetic
// store's APKs are built.
func recordStudy(ctx context.Context, seed int64, scale float64, dir string) (*studyFixture, error) {
	live := http.DefaultTransport.(*http.Transport).Clone()
	live.Proxy = nil
	defer live.CloseIdleConnections()
	recs := map[string]*recording{"2020": newRecording(), "2021": newRecording()}
	res, err := core.Run(ctx, studyConfig(seed, scale, dir, func(label string) http.RoundTripper {
		return &recorder{next: live, rec: recs[label]}
	}))
	if err != nil {
		return nil, fmt.Errorf("recording the store: %w", err)
	}
	return &studyFixture{
		seed: seed, scale: scale, recs: recs, keys: res.Persist.CorpusKeys,
		tables: tablesDigest(res.Corpus20, res.Corpus21),
		apps:   len(res.Corpus20.Apps) + len(res.Corpus21.Apps),
	}, nil
}

func tablesDigest(c20, c21 *analysis.Corpus) [32]byte {
	tables := core.StudyTables(c20, c21)
	names := make([]string, 0, len(tables))
	for n := range tables {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		fmt.Fprintf(h, "%s\x00%d\x00%s", n, len(tables[n]), tables[n])
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

// setupStudy records the store `repeats` times, each into a fresh store,
// and keeps the last recording. Every recording, and the live crawl's
// corpus keys, must agree across repeats.
func setupStudy(ctx context.Context, o options, res *result, repeats int) (*studyFixture, []float64, error) {
	var (
		fx        *studyFixture
		times     []float64
		refKeys   map[string]string
		refDigest [32]byte
	)
	for i := 0; i < repeats; i++ {
		dir := filepath.Join(o.work, fmt.Sprintf("setup%d", i))
		fx = nil // drop the previous recording before making the next one
		runtime.GC()
		start := time.Now()
		next, err := recordStudy(ctx, studyStoreSeed, studyScale, dir)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, err
		}
		d := recordingDigest(next)
		var failed []string
		if i == 0 {
			refKeys, refDigest = next.keys, d
		} else {
			if d != refDigest {
				failed = append(failed, "set-up: recordings of one seed differ")
			}
			if !sameKeys(next.keys, refKeys) {
				failed = append(failed, "set-up: live crawls of one seed gave different corpus keys")
			}
		}
		res.op(failed...)
		fx = next
	}
	return fx, times, nil
}

func recordingDigest(fx *studyFixture) [32]byte {
	h := sha256.New()
	for _, label := range driverLabels {
		d := fx.recs[label].digest()
		h.Write(d[:])
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

func sameKeys(a, b map[string]string) bool {
	if len(a) != len(b) || len(a) == 0 {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// phaseResult is one timed core.Run over the replayed store.
type phaseResult struct {
	wall    time.Duration
	cpu     time.Duration // harness process CPU time, replaying transport included
	allocB  uint64
	res     *core.StudyResult
	misses  int64
	failed  []string
	fs      *timingFS
	tracer  *obs.Tracer
	apps    int
	extract int64 // reports extracted in this phase
	warmRep int64 // reports loaded from the store in this phase
}

// runPhase runs core.Run once against dir over the replayed store and
// checks its outputs. warm phases must do no extraction, decode or
// profile work. traced phases observe the run at its existing seams
// only: the event stream and a timing store.FS.
func runPhase(ctx context.Context, fx *studyFixture, dir string, warm, traced bool) *phaseResult {
	rps := map[string]*replayer{}
	for _, label := range driverLabels {
		rps[label] = &replayer{rec: fx.recs[label]}
	}
	cfg := studyConfig(fx.seed, fx.scale, dir, func(label string) http.RoundTripper { return rps[label] })
	pr := &phaseResult{}
	if traced {
		pr.fs = &timingFS{}
		pr.tracer = obs.NewTracer("study " + core.StudyID(cfg))
		cfg.StoreFS = pr.fs
		cfg.OnEvent = func(ev event.Event) { pr.tracer.Observe(ev) }
	}
	// Start every phase from the same state: no dirty pages from earlier
	// phases still being written back, and a collected heap.
	syscall.Sync()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start, cpu0 := time.Now(), selfCPU()
	res, err := core.Run(ctx, cfg)
	pr.wall, pr.cpu = time.Since(start), selfCPU()-cpu0
	runtime.ReadMemStats(&m1)
	pr.allocB = m1.TotalAlloc - m0.TotalAlloc
	for _, rp := range rps {
		pr.misses += rp.misses.Load()
	}
	name := "cold"
	if warm {
		name = "warm"
	}
	fail := func(format string, args ...any) {
		pr.failed = append(pr.failed, name+" phase: "+fmt.Sprintf(format, args...))
	}
	if pr.misses > 0 {
		fail("%d replay misses", pr.misses)
	}
	if err != nil {
		fail("core.Run: %v", err)
		return pr
	}
	pr.res = res
	pr.apps = len(res.Corpus20.Apps) + len(res.Corpus21.Apps)
	pr.extract, pr.warmRep = res.Persist.ExtractedReports, res.Persist.WarmReports
	if len(res.Quarantine) > 0 {
		fail("%d apps quarantined", len(res.Quarantine))
	}
	if !sameKeys(res.Persist.CorpusKeys, fx.keys) {
		fail("corpus keys %v differ from the live crawl's %v", res.Persist.CorpusKeys, fx.keys)
	}
	if tablesDigest(res.Corpus20, res.Corpus21) != fx.tables {
		fail("StudyTables output differs from the live crawl's")
	}
	if pr.apps != fx.apps {
		fail("%d apps, live crawl had %d", pr.apps, fx.apps)
	}
	if warm {
		c := res.Persist.Cache
		if c.Decodes != 0 || c.Profiles != 0 || res.Persist.ExtractedReports != 0 {
			fail("warm run did work: decodes=%d profiles=%d extracted=%d",
				c.Decodes, c.Profiles, res.Persist.ExtractedReports)
		}
	}
	return pr
}

func runStudy(ctx context.Context, o options) (*result, error) {
	res := newResult()
	if o.trace {
		return res, runStudyTraced(ctx, o, res)
	}
	fx, setups, err := setupStudy(ctx, o, res, studySetups)
	if err != nil {
		return nil, err
	}
	// The gated peak covers the timed phases, on top of what set-up
	// leaves resident: the recording the phases replay.
	baseRSS, err := resetPeakRSS()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(o.work, "store")
	var (
		coldRate, warmRate, coldMs, warmMs, coldCPU, warmCPU, allocMB []float64
		extracted, warmLoaded                                         []int64
	)
	deadline := time.Now().Add(o.seconds)
	for i := 0; time.Now().Before(deadline) || (len(coldRate) == 0 && i < 3); i++ {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		cold := runPhase(ctx, fx, dir, false, false)
		res.op(cold.failed...)
		if cold.res == nil {
			continue
		}
		warm := runPhase(ctx, fx, dir, true, false)
		res.op(warm.failed...)
		if warm.res == nil {
			continue
		}
		coldRate = append(coldRate, float64(cold.apps)/cold.wall.Seconds())
		warmRate = append(warmRate, float64(warm.apps)/warm.wall.Seconds())
		coldMs = append(coldMs, ms(cold.wall))
		warmMs = append(warmMs, ms(warm.wall))
		coldCPU = append(coldCPU, ms(cold.cpu)/float64(cold.apps))
		warmCPU = append(warmCPU, ms(warm.cpu)/float64(warm.apps))
		allocMB = append(allocMB, float64(cold.allocB+warm.allocB)/(1<<20))
		extracted = append(extracted, cold.extract)
		warmLoaded = append(warmLoaded, cold.warmRep)
		if total := cold.extract + cold.warmRep; total != extracted[0]+warmLoaded[0] {
			res.op(fmt.Sprintf("cold phase: extracted+warm-loaded reports = %d, first phase had %d",
				total, extracted[0]+warmLoaded[0]))
		}
	}
	if len(coldRate) == 0 {
		return nil, errors.New("no cold/warm pair completed")
	}
	res.setE2E("setup_s", "s", median(setups))
	res.setE2E("main_per_s", "1/s", median(coldRate))
	res.setE2E("alt_per_s", "1/s", median(warmRate))
	res.setE2E("main_ms", "ms", median(coldCPU))
	res.setE2E("alt_ms", "ms", median(warmCPU))
	res.setE2E("alloc_mb", "MB", median(allocMB))
	res.setE2E("peak_rss_mb", "MB", peakRSSMB(os.Getpid()))
	res.notef("study seed=%d scale=%g workers=%d apps=%d recording=%.1f MB, %d cold/warm pairs",
		studyStoreSeed, studyScale, studyWorkers, fx.apps, float64(fx.recs["2020"].bytes()+fx.recs["2021"].bytes())/(1<<20), len(coldRate))
	res.notef("  setup_s          %10.4f s    (median of %d recordings: %v)", median(setups), len(setups), setups)
	res.notef("  cold_apps_per_s  %10.2f 1/s  (cold study %.1f ms; %v)", median(coldRate), median(coldMs), coldMs)
	res.notef("  warm_apps_per_s  %10.2f 1/s  (warm study %.1f ms)", median(warmRate), median(warmMs))
	res.notef("  cpu ms per app   %10.4f cold, %.4f warm", median(coldCPU), median(warmCPU))
	res.notef("  alloc_mb         %10.1f MB   per cold+warm pair", median(allocMB))
	res.notef("  peak_rss_mb      %10.1f MB   (timed phases; %.1f MB resident after set-up)", peakRSSMB(os.Getpid()), baseRSS)
	res.notef("  error_rate       %10.4f      (%d of %d operations failed)", errorRate(res), res.Failed, res.Attempted)
	res.notef("  informational: cold-phase extracted/warm-loaded split per pair %v / %v (scheduling-dependent; the sum is stable)", extracted, warmLoaded)
	return res, nil
}

func errorRate(r *result) float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
