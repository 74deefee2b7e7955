package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"time"

	"github.com/gaugenn/gaugenn/internal/analysis"
	"github.com/gaugenn/gaugenn/internal/core"
	"github.com/gaugenn/gaugenn/internal/crawler"
	"github.com/gaugenn/gaugenn/internal/docstore"
	"github.com/gaugenn/gaugenn/internal/extract"
	"github.com/gaugenn/gaugenn/internal/index"
	"github.com/gaugenn/gaugenn/internal/nn/graph"
	"github.com/gaugenn/gaugenn/internal/store"
)

// The traced driver repeats core.Run's HTTP pipeline one call at a time,
// through the packages' public API, so every call can be timed: the
// crawl, the warm-report key hash, the report store read or the
// extraction (with the decode callback timed separately), sharded
// ingest, the report write, and per snapshot the merge, corpus encode,
// corpus write and index build and write. Snapshots run one after the
// other on a single worker. Its corpus keys must equal core.Run's: that
// equality is the evidence that it does the same work.

// driverResult is one driver phase: its spans, counts and outputs.
type driverResult struct {
	tr      *tracer
	wall    time.Duration
	keys    map[string]string
	corpora map[string]*analysis.Corpus
	fs      *timingFS
	stats   analysis.CacheStats

	requests, bodyB, misses int64
	hashB                   int64
	extracted, warmReports  int64
	payloadCalls, decodes   int64
}

// timedCache wraps the analysis cache's payload front door so the decode
// callback — graph decoding in the formats package — is its own span.
type timedCache struct {
	inner          *analysis.UniqueCache
	tr             *tracer
	calls, decodes int64
}

func (c *timedCache) Payload(ctx context.Context, h extract.PayloadHash, decode func() (*graph.Graph, error)) (graph.Checksum, bool, error) {
	c.calls++
	c.tr.begin("analysis.payload")
	defer c.tr.end()
	return c.inner.Payload(ctx, h, func() (*graph.Graph, error) {
		c.decodes++
		c.tr.begin("formats.decode")
		defer c.tr.end()
		return decode()
	})
}

// driverLabels is the snapshot order the driver crawls in.
var driverLabels = []string{"2020", "2021"}

// runDriver runs one study phase against the store in dir: cold when dir
// is empty, warm when a previous phase filled it.
func runDriver(ctx context.Context, fx *studyFixture, dir string, tr *tracer) (*driverResult, error) {
	dr := &driverResult{tr: tr, keys: map[string]string{}, corpora: map[string]*analysis.Corpus{}}
	dr.fs = &timingFS{tr: tr}
	st, err := store.OpenFS(dir, dr.fs)
	if err != nil {
		return nil, err
	}
	cache := analysis.NewPersistentUniqueCache(true, st, true)
	tc := &timedCache{inner: cache, tr: tr}
	meta := docstore.New()
	tr.begin("core.unattributed")
	for _, label := range driverLabels {
		if err := dr.snapshot(ctx, fx, label, st, cache, tc, meta); err != nil {
			tr.end()
			return nil, fmt.Errorf("driver %s: %w", label, err)
		}
	}
	err = tr.do("store.put", func() error {
		if err := cache.PersistErr(); err != nil {
			return err
		}
		c20, c21 := dr.corpora["2020"], dr.corpora["2021"]
		return st.AppendManifest(store.ManifestEntry{
			ID: core.StudyID(core.DefaultConfig(fx.seed, fx.scale)), Seed: fx.seed, Scale: fx.scale,
			Snapshots: dr.keys,
			Apps:      map[string]int{"2020": len(c20.Apps), "2021": len(c21.Apps)},
			Models:    map[string]int{"2020": c20.TotalModels(), "2021": c21.TotalModels()},
		})
	})
	tr.end()
	dr.wall = tr.lastDur
	if err != nil {
		return nil, err
	}
	dr.stats = cache.Stats()
	dr.payloadCalls, dr.decodes = tc.calls, tc.decodes
	return dr, nil
}

func (dr *driverResult) snapshot(ctx context.Context, fx *studyFixture, label string, st *store.Store,
	cache *analysis.UniqueCache, tc *timedCache, meta *docstore.Store) error {
	tr := dr.tr
	rp := &replayer{rec: fx.recs[label]}
	defer func() {
		dr.requests += rp.requests.Load()
		dr.bodyB += rp.bodyB.Load()
		dr.misses += rp.misses.Load()
	}()
	client := crawler.NewClient("http://127.0.0.1:1") // never dialled: the replayer answers
	client.HTTPClient.Transport = rp
	shards := analysis.NewShardedCorpus(label, true, 1, cache)
	cr := &crawler.Crawler{Client: client, MaxPerCategory: studyMaxPerCategory, Workers: 1}
	handle := func(idx int, m crawler.AppMeta, apk []byte) error {
		err := tr.do("docstore.put", func() error {
			return meta.Put("apps-"+label, m.Package, docstore.Doc{
				"package": m.Package, "title": m.Title, "category": m.Category,
				"rank": float64(m.Rank), "downloads": float64(m.Downloads),
				"rating": m.Rating, "apkBytes": float64(len(apk)),
			})
		})
		if err != nil {
			return err
		}
		var h extract.PayloadHash
		tr.do("extract.hash", func() error { h = extract.HashAPK(apk); return nil })
		dr.hashB += int64(len(apk))
		key := store.HexKey(h[:])
		var rep *extract.Report
		// The warm path mirrors the engine: a stored report is trusted
		// only when every model it names still has an analysis record.
		tr.do("store.get", func() error {
			data, ok, err := st.Get(store.KindReport, key)
			if err != nil || !ok {
				return nil
			}
			if r, err := extract.DecodeReport(data); err == nil && resolvable(cache, r) {
				rep = r
			}
			return nil
		})
		warm := rep != nil
		if warm {
			dr.warmReports++
		} else {
			err := tr.do("extract.scan", func() (err error) {
				rep, err = extract.ExtractAPKCached(ctx, apk, tc)
				return err
			})
			if err != nil {
				return fmt.Errorf("extracting %s: %w", m.Package, err)
			}
			dr.extracted++
		}
		if err := tr.do("analysis.ingest", func() error { return shards.AddReport(ctx, idx, m.Category, rep) }); err != nil {
			return err
		}
		if warm {
			return nil
		}
		return tr.do("store.put", func() error {
			data, err := extract.EncodeReport(rep)
			if err != nil {
				return err
			}
			return st.Put(store.KindReport, key, data)
		})
	}
	if err := tr.do("crawler.fetch", func() error { _, err := cr.Run(ctx, label, handle); return err }); err != nil {
		return err
	}
	var c *analysis.Corpus
	tr.do("analysis.merge", func() error { c = shards.Merge(); return nil })
	var blob []byte
	var key string
	err := tr.do("analysis.encode", func() (err error) {
		blob, err = analysis.EncodeCorpus(c)
		sum := sha256.Sum256(blob)
		key = store.HexKey(sum[:])
		return err
	})
	if err != nil {
		return err
	}
	if err := tr.do("store.put", func() error { return st.Put(store.KindCorpus, key, blob) }); err != nil {
		return err
	}
	var ix *index.Index
	tr.do("index.build", func() error { ix = index.BuildStore(st, c); return nil })
	if err := tr.do("index.persist", func() error { return index.Persist(st, key, ix) }); err != nil {
		return err
	}
	dr.keys[label] = key
	dr.corpora[label] = c
	return nil
}

// resolvable reports whether every model a stored report names still has
// an analysis record, the engine's condition for trusting a warm report.
func resolvable(cache *analysis.UniqueCache, rep *extract.Report) bool {
	for _, m := range rep.Models {
		if !cache.HasAnalysis(m.Checksum) {
			return false
		}
	}
	return true
}
