package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// driverLayers are the driver's span names; each reports its self time
// as "<phase>.<layer>_s". core.unattributed is the root span: driver time
// spent outside every layer call.
var driverLayers = []string{
	"crawler.fetch", "extract.hash", "store.get", "extract.scan", "analysis.payload",
	"formats.decode", "analysis.ingest", "store.put", "docstore.put", "analysis.merge",
	"analysis.encode", "index.build", "index.persist", "store.fs_read", "store.fs_write",
	"core.unattributed",
}

// checkDriver compares a driver phase's outputs with the live crawl's and
// its self-time accounting with its wall time.
func checkDriver(fx *studyFixture, dr *driverResult, phase string) []string {
	var failed []string
	fail := func(format string, args ...any) {
		failed = append(failed, "driver "+phase+": "+fmt.Sprintf(format, args...))
	}
	if dr.misses > 0 {
		fail("%d replay misses", dr.misses)
	}
	if !sameKeys(dr.keys, fx.keys) {
		fail("corpus keys %v differ from core.Run's %v", dr.keys, fx.keys)
	}
	if tablesDigest(dr.corpora["2020"], dr.corpora["2021"]) != fx.tables {
		fail("StudyTables output differs from core.Run's")
	}
	if got := dr.tr.selfTotal(); got != dr.wall {
		fail("layer self times add up to %v, wall time is %v", got, dr.wall)
	}
	if phase == "warm" && (dr.extracted != 0 || dr.decodes != 0 || dr.stats.Profiles != 0) {
		fail("warm phase did work: extracted=%d decodes=%d profiles=%d", dr.extracted, dr.decodes, dr.stats.Profiles)
	}
	return failed
}

// runStudyTraced is the study workload's per-layer run. Each iteration
// runs the traced driver cold then warm, and core.Run cold then warm both
// untraced and traced at its own seams (events and a timing store.FS);
// the two core.Run variants alternate which goes first. Layer times are
// means over iterations, so they still add up to the mean wall time.
func runStudyTraced(ctx context.Context, o options, res *result) error {
	fx, _, err := setupStudy(ctx, o, res, 1)
	if err != nil {
		return err
	}
	t0 := time.Now()
	phases := []string{"cold", "warm"}
	self := map[string]map[string]time.Duration{"cold": {}, "warm": {}}
	wall := map[string]time.Duration{}
	var (
		first          map[string]*driverResult
		spans          []chromeEvent
		coreTrace      []byte
		plain, traced  []float64 // core.Run cold+warm wall, seconds
		coreExtracted  []float64
		coreWarmLoaded []float64
		fsRead, fsWrit []float64 // traced core.Run disk busy time, seconds
		iters          int
	)
	deadline := time.Now().Add(o.seconds)
	for i := 0; time.Now().Before(deadline) || (iters == 0 && i < 3); i++ {
		dir := filepath.Join(o.work, "driver")
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		drs := map[string]*driverResult{}
		ok := true
		for _, phase := range phases {
			tr := newTracer(t0, first == nil)
			dr, err := runDriver(ctx, fx, dir, tr)
			if err != nil {
				res.op(fmt.Sprintf("driver %s: %v", phase, err))
				ok = false
				break
			}
			res.op(checkDriver(fx, dr, phase)...)
			drs[phase] = dr
		}
		if !ok {
			continue
		}
		coreWall := map[bool]float64{}
		for j, withTrace := range []bool{i%2 == 0, i%2 != 0} {
			cdir := filepath.Join(o.work, fmt.Sprintf("core%d", j))
			if err := os.RemoveAll(cdir); err != nil {
				return err
			}
			cold := runPhase(ctx, fx, cdir, false, withTrace)
			res.op(cold.failed...)
			warm := runPhase(ctx, fx, cdir, true, withTrace)
			res.op(warm.failed...)
			if cold.res == nil || warm.res == nil {
				ok = false
				continue
			}
			coreWall[withTrace] = (cold.wall + warm.wall).Seconds()
			if withTrace {
				fsRead = append(fsRead, time.Duration(cold.fs.readNs.Load()+warm.fs.readNs.Load()).Seconds())
				fsWrit = append(fsWrit, time.Duration(cold.fs.writeNs.Load()+warm.fs.writeNs.Load()).Seconds())
				if coreTrace == nil {
					if coreTrace, err = cold.tracer.ChromeTrace(); err != nil {
						return err
					}
				}
			} else {
				coreExtracted = append(coreExtracted, float64(cold.extract))
				coreWarmLoaded = append(coreWarmLoaded, float64(cold.warmRep))
			}
		}
		if !ok {
			continue
		}
		plain = append(plain, coreWall[false])
		traced = append(traced, coreWall[true])
		for _, phase := range phases {
			for layer, d := range drs[phase].tr.self {
				self[phase][layer] += d
			}
			wall[phase] += drs[phase].wall
		}
		if first == nil {
			first = drs
			spans = append(drs["cold"].tr.chromeTrace(1, "perfbench driver"), drs["warm"].tr.chromeTrace(1, "perfbench driver")[1:]...)
		}
		iters++
	}
	if iters == 0 {
		return fmt.Errorf("no traced iteration completed")
	}
	n := time.Duration(iters)
	var table strings.Builder
	for _, phase := range phases {
		for _, layer := range driverLayers {
			self[phase][layer] /= n
			res.setLayer(phase+"."+layer+"_s", "s", self[phase][layer].Seconds())
		}
		wall[phase] /= n
		res.setLayer(phase+".driver.wall_s", "s", wall[phase].Seconds())
		printLayerTable(&table, fmt.Sprintf("driver %s phase, mean of %d", phase, iters), self[phase], wall[phase])
	}
	cold, warm := first["cold"], first["warm"]
	res.setLayer("crawler.requests", "count", float64(cold.requests))
	res.setLayer("crawler.body_mb", "MB", float64(cold.bodyB)/(1<<20))
	res.setLayer("extract.hash_mb", "MB", float64(cold.hashB)/(1<<20))
	res.setLayer("extract.apks", "count", float64(cold.extracted))
	res.setLayer("extract.reports_total", "count", float64(cold.extracted+cold.warmReports))
	res.setLayer("formats.decodes", "count", float64(cold.decodes))
	if cold.payloadCalls > 0 {
		res.setLayer("analysis.payload_dedup_ratio", "ratio", float64(cold.payloadCalls-cold.decodes)/float64(cold.payloadCalls))
	}
	res.setLayer("analysis.profiles", "count", float64(cold.stats.Profiles))
	res.setLayer("store.puts", "count", float64(cold.fs.writes.Load()))
	res.setLayer("store.put_mb", "MB", float64(cold.fs.writeB.Load())/(1<<20))
	res.setLayer("store.gets", "count", float64(warm.fs.reads.Load()))
	res.setLayer("store.get_mb", "MB", float64(warm.fs.readB.Load())/(1<<20))
	if handled := warm.warmReports + warm.extracted; handled > 0 {
		res.setLayer("store.warm_report_ratio", "ratio", float64(warm.warmReports)/float64(handled))
	}
	res.setLayer("core.wall_s", "s", median(plain))
	res.setLayer("core.trace_overhead_frac", "ratio", (median(traced)-median(plain))/median(plain))
	res.setLayer("core.fs_read_busy_s", "s", median(fsRead))
	res.setLayer("core.fs_write_busy_s", "s", median(fsWrit))
	res.setLayer("core.cold_extracted", "count", median(coreExtracted))
	res.setLayer("core.cold_warm_reports", "count", median(coreWarmLoaded))

	res.notef("study traced run: store seed=%d scale=%g, %d iterations", studyStoreSeed, studyScale, iters)
	res.notef("%s", strings.TrimRight(table.String(), "\n"))
	res.notef("core.Run cold+warm: untraced %.3f s, traced %.3f s (tracing overhead %+.1f%%)",
		median(plain), median(traced), 100*(median(traced)-median(plain))/median(plain))
	res.notef("core.Run cold phase report split (informational, scheduling-dependent): extracted %v, warm-loaded %v",
		coreExtracted, coreWarmLoaded)
	path := filepath.Join(o.work, fmt.Sprintf("study-%d.trace.json", o.seed))
	if err := writeChromeTrace(path, spans, coreTrace); err != nil {
		return err
	}
	res.notef("trace: %s", filepath.Join(filepath.Dir(o.work), filepath.Base(path)))
	return nil
}
