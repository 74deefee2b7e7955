package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/gaugenn/gaugenn/internal/analysis"
	"github.com/gaugenn/gaugenn/internal/core"
	"github.com/gaugenn/gaugenn/internal/index"
	"github.com/gaugenn/gaugenn/internal/nn/graph"
	"github.com/gaugenn/gaugenn/internal/store"
)

// The serve workload: `gaugenn serve`, built from the tree under test,
// in its own process over a store of serveStudies persisted studies. A
// single-process open loop offers reads at a few fixed rates over at
// most one connection per CPU; then, while reads continue at a lower
// rate, a fixed number of study submissions append to the manifest.
const (
	serveStudies    = 3
	serveScale      = 0.02
	serveSetups     = 3
	submitScale     = 0.01
	serveSubmits    = 4
	submitSeed      = 101              // submitted studies are the same on every seed, so job cost does not vary with it
	p99LimitMs      = 50.0             // latency limit a sustained rate must meet at p99
	revalidateShare = 0.5              // share of reads that revalidate with If-None-Match
	jobTimeout      = 20 * time.Second // per job, so a stuck scheduler still ends the run well inside 180 s
)

// serveRates are the open loop's fixed offered read rates, in requests/s;
// mixedRate is the read rate of the step the submissions land in. Both
// are definitions, not measured traffic; NOTES.md gives the reasons.
var serveRates = []float64{500, 1000, 2000}

const mixedRate = 200.0

// serveRoutes are the read routes of the mix, with their weights and the
// route pattern the server labels its metrics with. No measured request
// mix exists, so the mix is a definition without skew: every route has
// the same weight except /tables, a small share, and half of all reads
// revalidate, so full and 304 responses weigh the same.
var serveRoutes = []struct {
	name, pattern string
	weight        int
}{
	{"models", "GET /api/models/{checksum}", 4},
	{"diff", "GET /api/diff", 4},
	{"studies", "GET /api/studies", 4},
	{"study", "GET /api/studies/{id}", 4},
	{"tables", "GET /api/studies/{id}/tables", 1},
}

// serveFixture is the populated store the server reads.
type serveFixture struct {
	dir       string
	ids       []string
	checksums []graph.Checksum
	keys      []string // every stored corpus key
}

// buildServeStore persists serveStudies in-process studies into dir.
func buildServeStore(ctx context.Context, seed int64, dir string) (*serveFixture, error) {
	fx := &serveFixture{dir: dir}
	seen := map[graph.Checksum]bool{}
	for i := 0; i < serveStudies; i++ {
		cfg := core.DefaultConfig(seed+int64(i), serveScale)
		cfg.UseHTTP = false
		cfg.KeepGraphs = false
		cfg.CacheDir = dir
		cfg.Resume = true
		res, err := core.Run(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("building the serve store: %w", err)
		}
		fx.ids = append(fx.ids, res.Persist.StudyID)
		for _, label := range driverLabels {
			fx.keys = append(fx.keys, res.Persist.CorpusKeys[label])
		}
		for _, c := range []*analysis.Corpus{res.Corpus20, res.Corpus21} {
			for _, r := range c.Records {
				if !seen[r.Checksum] {
					seen[r.Checksum] = true
					fx.checksums = append(fx.checksums, r.Checksum)
				}
			}
		}
	}
	sort.Slice(fx.checksums, func(i, j int) bool { return fx.checksums[i] < fx.checksums[j] })
	return fx, nil
}

// server is a running `gaugenn serve` child process.
type server struct {
	cmd      *exec.Cmd
	base     string // query API base URL
	debug    string // /metrics and /debug/pprof base URL
	stderr   *lineLog
	waitErr  chan error
	stopOnce sync.Once
	stopErr  error
}

// lineLog keeps the last lines a child wrote, for error messages.
type lineLog struct {
	mu    sync.Mutex
	lines []string
}

func (l *lineLog) add(s string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.lines) == 20 {
		l.lines = l.lines[1:]
	}
	l.lines = append(l.lines, s)
}

func (l *lineLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.lines, "\n")
}

func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startServer launches the server on dir and waits until /healthz
// answers.
func startServer(bin, dir string) (*server, error) {
	if bin == "" {
		return nil, errors.New("the serve workload needs -bin, the gaugenn binary (run.sh passes it)")
	}
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "serve", "-cache-dir", dir, "-addr", addr,
		"-debug-addr", "127.0.0.1:0", "-run-workers", "1", "-grace", "5s")
	// The server must not outlive the harness, even if the harness is
	// killed before it can stop it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s serve: %w", bin, err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, stderr: &lineLog{}, waitErr: make(chan error, 1)}
	debugAddr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			s.stderr.add(line)
			if rest, ok := strings.CutPrefix(line, "debug: metrics and pprof on "); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					select {
					case debugAddr <- f[0]:
					default:
					}
				}
			}
		}
		s.waitErr <- cmd.Wait()
	}()
	deadline := time.Now().Add(30 * time.Second)
	select {
	case s.debug = <-debugAddr:
	case <-time.After(time.Until(deadline)):
		s.stop()
		return nil, fmt.Errorf("server printed no debug address: %s", s.stderr)
	}
	probe := &http.Client{Timeout: 2 * time.Second}
	for {
		resp, err := probe.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("server never became healthy: %v: %s", err, s.stderr)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop asks the server to drain and waits for it to exit, killing it if
// it does not within its grace period.
func (s *server) stop() error {
	s.stopOnce.Do(func() {
		s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case err := <-s.waitErr:
			s.stopErr = err
		case <-time.After(15 * time.Second):
			s.cmd.Process.Kill()
			s.stopErr = fmt.Errorf("server did not stop within 15s: %v", <-s.waitErr)
		}
	})
	return s.stopErr
}

// scrape reads the server's Prometheus exposition into name{labels} ->
// value.
func (s *server) scrape(client *http.Client) (map[string]float64, error) {
	resp, err := client.Get(s.debug + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// totalAllocMB reads the server runtime's cumulative allocation from the
// heap profile's text form.
func (s *server) totalAllocMB(client *http.Client) (float64, error) {
	resp, err := client.Get(s.debug + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "# TotalAlloc = "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			return v / (1 << 20), err
		}
	}
	return 0, fmt.Errorf("heap profile has no TotalAlloc line")
}

// serveLoad issues and checks the workload's requests.
type serveLoad struct {
	srv    *server
	client *http.Client
	fx     *serveFixture

	mu     sync.Mutex
	etags  map[string]string   // URL -> latest ETag
	bodies map[string][32]byte // URL + ETag -> body digest
	n200   int
	n304   int
}

func newServeLoad(srv *server, fx *serveFixture) *serveLoad {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.Proxy = nil
	tr.MaxConnsPerHost = runtime.NumCPU()
	tr.MaxIdleConnsPerHost = runtime.NumCPU()
	return &serveLoad{
		srv: srv, fx: fx, client: &http.Client{Transport: tr, Timeout: 60 * time.Second},
		etags: map[string]string{}, bodies: map[string][32]byte{},
	}
}

// nextRead picks one read from the mix.
func (l *serveLoad) nextRead(rng *rand.Rand) (route, path string, revalidate bool) {
	total := 0
	for _, r := range serveRoutes {
		total += r.weight
	}
	pick := rng.Intn(total)
	for _, r := range serveRoutes {
		if pick < r.weight {
			route = r.name
			break
		}
		pick -= r.weight
	}
	ids := l.fx.ids
	switch route {
	case "models":
		path = "/api/models/" + string(l.fx.checksums[rng.Intn(len(l.fx.checksums))])
	case "diff":
		from, to := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		path = "/api/diff?" + url.Values{"from": {from + ":2020"}, "to": {to + ":2021"}}.Encode()
	case "studies":
		path = "/api/studies"
	case "study":
		path = "/api/studies/" + ids[rng.Intn(len(ids))]
	case "tables":
		names := core.TableNames()
		path = "/api/studies/" + ids[rng.Intn(len(ids))] + "/tables?name=" + names[rng.Intn(len(names))]
	}
	return route, path, rng.Float64() < revalidateShare
}

// read sends one GET and checks it: only 200 or 304, and one body per
// URL and ETag (the ETag is content-derived, so it names the manifest
// state a response depends on).
func (l *serveLoad) read(route, path string, revalidate bool) outcome {
	req, err := http.NewRequest(http.MethodGet, l.srv.base+path, nil)
	if err != nil {
		return outcome{route: route, failed: err.Error()}
	}
	if revalidate {
		l.mu.Lock()
		etag := l.etags[path]
		l.mu.Unlock()
		if etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return outcome{route: route, failed: fmt.Sprintf("GET %s: %v", path, err)}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return outcome{route: route, failed: fmt.Sprintf("GET %s: reading body: %v", path, err)}
	}
	etag := resp.Header.Get("ETag")
	l.mu.Lock()
	defer l.mu.Unlock()
	switch resp.StatusCode {
	case http.StatusNotModified:
		l.n304++
		return outcome{route: route}
	case http.StatusOK:
		l.n200++
	default:
		return outcome{route: route, failed: fmt.Sprintf("GET %s: status %d: %.200s", path, resp.StatusCode, body)}
	}
	if etag == "" {
		return outcome{route: route, failed: fmt.Sprintf("GET %s: 200 without an ETag", path)}
	}
	l.etags[path] = etag
	sum := sha256.Sum256(body)
	k := path + "\x00" + etag
	if prev, ok := l.bodies[k]; ok && prev != sum {
		return outcome{route: route, failed: fmt.Sprintf("GET %s: two different bodies under ETag %s", path, etag)}
	}
	l.bodies[k] = sum
	return outcome{route: route}
}

// submission is one POST /api/studies and its job's fate.
type submission struct {
	job      string
	posted   time.Time
	accepted time.Duration // POST round trip
	done     time.Duration // POST to state done
	state    string
	err      string
}

// submit posts one study; a POST must be answered 202 with a job id.
func (l *serveLoad) submit(seed int64, sub *submission) {
	spec := fmt.Sprintf(`{"seed":%d,"scale":%g}`, seed, submitScale)
	sub.posted = time.Now()
	resp, err := l.client.Post(l.srv.base+"/api/studies", "application/json", strings.NewReader(spec))
	if err != nil {
		sub.err = "POST /api/studies: " + err.Error()
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	sub.accepted = time.Since(sub.posted)
	if err != nil {
		sub.err = "POST /api/studies: reading body: " + err.Error()
		return
	}
	if resp.StatusCode != http.StatusAccepted {
		sub.err = fmt.Sprintf("POST /api/studies: status %d: %.200s", resp.StatusCode, body)
		return
	}
	var job struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &job); err != nil || job.ID == "" {
		sub.err = "POST /api/studies: no job id in " + string(body)
		return
	}
	sub.job = job.ID
}

// follow polls a submitted job until it is terminal.
func (l *serveLoad) follow(sub *submission) {
	if sub.job == "" {
		return
	}
	deadline := sub.posted.Add(jobTimeout)
	for time.Now().Before(deadline) {
		resp, err := l.client.Get(l.srv.base + "/api/studies/" + sub.job + "/status")
		if err == nil {
			var job struct {
				State string `json:"state"`
				Err   string `json:"error"`
			}
			err = json.NewDecoder(resp.Body).Decode(&job)
			resp.Body.Close()
			if err == nil {
				switch job.State {
				case "done":
					sub.done, sub.state = time.Since(sub.posted), job.State
					return
				case "failed", "cancelled":
					sub.state, sub.err = job.State, job.Err
					return
				}
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	sub.state = "timeout"
}

func runServe(ctx context.Context, o options) (*result, error) {
	res := newResult()
	var (
		srv    *server
		fx     *serveFixture
		setups []float64
	)
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for i := 0; i < serveSetups; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, fmt.Errorf("stopping set-up server: %w", err)
			}
			srv = nil
		}
		runtime.GC()
		start := time.Now()
		var err error
		fx, err = buildServeStore(ctx, o.seed, filepath.Join(o.work, fmt.Sprintf("store%d", i)))
		if err != nil {
			return nil, err
		}
		if srv, err = startServer(o.bin, fx.dir); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		res.op()
	}
	load := newServeLoad(srv, fx)
	before, err := srv.scrape(load.client)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	alloc0, err := srv.totalAllocMB(load.client)
	if err != nil {
		return nil, err
	}

	// Phase 1, the open loop: read-only fixed-rate steps. The server's
	// CPU time over them gives its read cost, which scheduling noise on
	// a shared machine moves far less than a saturation probe.
	stepDur := o.seconds * 7 / 10 / time.Duration(len(serveRates))
	rng := rand.New(rand.NewSource(o.seed))
	nextRead := func() func() outcome {
		route, path, reval := load.nextRead(rng)
		return func() outcome { return load.read(route, path, reval) }
	}
	cpu0, err := cpuSeconds(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	samples := runOpenLoop(realClock{}, schedule(serveRates, stepDur, nextRead))
	cpu1, err := cpuSeconds(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	alloc1, err := srv.totalAllocMB(load.client)
	if err != nil {
		return nil, err
	}
	readRSS := peakRSSMB(srv.cmd.Process.Pid)
	readsPerCPU := float64(len(samples)) / max(cpu1-cpu0, 0.01)
	mid, err := srv.scrape(load.client)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	handlerMs := routeHandlerMs(before, mid)
	if len(handlerMs) != len(serveRoutes) {
		res.op(fmt.Sprintf("server /metrics gave handler times for %d of %d read routes: %v", len(handlerMs), len(serveRoutes), handlerMs))
	}

	// Phase 2, the mixed step: reads continue open-loop at mixedRate while
	// one writer submits the studies one after another, following each
	// job to a terminal state before the next POST, so each submit time
	// is one job's own latency. Every accepted study appends to the
	// manifest, invalidating the server's memoised list and diff
	// responses mid-step.
	mixedDur := o.seconds - stepDur*time.Duration(len(serveRates))
	var wg sync.WaitGroup
	subs := make([]*submission, serveSubmits)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range subs {
			subs[i] = &submission{}
			load.submit(submitSeed+int64(i), subs[i])
			load.follow(subs[i])
		}
	}()
	mixed := runOpenLoop(realClock{}, schedule([]float64{mixedRate}, mixedDur, nextRead))
	wg.Wait()

	after, err := srv.scrape(load.client)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	alloc2, err := srv.totalAllocMB(load.client)
	if err != nil {
		return nil, err
	}
	writeRSS := peakRSSMB(srv.cmd.Process.Pid)
	cpu2, err := cpuSeconds(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	if o.trace {
		if err := indexCalls(fx, res); err != nil {
			return nil, err
		}
	}
	if err := srv.stop(); err != nil {
		res.op("server shutdown: " + err.Error())
	}

	// Reduce.
	var (
		readLat, mixedLat, lateMs []float64
		byRoute                   = map[string][]float64{}
		byStep                    = make([][]float64, len(serveRates))
		stepLast                  = make([]time.Duration, len(serveRates)) // last completion, from load start
	)
	for _, s := range samples {
		res.op(failedList(s.failed)...)
		stepLast[s.step] = max(stepLast[s.step], s.due+s.latency)
		l := ms(s.latency)
		byRoute[s.route] = append(byRoute[s.route], l)
		lateMs = append(lateMs, ms(s.late))
		readLat = append(readLat, l)
		byStep[s.step] = append(byStep[s.step], l)
	}
	for _, s := range mixed {
		res.op(failedList(s.failed)...)
		mixedLat = append(mixedLat, ms(s.latency))
		lateMs = append(lateMs, ms(s.late))
	}
	var submitS []float64
	for i, sub := range subs {
		byRoute["submit"] = append(byRoute["submit"], ms(sub.accepted))
		if sub.state != "done" {
			res.op(fmt.Sprintf("submission %d (job %q) ended %q: %s", i, sub.job, sub.state, sub.err))
			continue
		}
		res.op()
		submitS = append(submitS, sub.done.Seconds())
	}
	// A step's achieved rate is its requests over the time from the step's
	// start to its last completion; sustained_qps is the achieved rate of
	// the fastest step whose p99 meets the limit. Latency counts from due
	// time, so a backlog that grows within a step breaks the limit.
	var (
		sustained float64
		stepLines []string
	)
	for s, rate := range serveRates {
		p99 := percentile(byStep[s], 99)
		achieved := float64(len(byStep[s])) / (stepLast[s] - time.Duration(s)*stepDur).Seconds()
		ok := len(byStep[s]) > 0 && p99 <= p99LimitMs
		if ok {
			sustained = achieved
		}
		stepLines = append(stepLines, fmt.Sprintf("%g/s: achieved %.1f/s p50 %.2f ms p99 %.2f ms (%d reqs, limit met: %v)",
			rate, achieved, percentile(byStep[s], 50), p99, len(byStep[s]), ok))
	}
	if sustained == 0 {
		// No step met the limit: report the lowest rate scaled by how far
		// its p99 overshot, so the metric stays a rate and never reads 0.
		sustained = serveRates[0] * p99LimitMs / max(percentile(byStep[0], 99), p99LimitMs)
	}
	res.setE2E("setup_s", "s", median(setups))
	// The gated serve metrics are CPU costs: read latency from due time
	// swings 2x with the hypervisor's CPU steal on a shared 2-vCPU host,
	// and a dropped sustained step halves sustained_qps, while the
	// server's CPU time per read or per study holds within a few percent.
	// Latencies and sustained_qps are reported per layer. The mixed
	// step's CPU, less its reads at the read steps' cost, is the writes'.
	writeCPU := (cpu2 - cpu1) - float64(len(mixed))/readsPerCPU
	res.setE2E("main_per_s", "1/s", readsPerCPU)
	res.setE2E("alt_per_s", "1/s", float64(len(submitS))/max(writeCPU, 0.01))
	// The contract needs main_ms on every workload; no other serve figure
	// held steady enough to gate, so here it is the read cost again, as
	// CPU ms per read: the inverse of main_per_s, not a gate of its own.
	res.setE2E("main_ms", "ms", 1000/readsPerCPU)
	if len(submitS) > 0 {
		res.setE2E("alt_ms", "ms", 1000*mean(submitS))
	}
	res.setE2E("alloc_mb", "MB", alloc1-alloc0)
	res.setE2E("peak_rss_mb", "MB", readRSS)

	for _, r := range append([]string{"submit"}, routeNames()...) {
		res.setLayer("serve."+r+"_p50_ms", "ms", percentile(byRoute[r], 50))
		res.setLayer("serve."+r+"_p99_ms", "ms", percentile(byRoute[r], 99))
	}
	res.setLayer("serve.query_p50_ms", "ms", percentile(readLat, 50))
	res.setLayer("serve.query_p90_ms", "ms", percentile(readLat, 90))
	res.setLayer("serve.sustained_qps", "1/s", sustained)
	res.setLayer("serve.query_p99_ms", "ms", percentile(readLat, 99))
	res.setLayer("serve.mixed_p50_ms", "ms", percentile(mixedLat, 50))
	res.setLayer("serve.mixed_p99_ms", "ms", percentile(mixedLat, 99))
	res.setLayer("serve.write_alloc_mb", "MB", alloc2-alloc1)
	res.setLayer("serve.write_peak_rss_mb", "MB", writeRSS)
	if total := load.n200 + load.n304; total > 0 {
		res.setLayer("serve.not_modified_frac", "ratio", float64(load.n304)/float64(total))
	}
	res.setLayer("serve.corpus_decodes", "count", after["gaugenn_serve_corpus_decodes_total"]-before["gaugenn_serve_corpus_decodes_total"])
	res.setLayer("serve.index_builds", "count", after["gaugenn_serve_index_builds_total"]-before["gaugenn_serve_index_builds_total"])
	waitSum := after["gaugenn_sched_queue_wait_seconds_sum"] - before["gaugenn_sched_queue_wait_seconds_sum"]
	waitN := after["gaugenn_sched_queue_wait_seconds_count"] - before["gaugenn_sched_queue_wait_seconds_count"]
	if waitN > 0 && len(submitS) > 0 {
		res.setLayer("sched.queue_wait_s", "s", waitSum/waitN)
		res.setLayer("sched.run_s", "s", mean(submitS)-waitSum/waitN)
	}
	res.setLayer("serve.handler_ms", "ms", geomean(handlerMs))
	res.setLayer("loadgen.late_ms_p99", "ms", percentile(lateMs, 99))

	res.notef("serve seed=%d store: %d studies at scale %g (%d models); open loop %v/s for %v each, at most %d connections; mixed step %g/s for %v with %d sequential submissions at scale %g",
		o.seed, len(fx.ids), serveScale, len(fx.checksums), serveRates, stepDur, runtime.NumCPU(), mixedRate, mixedDur, serveSubmits, submitScale)
	for _, l := range stepLines {
		res.notef("  %s", l)
	}
	res.notef("  mixed step: p50 %.2f ms p99 %.2f ms (%d reqs)", percentile(mixedLat, 50), percentile(mixedLat, 99), len(mixedLat))
	res.notef("  setup_s          %10.4f s    (median of %d: store build + server start)", median(setups), len(setups))
	res.notef("  query_p50_ms     %10.3f ms   (p90 %.3f ms)", percentile(readLat, 50), percentile(readLat, 90))
	res.notef("  query_p99_ms     %10.3f ms   (%d reads, limit %g ms)", percentile(readLat, 99), len(readLat), p99LimitMs)
	res.notef("  sustained_qps    %10.1f 1/s", sustained)
	res.notef("  reads per server CPU-second %10.1f 1/s  (%.3f CPU-s over %d reads)", readsPerCPU, cpu1-cpu0, len(samples))
	res.notef("  server handler ms %9.4f ms   (geometric mean over routes; per route %v)", geomean(handlerMs), handlerMs)
	res.notef("  studies per server CPU-second %8.3f 1/s  (%.3f CPU-s for %d studies)", float64(len(submitS))/max(writeCPU, 0.01), writeCPU, len(submitS))
	res.notef("  submit_s         %10.4f s    (mean of %v)", mean(submitS), submitS)
	res.notef("  alloc_mb         %10.1f MB   (server, read steps; writes %.1f MB)", alloc1-alloc0, alloc2-alloc1)
	res.notef("  peak_rss_mb      %10.1f MB   (server after the read steps; %.1f MB after writes)", readRSS, writeRSS)
	res.notef("  generator late   p99 %.3f ms", percentile(lateMs, 99))
	res.notef("  error_rate       %10.4f      (%d of %d operations failed)", errorRate(res), res.Failed, res.Attempted)
	return res, nil
}

// routeHandlerMs is each read route's mean handler time between two
// scrapes of the server's request-latency histogram, in ms.
func routeHandlerMs(before, after map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, r := range serveRoutes {
		key := func(suffix string) string {
			return fmt.Sprintf("gaugenn_serve_request_seconds_%s{route=%q}", suffix, r.pattern)
		}
		n := after[key("count")] - before[key("count")]
		if n > 0 {
			out[r.name] = 1000 * (after[key("sum")] - before[key("sum")]) / n
		}
	}
	return out
}

func routeNames() []string {
	out := make([]string, len(serveRoutes))
	for i, r := range serveRoutes {
		out[i] = r.name
	}
	return out
}

func failedList(s string) []string {
	if s == "" {
		return nil
	}
	return []string{s}
}

// indexCalls times the query index directly on the served store: loading
// each corpus's index, looking up every stored checksum and diffing
// snapshot pairs.
func indexCalls(fx *serveFixture, res *result) error {
	st, err := store.Open(fx.dir)
	if err != nil {
		return err
	}
	var loads []float64
	var ixs []*index.Index
	for _, key := range fx.keys {
		start := time.Now()
		ix, ok := index.Load(st, key)
		loads = append(loads, ms(time.Since(start)))
		if !ok {
			res.op("index.Load: no persisted index for corpus " + key)
			continue
		}
		res.op()
		ixs = append(ixs, ix)
	}
	if len(ixs) == 0 {
		return nil
	}
	const rounds = 20
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for _, sum := range fx.checksums {
			for _, ix := range ixs {
				ix.Lookup(sum)
			}
		}
	}
	lookups := rounds * len(fx.checksums) * len(ixs)
	res.setLayer("index.lookup_us", "us", float64(time.Since(start).Microseconds())/float64(lookups))
	start = time.Now()
	diffs := 0
	for r := 0; r < rounds; r++ {
		for _, a := range ixs {
			for _, b := range ixs {
				index.Diff(a, b)
				diffs++
			}
		}
	}
	res.setLayer("index.diff_us", "us", float64(time.Since(start).Microseconds())/float64(diffs))
	res.setLayer("index.load_ms", "ms", median(loads))
	return nil
}
