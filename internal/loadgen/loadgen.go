// Package loadgen is the study service's chaos load harness: it replays
// swarms of concurrent submit/stream/cancel clients against a live
// server — including deliberately rude ones that hang up mid-SSE and
// readers that stall until the server cuts them — and verifies the
// overload contract from the outside:
//
//   - shed submissions (503/429) carry Retry-After and the client's
//     retry, paced by retry.ParseRetryAfter, eventually lands;
//   - reconnecting with Last-Event-ID never shows a gap or a duplicate
//     (unless the server honestly says "truncated");
//   - every accepted study reaches a terminal state;
//   - no 5xx escapes that is not deliberate load-shedding.
//
// Run aggregates everything into a Summary — the shape checked into
// BENCH_serve.json and asserted by the CI overload smoke. Fault
// injection composes through Config.Transport (see internal/faults).
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/gaugenn/gaugenn/internal/retry"
	"github.com/gaugenn/gaugenn/internal/sched"
)

// Config shapes one load run. The zero value of any field falls back to
// a harness-sized default; only BaseURL is required.
type Config struct {
	// BaseURL roots every request, e.g. "http://127.0.0.1:8077".
	BaseURL string
	// Clients is the concurrent client count (default 8).
	Clients int
	// Submissions is the total number of studies offered (default 32).
	Submissions int
	// Tenants spreads submissions across this many tenant identities
	// (default 4), exercising per-tenant quotas.
	Tenants int
	// DistinctStudies bounds how many distinct (seed) specs the run
	// offers (default 4): repeats hit the store warm, which is exactly
	// the dedup the service promises.
	DistinctStudies int
	// Seed makes the behaviour mix (who is rude, who stalls, who
	// cancels, priorities) deterministic.
	Seed int64
	// StudySeed and Scale parameterise the submitted specs.
	StudySeed int64
	Scale     float64
	// Workers is the per-run pipeline fan-out submitted in each spec.
	Workers int
	// MaxPriority spreads submissions across priorities 0..MaxPriority
	// (default 3), exercising preemption.
	MaxPriority int
	// RudeFrac, StallFrac and CancelFrac select the chaos behaviours:
	// fractions (of submissions) that hang up mid-SSE then resume, stop
	// reading for StallFor, and cancel their study mid-run.
	RudeFrac   float64
	StallFrac  float64
	CancelFrac float64
	// StallFor is how long a stalled reader sleeps (default 300ms).
	StallFor time.Duration
	// JobTimeout bounds one submission end to end — admission retries,
	// streaming, reconnects (default 2m).
	JobTimeout time.Duration
	// MaxShedWait caps how long a shed client honours Retry-After before
	// retrying (default 2s): the harness respects the server's pacing but
	// must terminate.
	MaxShedWait time.Duration
	// Transport is the fault-injection seam (see faults.Transport); nil
	// uses http.DefaultTransport.
	Transport http.RoundTripper
}

func (c Config) clients() int     { return defInt(c.Clients, 8) }
func (c Config) submissions() int { return defInt(c.Submissions, 32) }
func (c Config) tenants() int     { return defInt(c.Tenants, 4) }
func (c Config) distinct() int    { return defInt(c.DistinctStudies, 4) }
func (c Config) maxPriority() int {
	if c.MaxPriority <= 0 {
		return 3
	}
	return min(c.MaxPriority, sched.MaxPriority)
}
func (c Config) stallFor() time.Duration    { return defDur(c.StallFor, 300*time.Millisecond) }
func (c Config) jobTimeout() time.Duration  { return defDur(c.JobTimeout, 2*time.Minute) }
func (c Config) maxShedWait() time.Duration { return defDur(c.MaxShedWait, 2*time.Second) }
func (c Config) scale() float64 {
	if c.Scale <= 0 {
		return 0.01
	}
	return c.Scale
}

func defInt(v, d int) int {
	if v <= 0 {
		return d
	}
	return v
}

func defDur(v, d time.Duration) time.Duration {
	if v <= 0 {
		return d
	}
	return v
}

// behaviour is one submission's chaos script.
type behaviour struct {
	rude   bool // hang up mid-SSE, reconnect with Last-Event-ID
	stall  bool // stop reading mid-stream until the server reacts
	cancel bool // DELETE the study once it runs
	rudeAt int  // frames before the rude hangup
	spec   sched.Spec
	tenant string
}

// loader carries one run's shared state.
type loader struct {
	cfg    Config
	client *http.Client

	mu      sync.Mutex
	sum     Summary
	firstEv []time.Duration
	qWait   []time.Duration
}

// Run drives the full load plan against cfg.BaseURL and returns the
// aggregated Summary. The error is non-nil when the run could not
// execute or when a hard invariant failed (gaps, non-shed 5xx,
// unresolved studies) — the Summary is returned either way so callers
// can persist it for diagnosis.
func Run(ctx context.Context, cfg Config) (*Summary, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("loadgen: BaseURL is required")
	}
	l := &loader{
		cfg: cfg,
		client: &http.Client{
			Transport: cfg.Transport,
			// No client timeout: SSE streams are long-lived by design.
			// Every request carries a context deadline instead.
		},
	}
	l.sum.Clients = cfg.clients()
	l.sum.Tenants = cfg.tenants()
	l.sum.Submissions = cfg.submissions()

	start := time.Now()
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < cfg.clients(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				l.runOne(ctx, i)
			}
		}()
	}
	for i := 0; i < cfg.submissions(); i++ {
		select {
		case work <- i:
		case <-ctx.Done():
			i = cfg.submissions() // stop offering; workers drain
		}
	}
	close(work)
	wg.Wait()

	l.mu.Lock()
	defer l.mu.Unlock()
	l.sum.SubmitToFirstEvent = summarise(l.firstEv)
	l.sum.QueueWait = summarise(l.qWait)
	l.sum.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	if bad := l.sum.healthy(); len(bad) > 0 {
		return &l.sum, fmt.Errorf("loadgen: invariants violated: %v", bad)
	}
	return &l.sum, ctx.Err()
}

// plan derives submission i's deterministic chaos script.
func (l *loader) plan(i int) behaviour {
	rng := rand.New(rand.NewSource(l.cfg.Seed*7919 + int64(i)))
	b := behaviour{
		tenant: fmt.Sprintf("t%d", i%l.cfg.tenants()),
		rudeAt: 2 + rng.Intn(4),
		spec: sched.Spec{
			Seed:     l.cfg.StudySeed + int64(i%l.cfg.distinct()),
			Scale:    l.cfg.scale(),
			Workers:  l.cfg.Workers,
			Priority: rng.Intn(l.cfg.maxPriority() + 1),
		},
	}
	switch r := rng.Float64(); {
	case r < l.cfg.RudeFrac:
		b.rude = true
	case r < l.cfg.RudeFrac+l.cfg.StallFrac:
		b.stall = true
	case r < l.cfg.RudeFrac+l.cfg.StallFrac+l.cfg.CancelFrac:
		b.cancel = true
	}
	return b
}

// submitResponse mirrors the service's 202 body (sched.Job flattened).
type submitResponse struct {
	sched.Job
	StatusURL string `json:"status_url"`
	EventsURL string `json:"events_url"`
}

// runOne plays submission i end to end: admission (with shed-honouring
// retries), streaming with the planned chaos, and terminal accounting.
func (l *loader) runOne(ctx context.Context, i int) {
	b := l.plan(i)
	ctx, cancel := context.WithTimeout(ctx, l.cfg.jobTimeout())
	defer cancel()
	job, accepted, ok := l.submit(ctx, b)
	if !ok {
		return
	}
	l.stream(ctx, b, job, accepted)
}

// submit offers b's spec until the server accepts it, honouring shed
// pacing. The returned time is the accepted POST's send instant — the
// epoch for submit-to-first-event. ok=false means the submission never
// landed (accounted).
func (l *loader) submit(ctx context.Context, b behaviour) (submitResponse, time.Time, bool) {
	body, _ := json.Marshal(b.spec)
	for {
		if ctx.Err() != nil {
			l.count(func(s *Summary) { s.OtherErrors++ })
			return submitResponse{}, time.Time{}, false
		}
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, l.cfg.BaseURL+"/api/studies", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Gaugenn-Tenant", b.tenant)
		sent := time.Now()
		resp, err := l.client.Do(req)
		if err != nil {
			l.count(func(s *Summary) { s.OtherErrors++ })
			if !l.sleep(ctx, 50*time.Millisecond) {
				return submitResponse{}, time.Time{}, false
			}
			continue
		}
		switch {
		case resp.StatusCode == http.StatusAccepted:
			var sr submitResponse
			err := json.NewDecoder(resp.Body).Decode(&sr)
			resp.Body.Close()
			if err != nil || sr.ID == "" {
				l.count(func(s *Summary) { s.OtherErrors++ })
				return submitResponse{}, time.Time{}, false
			}
			l.count(func(s *Summary) { s.Accepted++ })
			return sr, sent, true
		case resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusTooManyRequests:
			// Deliberate shedding: honour the server's pacing when it gave
			// any, with a cap so the harness terminates.
			wait, parsed := retry.ParseRetryAfter(resp.Header.Get("Retry-After"))
			resp.Body.Close()
			l.count(func(s *Summary) {
				s.Shed++
				if parsed {
					s.ShedHonored++
				}
			})
			if !parsed || wait <= 0 {
				wait = 100 * time.Millisecond
			}
			if !l.sleep(ctx, min(wait, l.cfg.maxShedWait())) {
				return submitResponse{}, time.Time{}, false
			}
		case resp.StatusCode >= 500:
			// A 5xx without shed discipline: the failure the smoke exists
			// to catch.
			resp.Body.Close()
			l.count(func(s *Summary) { s.NonShed5xx++ })
			if !l.sleep(ctx, 100*time.Millisecond) {
				return submitResponse{}, time.Time{}, false
			}
		default:
			resp.Body.Close()
			l.count(func(s *Summary) { s.OtherErrors++ })
			return submitResponse{}, time.Time{}, false // 4xx: the spec is wrong, retrying is noise
		}
	}
}

// streamState tracks one job's cursor and latency epochs across
// (re)connections.
type streamState struct {
	accepted   time.Time
	cursor     uint64
	sawAny     bool
	sawRunning bool
	endState   string
	rudeDone   bool
	stallDone  bool
	cancelSent bool
	frames     int
}

// stream consumes the job's SSE stream with b's chaos applied,
// reconnecting with the cursor after every disconnect — deliberate or
// not — until the terminal event arrives or the job deadline expires.
func (l *loader) stream(ctx context.Context, b behaviour, job submitResponse, accepted time.Time) {
	st := &streamState{accepted: accepted}
	conns := 0
	for st.endState == "" && ctx.Err() == nil {
		if conns > 0 {
			l.count(func(s *Summary) { s.Reconnects++ })
		}
		conns++
		l.streamOnce(ctx, b, job.ID, st)
		if st.endState != "" {
			break
		}
		// Cut mid-stream (server write timeout, lag drop, injected fault,
		// our own rudeness): pause briefly, then resume by cursor.
		if !l.sleep(ctx, 20*time.Millisecond) {
			break
		}
	}
	l.finishJob(ctx, job.ID, st)
}

// streamOnce opens one SSE connection and reads it until the terminal
// event, a planned disruption, or a transport error.
func (l *loader) streamOnce(ctx context.Context, b behaviour, id string, st *streamState) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, l.cfg.BaseURL+"/api/studies/"+id+"/events", nil)
	if err != nil {
		return err
	}
	if st.cursor > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(st.cursor, 10))
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
		return fmt.Errorf("events: status %d", resp.StatusCode)
	}
	r := newSSEReader(resp.Body)
	for {
		f, err := r.Next()
		if err != nil {
			return err // EOF included: reconnect decides what is next
		}
		l.observe(f, st)
		if st.endState != "" {
			return nil
		}
		st.frames++
		if b.rude && !st.rudeDone && st.frames >= b.rudeAt {
			// Rude client: vanish mid-stream without so much as a FIN wait,
			// then come back with the cursor.
			st.rudeDone = true
			l.count(func(s *Summary) { s.RudeDisconnects++ })
			return fmt.Errorf("loadgen: rude disconnect")
		}
		if b.stall && !st.stallDone && st.sawAny {
			// Stalled reader: stop consuming. The response buffer fills, the
			// server's write deadline (or lag-drop) cuts us, and the next
			// connection resumes by cursor.
			st.stallDone = true
			l.count(func(s *Summary) { s.StalledReaders++ })
			if !l.sleep(ctx, l.cfg.stallFor()) {
				return ctx.Err()
			}
		}
		if b.cancel && !st.cancelSent && st.sawRunning {
			st.cancelSent = true
			l.count(func(s *Summary) { s.CancelsIssued++ })
			l.cancelJob(ctx, id)
		}
	}
}

// observe accounts one frame: latency epochs, cursor discipline, and
// terminal detection.
func (l *loader) observe(f sseFrame, st *streamState) {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sum.Events++
	if f.Type == sched.TypeTruncated {
		// Honest horizon notice: the server replays from its oldest
		// retained event. Not a protocol gap.
		l.sum.Truncations++
		return
	}
	if f.ID <= st.cursor && st.cursor != 0 {
		l.sum.Gaps++ // duplicate or regression: the resume contract broke
	}
	st.cursor = f.ID
	if !st.sawAny {
		st.sawAny = true
		l.firstEv = append(l.firstEv, now.Sub(st.accepted))
	}
	if !st.sawRunning && (f.Type == sched.TypeState || f.Type == sched.TypeEnd) && f.Event.State == string(sched.StateRunning) {
		st.sawRunning = true
		l.qWait = append(l.qWait, now.Sub(st.accepted))
	}
	if f.Type == sched.TypeEnd {
		st.endState = f.Event.State
	}
}

// finishJob closes out one submission's accounting, folding in the
// job's final status (preemption count, terminal state fallback).
func (l *loader) finishJob(ctx context.Context, id string, st *streamState) {
	preempts := 0
	if job, err := l.status(ctx, id); err == nil {
		preempts = job.Preemptions
		if st.endState == "" && job.State.Terminal() {
			st.endState = string(job.State)
		}
	}
	l.count(func(s *Summary) {
		if preempts > 0 {
			s.Preempted++
		}
		switch st.endState {
		case string(sched.StateDone):
			s.Completed++
		case string(sched.StateCancelled):
			s.Cancelled++
		case string(sched.StateFailed):
			s.Failed++
		default:
			s.Unresolved++
		}
	})
}

// status fetches one job's snapshot.
func (l *loader) status(ctx context.Context, id string) (sched.Job, error) {
	// A short deadline of its own: the job context may already be done
	// (e.g. the run was cut by ctx) but the final status is still worth
	// one attempt for honest accounting.
	sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(sctx, http.MethodGet, l.cfg.BaseURL+"/api/studies/"+id+"/status", nil)
	if err != nil {
		return sched.Job{}, err
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return sched.Job{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return sched.Job{}, fmt.Errorf("status %d", resp.StatusCode)
	}
	var job sched.Job
	return job, json.NewDecoder(resp.Body).Decode(&job)
}

// cancelJob issues the DELETE; failures are accounted, not fatal — the
// study then simply runs to completion.
func (l *loader) cancelJob(ctx context.Context, id string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, l.cfg.BaseURL+"/api/studies/"+id, nil)
	if err != nil {
		return
	}
	resp, err := l.client.Do(req)
	if err != nil {
		l.count(func(s *Summary) { s.OtherErrors++ })
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
	resp.Body.Close()
}

// count applies one accounting mutation under the lock.
func (l *loader) count(f func(*Summary)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	f(&l.sum)
}

// sleep waits d or until ctx dies; false means the context won.
func (l *loader) sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
