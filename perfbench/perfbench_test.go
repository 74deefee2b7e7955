package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames checks every declared metric name and unit against the
// benchmark's naming rules, and that no name is declared twice.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.name) {
			t.Errorf("metric name %q uses characters outside [A-Za-z0-9_.-] or is too long", m.name)
		}
		if !unitRE.MatchString(m.unit) {
			t.Errorf("metric %s: bad unit %q", m.name, m.unit)
		}
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("metric %s: better must be lower or higher, got %q", m.name, m.better)
		}
		if seen[m.name] {
			t.Errorf("metric %s declared twice", m.name)
		}
		seen[m.name] = true
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed 128 / 16", len(perLayer), len(endToEnd))
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the harness's metric
// lists in step: same names, units, directions and bounds, in order.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, harness %d", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better || (g.Bound != nil) != bounded ||
				(bounded && *g.Bound != w.bound) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, harness %+v", kind, i, g, w)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd, true)
	compare("per_layer", spec.PerLayer, perLayer, false)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, harness has %d", len(spec.Workloads), len(workloads))
	}
}

// slowClock is the real clock except that every Sleep oversleeps by a
// fixed amount, so the generator dispatches late.
type slowClock struct{ over time.Duration }

func (slowClock) Now() time.Time          { return time.Now() }
func (c slowClock) Sleep(d time.Duration) { time.Sleep(d + c.over) }

// TestOpenLoopTimedFromDue checks that an open-loop request is timed from
// its due time: a request queued behind a stalled one is charged the
// stall, and the generator's own lateness is recorded and included.
func TestOpenLoopTimedFromDue(t *testing.T) {
	var conn sync.Mutex // one connection: requests queue behind each other
	stall := 60 * time.Millisecond
	send := func(d time.Duration) func() outcome {
		return func() outcome {
			conn.Lock()
			defer conn.Unlock()
			time.Sleep(d)
			return outcome{route: "r"}
		}
	}
	reqs := []timedReq{
		{due: 0, send: send(stall)},
		{due: 10 * time.Millisecond, send: send(0)},
		{due: 20 * time.Millisecond, send: send(0)},
	}
	over := 5 * time.Millisecond
	out := runOpenLoop(slowClock{over: over}, reqs)
	if out[0].latency < stall {
		t.Errorf("first request latency %v below its own service time %v", out[0].latency, stall)
	}
	for i := 1; i < len(out); i++ {
		// The request could only start once the stalled one finished at
		// about `stall`, so from its due time it waited stall-due at least.
		if min := stall - reqs[i].due; out[i].latency < min {
			t.Errorf("request %d: latency %v does not include the %v it waited behind the stall", i, out[i].latency, min)
		}
		if out[i].late < over {
			t.Errorf("request %d: generator lateness %v not recorded (sleeps overran by %v)", i, out[i].late, over)
		}
		if out[i].latency < out[i].late {
			t.Errorf("request %d: latency %v excludes the generator's lateness %v", i, out[i].latency, out[i].late)
		}
	}
}

// TestScheduleRates checks the fixed-rate steps' request counts and
// spacing.
func TestScheduleRates(t *testing.T) {
	reqs := schedule([]float64{100, 200}, time.Second, func() func() outcome { return nil })
	if len(reqs) != 300 {
		t.Fatalf("got %d requests, want 300", len(reqs))
	}
	if reqs[100].due != time.Second || reqs[100].step != 1 || reqs[101].due-reqs[100].due != 5*time.Millisecond {
		t.Errorf("second step misplaced: %+v %+v", reqs[100], reqs[101])
	}
}

// TestReplayMiss checks that a request the recording does not hold is
// answered (not an error, not a panic) and counted as a miss, and that a
// study replayed from an empty recording comes back as failed checks.
func TestReplayMiss(t *testing.T) {
	rp := &replayer{rec: newRecording()}
	req, _ := http.NewRequest(http.MethodGet, "http://127.0.0.1:1/fdfe/categories", nil)
	resp, err := rp.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusGone || rp.misses.Load() != 1 {
		t.Fatalf("miss answered %d with %d misses counted", resp.StatusCode, rp.misses.Load())
	}
	fx := &studyFixture{seed: 1, scale: 0.01, recs: map[string]*recording{"2020": newRecording(), "2021": newRecording()}}
	pr := runPhase(context.Background(), fx, t.TempDir(), false, false)
	if len(pr.failed) == 0 || !strings.Contains(strings.Join(pr.failed, "\n"), "replay misses") {
		t.Fatalf("replaying an empty recording reported %q, want failed checks naming the misses", pr.failed)
	}
	res := newResult()
	res.op(pr.failed...)
	if res.Failed != 1 || res.Attempted != 1 {
		t.Fatalf("got %d failed of %d attempted, want 1 of 1", res.Failed, res.Attempted)
	}
}

// TestDriverMatchesCoreRun runs the traced driver and core.Run over the
// same recording at a tiny scale: corpus keys and tables must match the
// live crawl's, layer self times must add up to the driver's wall time,
// and the warm phase must do no extraction.
func TestDriverMatchesCoreRun(t *testing.T) {
	ctx := context.Background()
	work := t.TempDir()
	fx, err := recordStudy(ctx, 5, 0.01, filepath.Join(work, "live"))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(work, "driver")
	t0 := time.Now()
	for _, phase := range []string{"cold", "warm"} {
		dr, err := runDriver(ctx, fx, dir, newTracer(t0, true))
		if err != nil {
			t.Fatal(err)
		}
		if failed := checkDriver(fx, dr, phase); len(failed) > 0 {
			t.Fatalf("%s: %v", phase, failed)
		}
		if len(dr.tr.spans) == 0 {
			t.Fatalf("%s: no spans kept", phase)
		}
	}
	core := filepath.Join(work, "core")
	for _, warm := range []bool{false, true} {
		if pr := runPhase(ctx, fx, core, warm, true); len(pr.failed) > 0 {
			t.Fatalf("core.Run warm=%v: %v", warm, pr.failed)
		}
	}
}
