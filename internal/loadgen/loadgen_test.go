package loadgen

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/gaugenn/gaugenn/internal/core"
	"github.com/gaugenn/gaugenn/internal/event"
	"github.com/gaugenn/gaugenn/internal/sched"
	"github.com/gaugenn/gaugenn/internal/serve"
	"github.com/gaugenn/gaugenn/internal/store"
	"github.com/gaugenn/gaugenn/internal/testutil"
)

// fakeRun is a miniature study pipeline: a progress stream with real
// delays (so streams stay open long enough for chaos behaviours to
// land) that honours cancellation like core.Run does.
func fakeRun(ctx context.Context, cfg core.Config) (*core.StudyResult, error) {
	const total = 6
	cfg.OnEvent(event.Stamped(event.StageStart{Stage: "crawl", Snapshot: "2021", Total: total}))
	for i := 1; i <= total; i++ {
		select {
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		case <-time.After(4 * time.Millisecond):
		}
		cfg.OnEvent(event.Stamped(event.StageProgress{Stage: "crawl", Snapshot: "2021", Done: i, Total: total}))
	}
	cfg.OnEvent(event.Stamped(event.StageDone{Stage: "crawl", Snapshot: "2021", Total: total}))
	return &core.StudyResult{}, nil
}

// TestLoadRunAgainstLiveServer drives the full harness — rude clients,
// stalled readers, cancellers, shed-and-retry — against a real server
// with a fake pipeline, and checks the invariants the CI smoke relies
// on: zero gaps, zero non-shed 5xx, every accepted study resolved.
func TestLoadRunAgainstLiveServer(t *testing.T) {
	testutil.NoLeakedGoroutines(t)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sch := sched.New(sched.Config{
		MaxWorkers: 2,
		MaxQueue:   8,
		RetryAfter: time.Second,
		Run:        fakeRun,
	})
	srv := httptest.NewServer(serve.New(st,
		serve.WithScheduler(sch),
		serve.WithSSEWriteTimeout(250*time.Millisecond),
	).Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sum, err := Run(ctx, Config{
		BaseURL:     srv.URL,
		Clients:     8,
		Submissions: 24,
		Tenants:     4,
		Seed:        7,
		Scale:       0.01,
		RudeFrac:    0.3,
		StallFrac:   0.2,
		CancelFrac:  0.2,
		StallFor:    50 * time.Millisecond,
		MaxShedWait: 100 * time.Millisecond,
		JobTimeout:  30 * time.Second,
	})
	if err != nil {
		t.Fatalf("load run: %v (summary %+v)", err, sum)
	}
	if sum.Accepted == 0 {
		t.Fatal("no submissions accepted")
	}
	if got := sum.Completed + sum.Cancelled + sum.Failed; got != sum.Accepted {
		t.Errorf("terminal states %d != accepted %d (%+v)", got, sum.Accepted, sum)
	}
	if sum.Gaps != 0 {
		t.Errorf("resume protocol gaps: %d", sum.Gaps)
	}
	if sum.NonShed5xx != 0 {
		t.Errorf("non-shed 5xx: %d", sum.NonShed5xx)
	}
	if sum.Failed != 0 {
		t.Errorf("failed studies with an always-succeeding pipeline: %d", sum.Failed)
	}
	if sum.RudeDisconnects == 0 || sum.StalledReaders == 0 || sum.CancelsIssued == 0 {
		t.Errorf("chaos behaviours did not all fire: %+v", sum)
	}
	if sum.CancelsIssued > 0 && sum.Cancelled == 0 {
		t.Errorf("cancels issued (%d) but no study terminated cancelled", sum.CancelsIssued)
	}
	if sum.SubmitToFirstEvent.N == 0 {
		t.Error("no submit-to-first-event samples")
	}
	if sum.QueueWait.N == 0 {
		t.Error("no queue-wait samples")
	}
	if sum.Events == 0 {
		t.Error("no events observed")
	}
	// The offered load (24 into queue 8 + 2 workers) must overflow: a run
	// that never sheds is not testing admission control.
	if sum.Shed == 0 {
		t.Error("overload run never shed — admission control untested")
	}
	if sum.ShedHonored != sum.Shed {
		t.Errorf("sheds without Retry-After: %d of %d", sum.Shed-sum.ShedHonored, sum.Shed)
	}
	if err := sch.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestQuantiles pins the summary's nearest-rank definition on fixed
// samples: the p-quantile is the ceil(p*N)-th smallest sample.
func TestQuantiles(t *testing.T) {
	if q := summarise(nil); q != (Quantiles{}) {
		t.Fatalf("empty summary = %+v, want zero value", q)
	}
	ms := func(vs ...int) []time.Duration {
		out := make([]time.Duration, len(vs))
		for i, v := range vs {
			out[i] = time.Duration(v) * time.Millisecond
		}
		return out
	}
	var hundred []int
	for i := 100; i >= 1; i-- { // unsorted input
		hundred = append(hundred, i)
	}
	for _, tc := range []struct {
		samples []time.Duration
		want    Quantiles
	}{
		{ms(7), Quantiles{N: 1, P50: 7, P90: 7, P99: 7, Max: 7}},
		{ms(hundred...), Quantiles{N: 100, P50: 50, P90: 90, P99: 99, Max: 100}},
		// N=7: p50 is the 4th, p90 the 7th (ceil 6.3), p99 the 7th.
		{ms(70, 10, 60, 20, 50, 30, 40), Quantiles{N: 7, P50: 40, P90: 70, P99: 70, Max: 70}},
		// N=64 (the recorded overload run's size): p99 is the 64th.
		{ms(hundred[36:]...), Quantiles{N: 64, P50: 32, P90: 58, P99: 64, Max: 64}},
	} {
		if got := summarise(tc.samples); got != tc.want {
			t.Errorf("summarise(%d samples) = %+v, want %+v", len(tc.samples), got, tc.want)
		}
	}
}

func TestRunRequiresBaseURL(t *testing.T) {
	if _, err := Run(context.Background(), Config{}); err == nil {
		t.Fatal("Run without BaseURL succeeded")
	}
}
