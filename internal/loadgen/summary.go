package loadgen

import (
	"time"

	"github.com/gaugenn/gaugenn/internal/stats"
)

// Quantiles summarises one latency distribution in milliseconds.
type Quantiles struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50_ms"`
	P90 float64 `json:"p90_ms"`
	P99 float64 `json:"p99_ms"`
	Max float64 `json:"max_ms"`
}

// summarise computes nearest-rank percentiles (stats.ECDF.Quantile: the
// smallest sample with at least a p share of samples at or below it)
// over samples, in milliseconds. An empty sample set yields the zero
// value (N=0), which downstream SLO checks must treat as "no data", not
// "zero latency".
func summarise(samples []time.Duration) Quantiles {
	if len(samples) == 0 {
		return Quantiles{}
	}
	ms := make([]float64, len(samples))
	for i, d := range samples {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	e := stats.NewECDF(ms)
	return Quantiles{
		N:   e.Len(),
		P50: e.Quantile(0.50),
		P90: e.Quantile(0.90),
		P99: e.Quantile(0.99),
		Max: e.Quantile(1),
	}
}

// Summary is one load run's aggregated outcome — the shape persisted to
// BENCH_serve.json and asserted against by the CI overload smoke.
type Summary struct {
	// Offered load.
	Clients     int `json:"clients"`
	Tenants     int `json:"tenants"`
	Submissions int `json:"submissions"`

	// Admission outcomes. Shed counts 503/429 answers (each retried);
	// ShedHonored counts sheds whose Retry-After header parsed, i.e. the
	// server told the client how to behave and the client obeyed.
	Accepted    int `json:"accepted"`
	Shed        int `json:"shed"`
	ShedHonored int `json:"shed_honored"`
	// NonShed5xx counts 5xx answers that were NOT deliberate load-shedding
	// (no Retry-After discipline) — the overload smoke requires zero.
	NonShed5xx  int `json:"non_shed_5xx"`
	OtherErrors int `json:"other_errors"`

	// Terminal study states for accepted submissions.
	Completed  int `json:"completed"`
	Cancelled  int `json:"cancelled"`
	Failed     int `json:"failed"`
	Unresolved int `json:"unresolved"`
	// Preempted counts studies that were preempted at least once and still
	// reached a terminal state (the warm-resume path exercised for real).
	Preempted int `json:"preempted"`

	// Chaos behaviours exercised.
	RudeDisconnects int `json:"rude_disconnects"`
	StalledReaders  int `json:"stalled_readers"`
	CancelsIssued   int `json:"cancels_issued"`
	Reconnects      int `json:"reconnects"`

	// Stream integrity. Gaps counts cursor regressions or duplicates —
	// events whose seq was not strictly greater than everything already
	// seen for that study — and must be zero: the resume protocol promises
	// no-gap no-dup. Truncations counts honest "your cursor predates the
	// ring" notices, which are legitimate under deep backlog.
	Events      int64 `json:"events"`
	Gaps        int   `json:"gaps"`
	Truncations int   `json:"truncations"`

	// Latency distributions, client-observed.
	SubmitToFirstEvent Quantiles `json:"submit_to_first_event"`
	QueueWait          Quantiles `json:"queue_wait"`

	ElapsedMS float64 `json:"elapsed_ms"`
}

// healthy reports the invariants every run must satisfy regardless of
// load level; Run returns an error when they fail so CI wiring is a
// one-line exit-status check.
func (s *Summary) healthy() []string {
	var bad []string
	if s.Gaps > 0 {
		bad = append(bad, "resume protocol gaps/duplicates observed")
	}
	if s.NonShed5xx > 0 {
		bad = append(bad, "non-shed 5xx responses observed")
	}
	if s.Unresolved > 0 {
		bad = append(bad, "accepted studies never reached a terminal state")
	}
	return bad
}
