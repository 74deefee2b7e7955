package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gaugenn/gaugenn/internal/store"
)

// tracer records spans around calls into the program's layers. The
// driver that uses it is sequential, so spans nest strictly: a layer's
// self time is its span's duration minus the time its child spans cover,
// and the self times of all layers, the root's included, add up to the
// root's wall time exactly. Spans stay in memory until the run writes
// them out.
type tracer struct {
	mu        sync.Mutex
	t0        time.Time
	keepSpans bool
	spans     []span
	open      []openSpan
	self      map[string]time.Duration
	lastDur   time.Duration // duration of the span that ended last
}

type span struct {
	Name       string
	Start, Dur time.Duration // Start is relative to t0
	Depth      int
}

type openSpan struct {
	name     string
	start    time.Time
	children time.Duration
}

func newTracer(t0 time.Time, keepSpans bool) *tracer {
	return &tracer{t0: t0, keepSpans: keepSpans, self: map[string]time.Duration{}}
}

func (t *tracer) begin(name string) {
	t.mu.Lock()
	t.open = append(t.open, openSpan{name: name, start: time.Now()})
	t.mu.Unlock()
}

func (t *tracer) end() {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	top := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	d := now.Sub(top.start)
	t.lastDur = d
	t.self[top.name] += d - top.children
	if n := len(t.open); n > 0 {
		t.open[n-1].children += d
	}
	if t.keepSpans {
		t.spans = append(t.spans, span{Name: top.name, Start: top.start.Sub(t.t0), Dur: d, Depth: len(t.open)})
	}
}

// do runs f inside a span.
func (t *tracer) do(name string, f func() error) error {
	t.begin(name)
	defer t.end()
	return f()
}

// selfTotal sums every layer's self time.
func (t *tracer) selfTotal() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum time.Duration
	for _, d := range t.self {
		sum += d
	}
	return sum
}

// chromeEvent is one entry of a Chrome trace-event JSON array, the format
// `gaugenn study -trace` writes; Perfetto and chrome://tracing open it.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	Ts    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeTrace renders the kept spans as complete events on one track.
func (t *tracer) chromeTrace(pid int, process string) []chromeEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	evs := []chromeEvent{{Name: "process_name", Phase: "M", Pid: pid, Args: map[string]any{"name": process}}}
	for _, s := range t.spans {
		evs = append(evs, chromeEvent{
			Name: s.Name, Phase: "X", Ts: s.Start.Microseconds(), Dur: max(s.Dur.Microseconds(), 1),
			Pid: pid, Tid: 1, Args: map[string]any{"depth": s.Depth},
		})
	}
	return evs
}

// writeChromeTrace writes driver spans plus any already-rendered event
// arrays (each a JSON array, such as obs.Tracer.ChromeTrace output) as
// one trace file, the extra arrays on their own process ids.
func writeChromeTrace(path string, evs []chromeEvent, extra ...[]byte) error {
	all := make([]any, 0, len(evs))
	for _, e := range evs {
		all = append(all, e)
	}
	for i, raw := range extra {
		var more []map[string]any
		if err := json.Unmarshal(raw, &more); err != nil {
			return fmt.Errorf("merging trace: %w", err)
		}
		for _, e := range more {
			e["pid"] = 100 + i
			all = append(all, e)
		}
	}
	data, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printLayerTable prints each layer's self time and its share of the wall
// time the shares are taken against.
func printLayerTable(w io.Writer, title string, self map[string]time.Duration, wall time.Duration) {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "%s (wall %.3f s)\n", title, wall.Seconds())
	for _, n := range names {
		share := 0.0
		if wall > 0 {
			share = 100 * float64(self[n]) / float64(wall)
		}
		fmt.Fprintf(w, "  %-22s %9.4f s %6.2f%%\n", n, self[n].Seconds(), share)
	}
}

// timingFS is a store.FS over the real disk that times and counts every
// operation. With a tracer attached (the sequential driver) each call is
// also a leaf span, so disk time is carved out of the layer that caused
// it; without one (the concurrent core.Run) it only accumulates busy
// time, which may exceed wall time when both snapshots hit the disk.
type timingFS struct {
	store.OSFS
	tr *tracer

	readNs, writeNs atomic.Int64
	reads, writes   atomic.Int64 // ReadFile calls; WriteFileAtomic and Append calls
	readB, writeB   atomic.Int64
}

func (f *timingFS) timed(span string, ns *atomic.Int64) func() {
	if f.tr != nil {
		f.tr.begin(span)
	}
	start := time.Now()
	return func() {
		ns.Add(int64(time.Since(start)))
		if f.tr != nil {
			f.tr.end()
		}
	}
}

func (f *timingFS) ReadFile(name string) ([]byte, error) {
	defer f.timed("store.fs_read", &f.readNs)()
	b, err := f.OSFS.ReadFile(name)
	f.reads.Add(1)
	f.readB.Add(int64(len(b)))
	return b, err
}

func (f *timingFS) Stat(name string) (os.FileInfo, error) {
	defer f.timed("store.fs_read", &f.readNs)()
	return f.OSFS.Stat(name)
}

func (f *timingFS) ReadDir(name string) ([]os.DirEntry, error) {
	defer f.timed("store.fs_read", &f.readNs)()
	return f.OSFS.ReadDir(name)
}

func (f *timingFS) WriteFileAtomic(name string, data []byte) error {
	defer f.timed("store.fs_write", &f.writeNs)()
	f.writes.Add(1)
	f.writeB.Add(int64(len(data)))
	return f.OSFS.WriteFileAtomic(name, data)
}

func (f *timingFS) Append(name string, data []byte) error {
	defer f.timed("store.fs_write", &f.writeNs)()
	f.writes.Add(1)
	f.writeB.Add(int64(len(data)))
	return f.OSFS.Append(name, data)
}
