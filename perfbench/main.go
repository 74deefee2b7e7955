// Command perfbench is gaugenn's repository benchmark. It measures the
// program from outside, through the public API of its packages (study,
// infer) or over HTTP against a `gaugenn serve` process (serve), checks
// every output it produces, and prints one JSON result as its last line.
//
// Usage (from the repository root; run.sh builds both binaries first):
//
//	bash perfbench/run.sh --workload study|infer|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// a separate, traced run collects the per-layer metrics, prints a
// per-layer table and writes a Chrome trace-event JSON file. See
// perfbench/NOTES.md for what every metric means on every workload.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// options are the parsed command-line arguments shared by every workload.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	bin      string // gaugenn binary built from the tree under test
	work     string // scratch directory for stores and traces
}

func main() {
	var (
		o       options
		seconds int
		trace   int
	)
	flag.StringVar(&o.workload, "workload", "", "workload: study, infer or serve")
	flag.Int64Var(&o.seed, "seed", 1, "input seed; equal seeds give equal inputs")
	flag.IntVar(&seconds, "seconds", 10, "how long the timed loop measures")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer variant")
	flag.StringVar(&o.bin, "bin", "", "path of the gaugenn binary (serve workload)")
	flag.StringVar(&o.work, "work", ".bench_build/work", "scratch directory")
	flag.Parse()
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	if seconds < 1 || (trace != 0 && trace != 1) {
		fatalf("--seconds must be positive and --trace 0 or 1")
	}
	run, ok := workloads[o.workload]
	if !ok {
		fatalf("unknown --workload %q (want study, infer or serve)", o.workload)
	}
	abs, err := filepath.Abs(o.work)
	if err != nil {
		fatalf("%v", err)
	}
	o.work = filepath.Join(abs, fmt.Sprintf("%s-%d-%d", o.workload, o.seed, os.Getpid()))
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fatalf("%v", err)
	}
	steal0, total0 := cpuStat()
	res, err := run(context.Background(), o)
	// Stores are large and per run; traces are kept next to them only
	// when asked for, so the scratch directory never grows across runs.
	if rerr := removeWork(o.work); rerr != nil && err == nil {
		err = rerr
	}
	if err != nil {
		fatalf("%s: %v", o.workload, err)
	}
	// Time the hypervisor gave to other guests shows as slower runs and
	// longer latency tails; reporting it lets a reader discount a run.
	if steal1, total1 := cpuStat(); total1 > total0 {
		res.notef("host: %.1f%% of CPU time stolen by the hypervisor during the run",
			100*float64(steal1-steal0)/float64(total1-total0))
	}
	res.print(os.Stdout, o.trace)
}

// workloads maps each --workload name to its runner.
var workloads = map[string]func(context.Context, options) (*result, error){
	"study": runStudy,
	"infer": runInfer,
	"serve": runServe,
}

// removeWork deletes a run's scratch directory except any trace file,
// which moves up one level so it survives the run.
func removeWork(dir string) error {
	traces, _ := filepath.Glob(filepath.Join(dir, "*.trace.json"))
	for _, t := range traces {
		if err := os.Rename(t, filepath.Join(filepath.Dir(dir), filepath.Base(t))); err != nil {
			return err
		}
	}
	return os.RemoveAll(dir)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// e2e and layers hold both metric sets; print emits the one the run
	// was asked for. summary lines go to the human-readable table.
	e2e, layers map[string]metric
	summary     []string
	failures    []string
}

func newResult() *result {
	return &result{e2e: map[string]metric{}, layers: map[string]metric{}}
}

// op records one attempted operation; a non-empty list of failed checks
// makes it a failed one.
func (r *result) op(failed ...string) {
	r.Attempted++
	if len(failed) > 0 {
		r.Failed++
		r.failures = append(r.failures, failed...)
	}
}

func (r *result) setE2E(name, unit string, v float64)   { r.e2e[name] = metric{v, unit} }
func (r *result) setLayer(name, unit string, v float64) { r.layers[name] = metric{v, unit} }

func (r *result) notef(format string, args ...any) {
	r.summary = append(r.summary, fmt.Sprintf(format, args...))
}

// print writes the human-readable summary, then the JSON result line.
// Every declared metric of the requested set is present: layers a
// workload does not exercise report 0 (no work, no time).
func (r *result) print(f *os.File, trace bool) {
	for _, s := range r.summary {
		fmt.Fprintln(f, s)
	}
	for _, s := range r.failures {
		fmt.Fprintln(f, "FAILED CHECK:", s)
	}
	r.Metrics = map[string]metric{}
	if trace {
		for _, m := range perLayer {
			v, ok := r.layers[m.name]
			if !ok {
				v = metric{0, m.unit}
			}
			r.Metrics[m.name] = v
		}
	} else {
		for _, m := range endToEnd {
			v, ok := r.e2e[m.name]
			if !ok {
				// A workload that cannot produce an end-to-end metric is
				// a harness bug; surface it as a failed check.
				r.op("missing end-to-end metric " + m.name)
				v = metric{0, m.unit}
			}
			r.Metrics[m.name] = v
		}
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	line, err := json.Marshal(r)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Fprintln(f, string(line))
}
