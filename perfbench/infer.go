package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/gaugenn/gaugenn/internal/exec"
	"github.com/gaugenn/gaugenn/internal/nn/zoo"
)

// The infer workload: the exec interpreter over a fixed zoo mix, each
// model in fp32 and post-training-quantized int8, run through exec.Pool
// with one worker per CPU as a closed loop. Seeds per pass are sized so
// every model takes a similar share of a pass (about a quarter second
// on one 2-vCPU box); the int8 variant runs the first seeds of the fp32
// variant's list, so their outputs can be compared.
var inferModels = []struct {
	name string
	task zoo.Task
	fp32 int // inferences per pass
	int8 int
}{
	{"mobilenetv2", zoo.TaskImageClassification, 4, 3},
	{"blazeface", zoo.TaskFaceDetection, 10, 6},
	{"kws", zoo.TaskKeywordDetection, 400, 270},
}

const (
	inferSetups = 5
	minCosine   = 0.95 // the interpreter's documented int8-vs-fp32 agreement
	// inferWeightSeed fixes the zoo mix's weights, so --seed varies only
	// the inputs. It is the seed of the interpreter's own int8-vs-fp32
	// agreement test. Weights drawn from other seeds can miss minCosine
	// on MobileNetV2 (seed 1005: 0.9484 on one input).
	inferWeightSeed = 31
)

// inferProgram is one compiled (model, precision) with its pass seeds
// and their single-instance reference digests.
type inferProgram struct {
	model, precision string
	prog             *exec.Program
	seeds            []uint64
	ref              [][32]byte
	compile          time.Duration
}

func (p *inferProgram) label() string { return p.model + "." + p.precision }

// inferSeeds derives the input seeds of the model at index m of
// inferModels from the workload seed.
func inferSeeds(seed int64, m, n int) []uint64 {
	rng := rand.New(rand.NewSource(seed*int64(len(inferModels)) + int64(m)))
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64()
	}
	return out
}

// setupInfer builds and compiles every program and computes reference
// digests on standalone instances (one goroutine per CPU, each instance
// running its seeds in order), checking int8 against fp32 outputs.
func setupInfer(seed int64) ([]*inferProgram, []string, error) {
	var progs []*inferProgram
	for i, m := range inferModels {
		seeds := inferSeeds(seed, i, m.fp32)
		for _, v := range []struct {
			precision string
			quant     bool
			n         int
		}{{"fp32", false, m.fp32}, {"int8", true, m.int8}} {
			start := time.Now()
			g, err := zoo.Build(zoo.Spec{Task: m.task, Seed: inferWeightSeed, Quantized: v.quant})
			if err != nil {
				return nil, nil, fmt.Errorf("building %s %s: %w", m.name, v.precision, err)
			}
			prog, err := exec.Compile(g)
			if err != nil {
				return nil, nil, fmt.Errorf("compiling %s %s: %w", m.name, v.precision, err)
			}
			progs = append(progs, &inferProgram{
				model: m.name, precision: v.precision, prog: prog,
				seeds: seeds[:v.n], compile: time.Since(start),
			})
		}
	}
	var failed []string
	for i := 0; i < len(progs); i += 2 {
		fp, q := progs[i], progs[i+1]
		outs := referenceRun(fp)
		qouts := referenceRun(q)
		for s := range q.seeds {
			for j, name := range fp.prog.Outputs() {
				if c := cosine(outs[s][j], qouts[s][j]); !(c >= minCosine) {
					failed = append(failed, fmt.Sprintf("%s seed %d output %s: int8 vs fp32 cosine %.4f < %.2f",
						fp.model, q.seeds[s], name, c, minCosine))
				}
			}
		}
	}
	return progs, failed, nil
}

// referenceRun fills p.ref with one standalone-instance digest per seed
// and returns each seed's real-valued outputs, by position, for the
// int8-vs-fp32 comparison.
func referenceRun(p *inferProgram) [][][]float32 {
	workers := runtime.NumCPU()
	p.ref = make([][32]byte, len(p.seeds))
	outs := make([][][]float32, len(p.seeds))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			in := p.prog.NewInstance()
			for i := w; i < len(p.seeds); i += workers {
				in.Run(p.seeds[i])
				p.ref[i] = in.Digest()
				for _, name := range p.prog.Outputs() {
					outs[i] = append(outs[i], in.Output(name))
				}
			}
		}(w)
	}
	wg.Wait()
	return outs
}

func cosine(a, b []float32) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	var dot, na, nb float64
	for i := range a {
		dot += float64(a[i]) * float64(b[i])
		na += float64(a[i]) * float64(a[i])
		nb += float64(b[i]) * float64(b[i])
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

func runInfer(ctx context.Context, o options) (*result, error) {
	res := newResult()
	var (
		progs     []*inferProgram
		setups    []float64
		compiles  []float64
		refDigest [][][32]byte
	)
	for i := 0; i < inferSetups; i++ {
		progs = nil
		runtime.GC()
		start := time.Now()
		p, failed, err := setupInfer(o.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		var compile time.Duration
		var refs [][][32]byte
		for _, pp := range p {
			compile += pp.compile
			refs = append(refs, pp.ref)
		}
		compiles = append(compiles, compile.Seconds())
		if i == 0 {
			refDigest = refs
		} else if fmt.Sprint(refs) != fmt.Sprint(refDigest) {
			failed = append(failed, "set-up: recompiled programs gave different reference digests")
		}
		res.op(failed...)
		progs = p
	}
	workers := runtime.NumCPU()
	pools := make([]*exec.Pool, len(progs))
	var arena int64
	for i, p := range progs {
		pools[i] = exec.NewPool(p.prog, workers)
		arena += p.prog.ArenaBytes() * int64(workers)
	}
	// The gated peak covers the pools and the timed passes, on top of
	// what set-up leaves resident (the compiled programs).
	baseRSS, err := resetPeakRSS()
	if err != nil {
		return nil, err
	}
	lat := map[string][]float64{}         // per program label, ms
	progCPU := map[string]time.Duration{} // process CPU time per program label
	progDone := map[string]int{}          // inferences per program label
	var (
		done         = map[string]int{}           // inferences per precision
		busyWall     = map[string]time.Duration{} // pool wall time per precision
		allocMB      []float64
		allocsPer    []float64
		busy, wallNs float64
		passes       int
	)
	deadline := time.Now().Add(o.seconds)
	for time.Now().Before(deadline) || passes == 0 {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		wall := map[string]time.Duration{}
		count := map[string]int{}
		var failed []string
		for i, p := range progs {
			start, cpu0 := time.Now(), selfCPU()
			out := pools[i].Run(p.seeds)
			d, c := time.Since(start), selfCPU()-cpu0
			wall[p.precision] += d
			progCPU[p.label()] += c
			progDone[p.label()] += len(out)
			count[p.precision] += len(out)
			wallNs += float64(d) * float64(workers)
			for j, r := range out {
				if r.Seed != p.seeds[j] || r.Digest != p.ref[j] {
					failed = append(failed, fmt.Sprintf("%s seed %d: pool digest differs from the standalone instance's", p.label(), p.seeds[j]))
				}
				l := ms(r.Latency)
				busy += float64(r.Latency)
				lat[p.label()] = append(lat[p.label()], l)
			}
		}
		runtime.ReadMemStats(&m1)
		res.op(failed...)
		for prec, d := range wall {
			done[prec] += count[prec]
			busyWall[prec] += d
		}
		allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		allocsPer = append(allocsPer, float64(m1.Mallocs-m0.Mallocs)/float64(count["fp32"]+count["int8"]))
		passes++
	}
	res.setE2E("setup_s", "s", median(setups))
	// Both gated figures are CPU time, over the whole run: on a shared
	// 2-vCPU machine wall time also carries the hypervisor's CPU steal,
	// and the per-model wall-clock p50 spread about half as much again
	// as CPU time between runs. The rate is count-weighted, so the
	// keyword CNN's many inferences dominate it; the per-inference cost
	// is the geometric mean over models of each model's CPU time per
	// inference, so every model counts equally whatever its share of
	// the pass and however far apart the models' costs are.
	rate := func(prec string) float64 {
		var cpu time.Duration
		for _, m := range inferModels {
			cpu += progCPU[m.name+"."+prec]
		}
		return float64(done[prec]) / cpu.Seconds()
	}
	wallRate := func(prec string) float64 { return float64(done[prec]) / busyWall[prec].Seconds() }
	latency := func(prec string) float64 {
		perInfer := map[string]float64{}
		for _, m := range inferModels {
			label := m.name + "." + prec
			perInfer[m.name] = ms(progCPU[label]) / float64(progDone[label])
		}
		return geomean(perInfer)
	}
	res.setE2E("main_per_s", "1/s", rate("fp32"))
	res.setE2E("alt_per_s", "1/s", rate("int8"))
	res.setE2E("main_ms", "ms", latency("fp32"))
	res.setE2E("alt_ms", "ms", latency("int8"))
	res.setE2E("alloc_mb", "MB", median(allocMB))
	res.setE2E("peak_rss_mb", "MB", peakRSSMB(os.Getpid()))

	res.setLayer("exec.compile_s", "s", median(compiles))
	res.setLayer("exec.pool_busy_frac", "ratio", busy/wallNs)
	res.setLayer("exec.arena_mb", "MB", float64(arena)/(1<<20))
	res.setLayer("exec.allocs_per_infer", "count", median(allocsPer))
	for _, p := range progs {
		res.setLayer("exec."+p.label()+"_p50_ms", "ms", percentile(lat[p.label()], 50))
		res.setLayer("exec."+p.label()+"_p99_ms", "ms", percentile(lat[p.label()], 99))
	}
	if o.trace {
		inferClassStats(progs, res)
	}
	res.notef("infer seed=%d workers=%d closed loop, %d passes; per pass: %s", o.seed, workers, passes, passMix(progs))
	res.notef("  setup_s          %10.4f s    (median of %d: build, compile, reference digests)", median(setups), len(setups))
	for _, prec := range []string{"fp32", "int8"} {
		res.notef("  %s_infer_per_s %10.2f per CPU-second (%.2f per wall second, %d inferences); geomean of models' CPU ms per inference %.3f ms",
			prec, rate(prec), wallRate(prec), done[prec], latency(prec))
	}
	res.notef("  alloc_mb         %10.4f MB   per pass", median(allocMB))
	res.notef("  peak_rss_mb      %10.1f MB   (timed passes; %.1f MB resident after set-up)", peakRSSMB(os.Getpid()), baseRSS)
	res.notef("  error_rate       %10.4f      (%d of %d operations failed)", errorRate(res), res.Failed, res.Attempted)
	return res, nil
}

func passMix(progs []*inferProgram) string {
	var parts []string
	for _, p := range progs {
		parts = append(parts, fmt.Sprintf("%s x%d", p.label(), len(p.seeds)))
	}
	return strings.Join(parts, ", ")
}

// inferClasses are the operator classes reported per precision.
var inferClasses = []string{"conv", "depth_conv", "dense", "pooling", "math", "quant"}

// inferClassStats runs one pass of every program on a standalone
// instance and reduces Instance.Stats into per-class time and measured
// GFLOP/s per precision, weighted by each model's share of the pass.
func inferClassStats(progs []*inferProgram, res *result) {
	type acc struct{ ns, flops float64 }
	sums := map[string]*acc{}
	for _, p := range progs {
		in := p.prog.NewInstance()
		for _, s := range p.seeds {
			in.Run(s)
		}
		for _, st := range in.Stats() {
			k := st.Class + "." + p.precision
			if sums[k] == nil {
				sums[k] = &acc{}
			}
			sums[k].ns += float64(st.Nanos) * float64(len(p.seeds))
			sums[k].flops += float64(st.EstFLOPs) * float64(len(p.seeds))
		}
	}
	keys := make([]string, 0, len(sums))
	for k := range sums {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var table strings.Builder
	table.WriteString("per-class time per pass on one instance:\n")
	for _, k := range keys {
		a := sums[k]
		gflops := 0.0
		if a.ns > 0 {
			gflops = a.flops / a.ns
		}
		fmt.Fprintf(&table, "  %-20s %12.0f ns %8.3f GFLOP/s\n", k, a.ns, gflops)
		res.setLayer("exec.class."+k+"_ns", "ns", a.ns)
		res.setLayer("exec.class."+k+"_gflops", "GFLOP/s", gflops)
	}
	res.notef("%s", strings.TrimRight(table.String(), "\n"))
}
