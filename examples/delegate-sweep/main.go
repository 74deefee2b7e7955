// Delegate-sweep reproduces Figures 13 and 14 on the Q845 HDK: CPU
// runtimes (plain vs XNNPACK vs NNAPI) and SNPE hardware targets (CPU,
// GPU, DSP) over a model population. The sweep is expressed as a fleet
// benchmark matrix — 18 models x 1 device x 7 backends — dispatched
// across a pool of Q845 rigs, each job driven through the full TCP
// master-slave harness, USB power cycling and Monsoon-style energy
// capture, exactly as Figure 3 choreographs it. The fleet's thermal
// pacing cools the device between jobs, so every backend sees the same
// cold-start conditions and the aggregated output is byte-identical for
// any pool size.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os/signal"
	"syscall"

	"github.com/gaugenn/gaugenn/internal/fleet"
	"github.com/gaugenn/gaugenn/internal/nn/zoo"
	"github.com/gaugenn/gaugenn/internal/report"
	"github.com/gaugenn/gaugenn/internal/stats"
)

func main() {
	// The sweep runs under a signal-cancellable context; Ctrl-C
	// drains the per-device queues and aborts in-flight rig choreography.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	// Model population: vision-heavy, like the commonly-compatible subset
	// the paper sweeps.
	rng := rand.New(rand.NewSource(2024))
	tasks := []zoo.Task{
		zoo.TaskObjectDetection, zoo.TaskFaceDetection, zoo.TaskImageClassification,
		zoo.TaskSemanticSegmentation, zoo.TaskContourDetection, zoo.TaskPhotoBeauty,
	}
	var models []fleet.ModelSpec
	for i := 0; i < 18; i++ {
		task := tasks[i%len(tasks)]
		ms, err := fleet.ZooModel(zoo.Spec{Task: task, Seed: int64(i + 1), Opts: zoo.DefaultOptsFor(task, rng)})
		if err != nil {
			log.Fatal(err)
		}
		models = append(models, ms)
	}

	sweep := []string{"cpu", "xnnpack", "nnapi", "gpu", "snpe-cpu", "snpe-gpu", "snpe-dsp"}
	matrix := fleet.Matrix{
		Models:   models,
		Devices:  []string{"Q845"},
		Backends: sweep,
		Threads:  4,
		Warmup:   2,
		Runs:     5,
	}

	// Device pool: two Q845 rigs (agent + USB switch + monitor, driven by
	// a master over TCP — the real harness path) halve the sweep's
	// wall-clock without changing a byte of the output.
	pool, err := fleet.NewLocalPool(matrix.Devices, 2)
	if err != nil {
		log.Fatal(err)
	}
	defer pool.Close()
	agg, err := pool.Run(ctx, matrix, fleet.Config{})
	if err != nil {
		log.Fatal(err)
	}

	meanLat := map[string]float64{}
	meanEng := map[string]float64{}
	perLat := map[string][]float64{}
	perEng := map[string][]float64{}
	for _, ur := range agg.Units() {
		if ur.Unit.Skip != "" || ur.Result.Error != "" {
			continue
		}
		b := ur.Unit.Backend
		perLat[b] = append(perLat[b], ur.Result.MeanLatency().Seconds()*1000)
		perEng[b] = append(perEng[b], ur.Result.MeanEnergymJ())
	}
	for _, backend := range sweep {
		meanLat[backend] = stats.Mean(perLat[backend])
		meanEng[backend] = stats.Mean(perEng[backend])
		fmt.Print(report.ECDFSummary("latency "+backend, perLat[backend], "ms"))
	}

	fmt.Println()
	fmt.Print(agg.LatencyTable())
	fmt.Println()
	fmt.Print(report.Comparisons("Figure 13/14 speedups vs plain CPU (Q845)", []report.Comparison{
		{Metric: "XNNPACK speedup", Paper: 1.03, Measured: meanLat["cpu"] / meanLat["xnnpack"], Unit: "x"},
		{Metric: "NNAPI relative speed", Paper: 0.49, Measured: meanLat["cpu"] / meanLat["nnapi"], Unit: "x"},
		{Metric: "SNPE DSP speedup", Paper: 5.72, Measured: meanLat["cpu"] / meanLat["snpe-dsp"], Unit: "x"},
		{Metric: "SNPE GPU speedup", Paper: 2.28, Measured: meanLat["cpu"] / meanLat["snpe-gpu"], Unit: "x"},
		{Metric: "SNPE GPU vs GPU delegate", Paper: 1.19, Measured: meanLat["gpu"] / meanLat["snpe-gpu"], Unit: "x"},
		{Metric: "DSP energy advantage", Paper: 20.3, Measured: meanEng["cpu"] / meanEng["snpe-dsp"], Unit: "x"},
	}))
}
