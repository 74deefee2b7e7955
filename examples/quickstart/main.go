// Quickstart: run a small end-to-end gaugeNN study through the
// context-first API — compose a Study from options, run it under a
// signal-cancellable context (Ctrl-C stops the pipeline cleanly), and
// print the headline numbers of the paper's Tables 2 and 3, then
// benchmark a handful of the extracted models on two device tiers.
package main

import (
	"context"
	"fmt"
	"log"
	"os/signal"
	"syscall"

	"github.com/gaugenn/gaugenn"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// 5% of the paper's store size keeps this to a few seconds; add
	// gaugenn.WithHTTPCrawl(true) for the realistic store-API path.
	study := gaugenn.NewStudy(
		gaugenn.WithSeed(42),
		gaugenn.WithScale(0.05),
	)
	res, err := study.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}

	d20, d21 := res.Corpus20.Dataset(), res.Corpus21.Dataset()
	fmt.Println("=== Dataset (Table 2 shape) ===")
	fmt.Printf("%-22s %10s %10s\n", "", "2020", "2021")
	fmt.Printf("%-22s %10d %10d\n", "total apps", d20.TotalApps, d21.TotalApps)
	fmt.Printf("%-22s %10d %10d\n", "apps w/ frameworks", d20.AppsWithFw, d21.AppsWithFw)
	fmt.Printf("%-22s %10d %10d\n", "apps w/ models", d20.AppsWithModels, d21.AppsWithModels)
	fmt.Printf("%-22s %10d %10d\n", "total models", d20.TotalModels, d21.TotalModels)
	fmt.Printf("%-22s %10d %10d\n", "unique models", d20.UniqueModels, d21.UniqueModels)
	fmt.Printf("model growth 2020->2021: %.2fx (paper: 2.03x)\n\n",
		float64(d21.TotalModels)/float64(d20.TotalModels))

	rows, identified := res.Corpus21.TaskBreakdown(true)
	fmt.Println("=== Top tasks (Table 3 shape) ===")
	for i, r := range rows {
		if i >= 5 {
			break
		}
		fmt.Printf("%-24s %4d models\n", r.Task, r.Count)
	}
	fmt.Printf("identified: %d/%d (paper: 91.9%%)\n\n", identified, d21.TotalModels)

	// Benchmark a few extracted models on a low-tier and high-tier device
	// through Bench: a context plus a RunSpec.
	models, err := gaugenn.SelectBenchModels(res.Corpus21, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== On-device latency (CPU, 4 threads) ===")
	for _, device := range []string{"A20", "S21"} {
		results, err := gaugenn.Bench(ctx, gaugenn.RunSpec{
			Device: device, Backend: "cpu", Threads: 4, Batch: 1, Runs: 5,
		}, models)
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range results {
			if r.Error != "" {
				fmt.Printf("%-4s %-36s error: %s\n", device, r.ModelName, r.Error)
				continue
			}
			fmt.Printf("%-4s %-36s %10v  %8.2f mJ\n",
				device, r.ModelName, r.MeanLatency(), r.MeanEnergymJ())
		}
	}
}
