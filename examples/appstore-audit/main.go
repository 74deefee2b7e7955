// Appstore-audit reproduces the offline analysis chapters (Sections 4 and
// 6.1) over both snapshots: framework mix per category (Figure 4), model
// churn between years (Figure 5), uniqueness and fine-tuning (Section
// 4.5), layer composition per modality (Figure 6), optimisation adoption
// (Section 6.1), cloud API usage (Figure 15), and the device-specific
// delivery probe of Section 4.2.
package main

import (
	"context"
	"fmt"
	"log"
	"os/signal"
	"syscall"

	"github.com/gaugenn/gaugenn/internal/core"
	"github.com/gaugenn/gaugenn/internal/nn/graph"
	"github.com/gaugenn/gaugenn/internal/report"
)

func main() {
	// The audit runs under a signal-cancellable context — Ctrl-C
	// drains the crawl instead of killing it mid-extraction.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	cfg := core.DefaultConfig(1337, 0.06)
	cfg.UseHTTP = true // audit through the store API, like gaugeNN
	res, err := core.Run(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}
	c21 := res.Corpus21

	// Figure 4: frameworks per category.
	fwTotals := c21.FrameworkTotals()
	fmt.Print(report.CountBars("Figure 4 (totals): model instances per framework", fwTotals))
	fmt.Println()

	// Figure 5: churn.
	rows := core.TemporalDiffRows(res)
	churnRows := make([][]string, 0, len(rows))
	for _, r := range rows {
		churnRows = append(churnRows, []string{r.Category, fmt.Sprint(r.Added), fmt.Sprint(r.Removed), fmt.Sprint(r.Added - r.Removed)})
	}
	fmt.Print(report.Table("Figure 5: per-category model churn 2020 -> 2021",
		[]string{"category", "added", "removed", "net"}, churnRows))
	fmt.Println()

	// Section 4.5: architecture popularity.
	archRows := [][]string{}
	for i, r := range c21.ArchitectureBreakdown() {
		if i >= 8 {
			break
		}
		archRows = append(archRows, []string{r.Arch.String(), fmt.Sprint(r.Uniques), fmt.Sprint(r.Instances)})
	}
	fmt.Print(report.Table("Architecture popularity (paper: FSSD top detector, BlazeFace for faces, MobileNet spanning tasks)",
		[]string{"architecture", "uniques", "instances"}, archRows))
	fmt.Println()

	// Section 4.5: uniqueness and fine-tuning.
	fmt.Printf("unique models: %d of %d (%.1f%%; paper: 19.1%%)\n",
		c21.UniqueModels(), c21.TotalModels(),
		100*float64(c21.UniqueModels())/float64(c21.TotalModels()))
	fmt.Printf("instances shared across >=2 apps: %.1f%% (paper: ~80.9%%)\n",
		100*c21.InstancesSharedAcrossApps())
	ft := c21.FineTuning()
	fmt.Printf("uniques sharing >=20%% of layers: %.2f%% (paper: 9.02%%)\n", 100*ft.SharingFrac)
	fmt.Printf("uniques differing in <=3 layers:  %.2f%% (paper: 4.2%%)\n\n", 100*ft.SmallDeltaFrac)

	// Figure 6: layer composition per modality.
	comp := c21.LayerComposition()
	for _, m := range []graph.Modality{graph.ModalityImage, graph.ModalityText, graph.ModalityAudio} {
		if classes, ok := comp[m]; ok {
			fmt.Printf("layer mix (%s): conv %.0f%%, depth_conv %.0f%%, dense %.0f%%, activation %.0f%%\n",
				m, 100*classes[graph.ClassConv], 100*classes[graph.ClassDepthConv],
				100*classes[graph.ClassDense], 100*classes[graph.ClassActivation])
		}
	}
	fmt.Println()

	// Section 6.1: optimisation adoption.
	opt := c21.Optimisations()
	fmt.Printf("clustered models: %d (paper: 0), pruned: %d (paper: 0)\n", opt.ClusteredModels, opt.PrunedModels)
	fmt.Printf("dequantize layers: %.1f%% (paper: 10.3%%), int8 weights: %.1f%% (paper: 20.27%%), int8 activations: %.1f%% (paper: 10.31%%)\n",
		100*opt.DequantizeFrac, 100*opt.Int8WeightFrac, 100*opt.Int8ActivationFrac)
	fmt.Printf("near-zero weights: %.2f%% (paper: 3.15%%)\n\n", 100*opt.MeanWeightSparsity)

	// Figure 15: cloud APIs.
	perAPI, g, a, total := c21.CloudAPIUsage()
	fmt.Print(report.CountBars(
		fmt.Sprintf("Figure 15: cloud ML APIs (%d apps: %d Google, %d AWS)", total, g, a), perAPI))
	fmt.Println()

	// Section 4.2: device-specific delivery probe.
	probePkg := res.Store.Snap21.Apps[0].Package
	for _, app := range res.Store.Snap21.Apps {
		if len(app.Models) > 0 {
			probePkg = app.Package
			break
		}
	}
	same, err := core.DeliveryProbe(ctx, res.Store, probePkg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Section 4.2 delivery probe (%s): old-device APK identical = %v (paper: no device-specific delivery found)\n",
		probePkg, same)
}
