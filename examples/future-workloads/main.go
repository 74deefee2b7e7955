// Future-workloads explores the deployment modes the paper's Discussion
// (Sections 6.4 and 8.1) flags as the next frontier: DNN co-habitation
// (several models resident on one device), cloud offloading as the
// device-independent alternative, and the A16W8 hybrid quantisation scheme
// shipped hardware already supports but no in-the-wild model uses.
package main

import (
	"context"
	"fmt"
	"log"
	"os/signal"
	"syscall"

	"github.com/gaugenn/gaugenn/internal/bench"
	"github.com/gaugenn/gaugenn/internal/cloudml"
	"github.com/gaugenn/gaugenn/internal/core"
	"github.com/gaugenn/gaugenn/internal/mlrt"
	"github.com/gaugenn/gaugenn/internal/nn/graph"
	"github.com/gaugenn/gaugenn/internal/nn/zoo"
	"github.com/gaugenn/gaugenn/internal/soc"
)

func main() {
	// Long-running explorations share one signal-cancellable context.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	// --- DNN co-habitation (Section 8.1) -------------------------------
	face, err := zoo.Build(zoo.Spec{Task: zoo.TaskFaceDetection, Seed: 1, Hinted: true})
	if err != nil {
		log.Fatal(err)
	}
	segm, err := zoo.Build(zoo.Spec{Task: zoo.TaskSemanticSegmentation, Seed: 2, Hinted: true})
	if err != nil {
		log.Fatal(err)
	}
	co, err := bench.RunCohabitation(ctx, "S21", []*graph.Graph{face, segm}, "cpu", 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== DNN co-habitation on the S21 ===")
	for i, name := range co.Models {
		fmt.Printf("%-32s solo %7.1f inf/s | cohabited %7.1f inf/s | %.2fx interference\n",
			name, co.SoloInfPerSec[i], co.CohabInfPerSec[i], co.InterferenceFactor[i])
	}

	// --- Cloud offloading (Section 6.4) --------------------------------
	srv := cloudml.NewInferenceServer()
	base, shutdown, err := srv.Listen()
	if err != nil {
		log.Fatal(err)
	}
	defer shutdown()
	det, err := zoo.Build(zoo.Spec{Task: zoo.TaskObjectDetection, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	data, err := core.EncodeTFLite(det)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n=== On-device vs cloud (one detection frame) ===")
	for _, devModel := range []string{"A20", "A70", "S21"} {
		dev, err := soc.NewDevice(devModel)
		if err != nil {
			log.Fatal(err)
		}
		agent := bench.NewAgent(dev, nil, nil)
		r := agent.ExecuteJob(bench.Job{ID: devModel, Model: data, Backend: "cpu", Threads: 4, Warmup: 2, Runs: 5})
		if r.Error != "" {
			log.Fatal(r.Error)
		}
		fmt.Printf("on-device %-4s: %v\n", devModel, r.MeanLatency())
	}
	for _, network := range []cloudml.NetworkProfile{cloudml.NetworkWiFi, cloudml.Network4G, cloudml.Network3G} {
		client := cloudml.NewOffloadClient(base, network)
		lat, err := client.Infer("Vision/Object Detection", 120*1024)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("offloaded %-4s: %v (same for every device tier)\n", network.Name, lat)
	}

	// --- A16W8 hybrid quantisation (Section 6.1) -----------------------
	fmt.Println("\n=== Quantisation schemes on the Q888 DSP ===")
	variants := []struct {
		name  string
		apply func(*graph.Graph) error
	}{
		{"fp32 source (SNPE quantises internally)", func(*graph.Graph) error { return nil }},
		{"int8 (the wild's 10-20% adoption)", func(g *graph.Graph) error { return zoo.QuantizeModel(g, 0.01) }},
		{"A16W8 hybrid (0% adoption in the wild)", func(g *graph.Graph) error { return zoo.HybridQuantizeA16W8(g, 0.01) }},
	}
	for _, v := range variants {
		g, err := zoo.Build(zoo.Spec{Task: zoo.TaskImageClassification, Seed: 4})
		if err != nil {
			log.Fatal(err)
		}
		if err := v.apply(g); err != nil {
			log.Fatal(err)
		}
		dev, err := soc.NewDevice("Q888")
		if err != nil {
			log.Fatal(err)
		}
		eng, err := mlrt.NewEngine(dev, "snpe-dsp")
		if err != nil {
			log.Fatal(err)
		}
		sess, err := eng.Load(g, mlrt.Options{Threads: 4})
		if err != nil {
			log.Fatal(err)
		}
		sess.Infer(nil) // warmup
		r, err := sess.Infer(nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-42s %v, %.2f mJ\n", v.name, r.Latency, r.EnergymJ())
	}
}
