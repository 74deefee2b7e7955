package gaugenn_test

import (
	"context"
	"testing"

	"github.com/gaugenn/gaugenn"
)

func TestFacadeEndToEnd(t *testing.T) {
	res, err := gaugenn.NewStudy(gaugenn.WithSeed(11), gaugenn.WithScale(0.02)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Corpus21.TotalModels() == 0 {
		t.Fatal("no models")
	}
	models, err := gaugenn.SelectBenchModels(res.Corpus21, 2)
	if err != nil {
		t.Fatal(err)
	}
	out, err := gaugenn.Bench(context.Background(), gaugenn.RunSpec{Device: "S21", Backend: "cpu", Threads: 4, Batch: 1, Runs: 2}, models)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(models) {
		t.Fatalf("results = %d", len(out))
	}
	if len(gaugenn.Devices()) != 6 || len(gaugenn.HDKs()) != 3 {
		t.Fatal("device lists")
	}
}
