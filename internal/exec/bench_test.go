package exec

import (
	"testing"

	"github.com/gaugenn/gaugenn/internal/nn/zoo"
)

// BenchmarkExec measures the interpreter's steady-state hot path — input
// fill, every kernel, metric updates, digest — in both precision regimes
// at batch 1 and batch 8. Recorded numbers and the CI ceilings live in
// BENCH_exec.json; the allocs/op ceiling is 0 (the arena contract), so
// any per-run allocation sneaking into a kernel fails the exec-bench job.
func BenchmarkExec(b *testing.B) {
	base := zoo.Spec{Task: zoo.TaskKeywordDetection, Seed: 91}
	quant := zoo.Spec{Task: zoo.TaskKeywordDetection, Seed: 91, Quantized: true}
	for _, bm := range []struct {
		name  string
		spec  zoo.Spec
		batch int
	}{
		{"fp32/batch1", base, 1},
		{"fp32/batch8", base, 8},
		{"int8/batch1", quant, 1},
		{"int8/batch8", quant, 8},
	} {
		b.Run(bm.name, func(b *testing.B) {
			p := buildModel(b, bm.spec)
			inst := p.NewInstance()
			inst.Run(0) // settle lazy runtime state outside the measurement
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for s := 0; s < bm.batch; s++ {
					inst.Run(uint64(s))
				}
				_ = inst.Digest()
			}
		})
	}
}

// BenchmarkZooModels measures one inference (input fill, every kernel,
// metrics, digest) of each zoo model the infer benchmark workload runs —
// MobileNetV2, BlazeFace and the keyword CNN at zoo seed 31 — in fp32 and
// PTQ int8. Its per-model rows are recorded in BENCH_exec.json.
func BenchmarkZooModels(b *testing.B) {
	for _, m := range []struct {
		name string
		task zoo.Task
	}{
		{"mobilenetv2", zoo.TaskImageClassification},
		{"blazeface", zoo.TaskFaceDetection},
		{"kws", zoo.TaskKeywordDetection},
	} {
		for _, quant := range []bool{false, true} {
			precision := "fp32"
			if quant {
				precision = "int8"
			}
			b.Run(m.name+"/"+precision, func(b *testing.B) {
				inst := buildModel(b, zoo.Spec{Task: m.task, Seed: 31, Quantized: quant}).NewInstance()
				inst.Run(0)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					inst.Run(uint64(i))
					_ = inst.Digest()
				}
			})
		}
	}
}
